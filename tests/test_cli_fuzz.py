"""Hostile-input fuzzing of the model commands and of the command line.

Every file handed to ``chowfiber validate`` or ``chowfiber compute`` must
map to a documented exit code (0 success, 1 validation errors, 2
unreadable or malformed input) with no traceback, whatever the bytes:
arbitrary binary, arbitrary JSON, or documents shaped like the model
schema with huge declared sizes and degrees (up to the 4,300 digits the
parser accepts, so results run past that many) and random geometric
sections.  Every argv drawn from the commands, their flags, ``-h``,
``--`` and a few paths must map to one of those codes or 3, and parse
exactly as ``reference_parser``, an argparse parser, does.
"""

import argparse
import contextlib
import io
import json
import tempfile
from datetime import timedelta
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, event, example, given, settings

from chowfiber import cli
from chowfiber.fixtures import fixture_path

COMMANDS = (
    ("validate",),
    ("compute",),
    ("compute", "--permissive"),
    ("compute", "--json"),
)

fuzz_settings = settings(
    max_examples=120,
    deadline=timedelta(seconds=2),
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

# Every code point, lone surrogates included: JSON escapes such as
# "\ud800" decode to strings that cannot be written out as UTF-8.
any_text = st.text(
    st.characters() | st.characters(min_codepoint=0xD800, max_codepoint=0xDFFF), max_size=8
)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | any_text,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(any_text, children, max_size=4),
    max_leaves=20,
)

def mostly(valid, invalid):
    """Draw from ``invalid`` one time in ten, else from ``valid``."""
    # Not k == 0: small and boundary integers are drawn far more often.
    return st.integers(0, 9).flatmap(lambda k: invalid if k == 5 else valid)


# Declared counts: mostly small, sometimes far past any machine word (up
# to 4,300 digits, the most the parser accepts), sometimes below the
# schema's minimum of 1.
counts = mostly(st.integers(1, 3) | st.integers(1, 10**4299), st.integers(-2, 0))
degrees = st.integers(-3, 3) | st.integers(-(10**4299), 10**4299)
names = st.sampled_from(["A", "B", "C", "é", "\ud800", ""]) | any_text


def _realized_section(orbits):
    # One Frobenius cycle per orbit, of its declared size, for the
    # orbits small enough to list.
    components, frobenius, orbit_of = [], [], {}
    for o in orbits:
        cycle = [f"{o['name']}#{i}" for i in range(min(o["size"], 4))]
        components += cycle
        frobenius += cycle[1:] + cycle[:1]
        orbit_of.update((c, o["name"]) for c in cycle)
    return components, frobenius, orbit_of


@st.composite
def model_documents(draw):
    orbit_names = draw(
        mostly(
            st.lists(names, min_size=1, max_size=6, unique=True),
            st.lists(names, max_size=6),
        )
    )
    orbits = [
        {"name": o, "multiplicity": draw(counts), "size": draw(counts)} for o in orbit_names
    ]
    some_orbit = st.sampled_from(orbit_names or ["A"])
    generator_names = draw(st.lists(names, max_size=6, unique=True))
    generators = [
        {
            "name": g,
            "host": draw(mostly(some_orbit, names)),
            "degrees": draw(st.dictionaries(mostly(some_orbit, names), degrees, max_size=6)),
        }
        for g in generator_names
    ]
    doc = {"name": draw(names), "orbits": orbits, "generators": generators}
    if draw(st.booleans()):
        components, frobenius, orbit_of = _realized_section(orbits)
        if draw(st.integers(0, 3)) == 0:
            components = draw(st.lists(names, max_size=8, unique=True))
            frobenius = draw(st.permutations(components) | st.lists(names, max_size=8))
            orbit_of = {c: draw(mostly(some_orbit, names)) for c in components}
        section_degrees = draw(
            st.dictionaries(
                mostly(st.sampled_from(generator_names or ["g"]), names),
                st.dictionaries(st.sampled_from(components or ["x"]), degrees, max_size=12),
                max_size=6,
            )
        )
        doc["geometric"] = {
            "components": components,
            "frobenius": frobenius,
            "orbit_of": orbit_of,
            "degrees": section_degrees,
        }
    if draw(st.booleans()):
        doc["notes"] = draw(any_text)
    return doc


def _run(command, content):
    """Run one command on a file holding ``content``, as the installed CLI would.

    stdout is strict UTF-8 and stderr replaces what it cannot encode,
    matching the interpreter's own streams.
    """
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", errors="strict")
    err = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", errors="backslashreplace")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        path.write_bytes(content)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([*command, str(path)])
            out.flush()
            err.flush()
    stderr = err.buffer.getvalue().decode("utf-8")
    assert code in (0, 1, 2), (code, stderr)
    assert "Traceback" not in stderr
    return code, stderr


@fuzz_settings
@given(st.sampled_from(COMMANDS), st.binary(max_size=300))
def test_arbitrary_bytes(command, content):
    _run(command, content)


@fuzz_settings
@given(st.sampled_from(COMMANDS), json_values)
def test_arbitrary_json_values(command, value):
    code, stderr = _run(command, json.dumps(value).encode())
    if not isinstance(value, dict):
        assert code == 2 and stderr.startswith("error: ")


@fuzz_settings
@given(st.sampled_from(COMMANDS), model_documents())
@example(
    ("validate",),
    {"name": "big", "orbits": [{"name": "A", "multiplicity": 10**4000, "size": 10**4000}]},
)
def test_schema_shaped_documents(command, doc):
    code, _ = _run(command, json.dumps(doc).encode())
    event(f"{command[0]} exit {code}")


def reference_parser():
    """The argparse parser the command line had before :data:`cli.COMMANDS`.

    Kept as the reference for which argv are accepted and what they mean;
    only the ``set_defaults`` that bound each command to its code are gone.
    """
    parser = argparse.ArgumentParser(
        prog="chowfiber",
        description=(
            "Zero-cycle class groups of rational surfaces over p-adic fields, "
            "computed exactly from special-fiber degree data."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="check a model document")
    p_validate.add_argument("path", metavar="model", help="path to a model JSON document")

    p_compute = sub.add_parser("compute", help="compute B(X), B(X)_0 and the index")
    p_compute.add_argument("path", metavar="model", help="path to a model JSON document")
    mode = p_compute.add_mutually_exclusive_group()
    mode.add_argument(
        "--strict",
        action="store_true",
        help="refuse models with validation errors (default)",
    )
    mode.add_argument(
        "--permissive",
        action="store_true",
        help="report the formal cokernel even when validation fails",
    )
    p_compute.add_argument("--json", action="store_true", help="emit the report as JSON")

    p_snf = sub.add_parser("snf", help="invariant factors of an integer matrix file")
    p_snf.add_argument(
        "path", metavar="matrix", help="path to a matrix text file ('R C' header)"
    )
    p_snf.add_argument(
        "--check",
        action="store_true",
        help=(
            "cross-check against the determinantal-divisor oracle, or past its "
            "size limit against the reduction modulo a nonzero minor"
        ),
    )

    p_oracle = sub.add_parser("oracle", help="determinantal divisors of a matrix file")
    p_oracle.add_argument(
        "path", metavar="matrix", help="path to a matrix text file ('R C' header)"
    )

    return parser


def _reference_parse(argv):
    """(command, path, flags) as the reference parser reads argv, or None."""
    with contextlib.redirect_stderr(io.StringIO()):
        try:
            ns = reference_parser().parse_args(argv)
        except SystemExit:
            return None
    flags = {f"--{f}" for f in ("strict", "permissive", "json", "check") if getattr(ns, f, False)}
    return ns.command, ns.path, flags


# Placeholders for paths made per module; see ``argv_paths``.
ARGV_TOKENS = (
    *cli.COMMANDS,
    "--strict",
    "--permissive",
    "--json",
    "--check",
    "-h",
    "--help",
    "--",
    "-x",
    "MODEL",
    "MATRIX",
    "MISSING",
)


@pytest.fixture(scope="module")
def argv_paths(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("argv")
    (tmp / "m.txt").write_text("2 2\n2 4\n6 8\n")
    return {
        "MODEL": str(fixture_path("synthetic-z2")),
        "MATRIX": str(tmp / "m.txt"),
        "MISSING": str(tmp / "missing.json"),
    }


@settings(fuzz_settings, max_examples=500)
@given(tokens=st.lists(st.sampled_from(ARGV_TOKENS), max_size=5))
def test_argv_maps_to_an_exit_code_and_parses_as_argparse_did(argv_paths, tokens):
    argv = [argv_paths.get(t, t) for t in tokens]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 2, 3), (argv, code)
    assert "Traceback" not in err.getvalue()
    event(f"exit {code}")
    if "-h" in argv or "--help" in argv:
        return
    try:
        parsed = cli.parse_argv(argv)
    except cli.UsageError:
        parsed = None
    assert parsed == _reference_parse(argv), argv
    if parsed is None:
        assert code == 2 and err.getvalue().startswith(cli.USAGE)
