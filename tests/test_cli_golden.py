"""Byte-for-byte CLI output, pinned.

``tests/golden/cli.json`` holds the exit code, stdout and stderr of 67
commands: the nine commands of acceptance criterion 8 on every fixture,
and twenty-two error paths (unreadable, malformed, hostile and oversized
input).  The test replays every command in process through
:func:`chowfiber.cli.main`, with ``CHOWFIBER_COLOR=never`` and relative
file names inside a scratch directory, and compares the three results
byte for byte.

The golden file records the behaviour the command line promises.  A
change that alters it is a change of output, not a refactor; running
``python tests/test_cli_golden.py --write`` rewrites the file.
"""

import contextlib
import io
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

from conftest import identity

from chowfiber import cli
from chowfiber.exact_linalg import format_matrix_text
from chowfiber.fiber_model import build_specialization_matrix, parse_model
from chowfiber.fixtures import fixture_names, fixture_path

GOLDEN = Path(__file__).parent / "golden" / "cli.json"

ERROR_INPUTS = {
    "malformed.json": b"{",
    "schema.json": json.dumps({"name": "x", "orbits": [], "extra": 1}).encode(),
    "missing-key.json": json.dumps({"name": "x", "orbits": [{"name": "A"}]}).encode(),
    "latin1.json": '{"name": "é"}'.encode("latin-1"),
    "latin1.matrix": "# é\n1 1\n1\n".encode("latin-1"),
    "digits.json": b'{"name": "x", "orbits": ' + b"7" * 5000 + b"}",
    "header.matrix": b"0 100000",
    "identity9.matrix": format_matrix_text(identity(9)).encode(),
    "ragged.matrix": b"2 2\n1 2\n3\n",
    "multiplicity0.json": json.dumps(
        {"name": "x", "orbits": [{"name": "A", "multiplicity": 0, "size": 1}]}
    ).encode(),
    "forged-line.json": json.dumps(
        {"name": "m\nB(X)   = Z/7", "orbits": [{"name": "A", "multiplicity": 1, "size": 1}]}
    ).encode(),
    "escape.json": json.dumps(
        {
            "name": "x",
            "orbits": [{"name": "A", "multiplicity": 1, "size": 1}],
            "generators": [{"name": "g\x1b]0;pwned\x07", "host": "A"}],
        }
    ).encode(),
    "escape-key.json": json.dumps(
        {"name": "x", "orbits": [{"name": "A", "multiplicity": 1, "size": 1}], "co\x1blor": 1}
    ).encode(),
    "no-group.json": json.dumps(
        {
            "name": "x",
            "orbits": [{"name": "A", "multiplicity": 1, "size": 1}],
            "expected": {"b0_rank": -1, "b0_torsion": [0, -2], "source": "s"},
        }
    ).encode(),
    "deep.json": b"[" * 200000 + b"]" * 200000,
    "header-text.matrix": b"2 x",
}

ERROR_COMMANDS = [
    ["validate", "missing.json"],
    ["compute", "folder"],
    ["snf", "missing.matrix"],
    ["oracle", "missing.matrix"],
    ["validate", "malformed.json"],
    ["compute", "schema.json"],
    ["validate", "missing-key.json"],
    ["compute", "latin1.json"],
    ["snf", "latin1.matrix"],
    ["compute", "digits.json"],
    ["snf", "header.matrix"],
    ["oracle", "identity9.matrix"],
    ["snf", "identity9.matrix", "--check"],
    ["snf", "ragged.matrix"],
    ["compute", "--json", "multiplicity0.json"],
    ["compute", "--permissive", "forged-line.json"],
    ["validate", "escape.json"],
    ["compute", "escape.json"],
    ["validate", "escape-key.json"],
    ["compute", "no-group.json"],
    ["compute", "deep.json"],
    ["snf", "header-text.matrix"],
]


def write_inputs(directory: Path) -> None:
    """Write every file the commands name into ``directory``."""
    for name in fixture_names():
        shutil.copyfile(fixture_path(name), directory / f"{name}.json")
        a = build_specialization_matrix(parse_model(fixture_path(name).read_text()))
        (directory / f"{name}.matrix").write_text(format_matrix_text(a))
    (directory / "folder").mkdir()
    for filename, content in ERROR_INPUTS.items():
        (directory / filename).write_bytes(content)


def commands() -> list[list[str]]:
    result = []
    for name in fixture_names():
        model, matrix = f"{name}.json", f"{name}.matrix"
        result += [
            ["validate", model],
            ["compute", model],
            ["compute", "--strict", model],
            ["compute", "--permissive", model],
            ["compute", "--json", model],
            ["compute", "--permissive", "--json", model],
            ["snf", matrix],
            ["snf", matrix, "--check"],
            ["oracle", matrix],
        ]
    return result + ERROR_COMMANDS


def replay(argv: list[str]) -> dict:
    """Exit code, stdout and stderr of one in-process ``cli.main`` call.

    Both streams are decoded strictly as UTF-8, so equal strings mean
    equal bytes.
    """
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    err = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", errors="backslashreplace")
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
        out.flush()
        err.flush()
    return {
        "argv": argv,
        "exit": code,
        "stdout": out.buffer.getvalue().decode("utf-8"),
        "stderr": err.buffer.getvalue().decode("utf-8"),
    }


def test_cli_output_matches_the_golden_file(tmp_path, monkeypatch):
    monkeypatch.setenv("CHOWFIBER_COLOR", "never")
    monkeypatch.chdir(tmp_path)
    write_inputs(tmp_path)
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert [g["argv"] for g in golden] == commands()
    assert len(golden) == 67
    for expected in golden:
        assert replay(expected["argv"]) == expected


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_cli_golden.py --write")
    os.environ["CHOWFIBER_COLOR"] = "never"
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        write_inputs(Path(tmp))
        records = [replay(argv) for argv in commands()]
        os.chdir(here)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
