import json
import os
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest
from conftest import ABC_DOCUMENT, identity, reverse_local_valuations_at_3, unimodular_product

from chowfiber.exact_linalg import FGAbelianGroup, format_matrix_text
from chowfiber.fixtures import fixture_names, fixture_path


def run_cli(*args, color="never"):
    env = dict(os.environ, CHOWFIBER_COLOR=color)
    return subprocess.run(
        [sys.executable, "-m", "chowfiber", *args],
        text=True,
        capture_output=True,
        env=env,
    )


def _fx(name):
    return str(fixture_path(name))


class TestValidateCommand:
    def test_clean_fixture_is_silent(self):
        r = run_cli("validate", _fx("trivial"))
        assert r.returncode == 0
        assert r.stdout == ""

    def test_seven_component_fixture_reports_four_errors(self):
        r = run_cli("validate", _fx("example31"))
        assert r.returncode == 1
        lines = r.stdout.splitlines()
        assert len(lines) == 4
        for line, subject in zip(lines, ("c01", "c02", "c04", "c05")):
            assert line.startswith(f"ERROR xi-orthogonality {subject}:")

    def test_warning_only_fixture_exits_zero(self):
        r = run_cli("validate", _fx("split-orbit"))
        assert r.returncode == 0
        assert r.stdout.startswith("WARNING multiplicity-gcd")

    def test_missing_file(self):
        r = run_cli("validate", "does-not-exist.json")
        assert r.returncode == 2

    def test_malformed_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        r = run_cli("validate", str(bad))
        assert r.returncode == 2
        assert "error:" in r.stderr

    def test_schema_violation(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"name": "x", "orbits": [], "extra": 1}))
        r = run_cli("validate", str(bad))
        assert r.returncode == 2


class TestComputeCommand:
    def test_irreducible_fixture_human_output(self):
        r = run_cli("compute", _fx("irreducible"))
        assert r.returncode == 0
        assert "B(X)   = Z" in r.stdout
        assert "B(X)_0 = 0" in r.stdout
        assert "index  = 1" in r.stdout
        assert "special case: irreducible fiber" in r.stdout

    def test_strict_is_the_default(self):
        default = run_cli("compute", _fx("example31"))
        explicit = run_cli("compute", "--strict", _fx("example31"))
        assert default.returncode == explicit.returncode == 1
        assert "xi-orthogonality" in default.stderr

    def test_permissive_reports_formal_cokernel(self):
        r = run_cli("compute", "--permissive", _fx("example31"))
        assert r.returncode == 0
        assert "B(X)   = Z/2 ⊕ Z/2" in r.stdout
        assert "formal cokernel only" in r.stdout
        assert "recorded expectation: B(X)_0 rank 0, torsion [2]" in r.stdout

    def test_permissive_json(self):
        r = run_cli("compute", "--permissive", "--json", _fx("example31"))
        assert r.returncode == 0
        doc = json.loads(r.stdout)
        assert doc["b"] == {"rank": 0, "torsion": [2, 2]}
        assert doc["b0"] is None
        assert doc["index"] == "undefined-under-invalid-input"
        assert doc["formal_only"] is True
        assert [d["subject"] for d in doc["diagnostics"]] == ["c01", "c02", "c04", "c05"]

    def test_declared_size_is_only_a_number(self, tmp_path, capsys):
        # A size far past any allocatable count: the orbit weighs 10^18,
        # and nothing is built per component.
        from chowfiber import cli

        path = tmp_path / "wide.json"
        path.write_text(
            json.dumps(
                {"name": "wide", "orbits": [{"name": "Y", "multiplicity": 1, "size": 10**18}]}
            )
        )
        assert cli.main(["compute", str(path), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["index"] == 10**18
        assert doc["b"] == {"rank": 1, "torsion": []}
        assert doc["b0"] == {"rank": 0, "torsion": []}

    def test_flags_are_mutually_exclusive(self):
        r = run_cli("compute", "--strict", "--permissive", _fx("trivial"))
        assert r.returncode == 2

    @pytest.mark.parametrize("name", ["trivial", "irreducible", "split-orbit", "synthetic-z2"])
    def test_json_matches_human_output(self, name):
        # Every field shown in human mode must be recoverable from the
        # JSON document.
        human = run_cli("compute", _fx(name))
        as_json = run_cli("compute", "--json", _fx(name))
        assert human.returncode == as_json.returncode == 0
        doc = json.loads(as_json.stdout)
        b = FGAbelianGroup(doc["b"]["rank"], tuple(doc["b"]["torsion"]))
        b0 = FGAbelianGroup(doc["b0"]["rank"], tuple(doc["b0"]["torsion"]))
        assert f"B(X)   = {b}" in human.stdout
        assert f"B(X)_0 = {b0}" in human.stdout
        assert f"index  = {doc['index']}" in human.stdout
        assert ("special case: irreducible fiber" in human.stdout) == (
            doc["special_case"] == "irreducible-fiber"
        )
        for d in doc["diagnostics"]:
            assert f"{d['severity'].upper()} {d['code']} {d['subject']}: {d['message']}" in human.stdout
        for key, shown in (
            ("reduced_components_smooth", "reduced_components_smooth"),
            ("pic_unramified_descent", "pic_unramified_descent"),
        ):
            flag = "yes" if doc["hypotheses"][key] else "no"
            assert f"{shown}={flag}" in human.stdout

    def test_json_matches_human_output_when_formal(self):
        human = run_cli("compute", "--permissive", _fx("example31"))
        as_json = run_cli("compute", "--permissive", "--json", _fx("example31"))
        doc = json.loads(as_json.stdout)
        b = FGAbelianGroup(doc["b"]["rank"], tuple(doc["b"]["torsion"]))
        assert f"B(X)   = {b}" in human.stdout
        assert doc["b0"] is None
        assert "B(X)_0 = (not defined: validation failed)" in human.stdout
        assert doc["index"] == "undefined-under-invalid-input"
        assert "index  = undefined-under-invalid-input" in human.stdout
        assert doc["formal_only"] is True
        assert "formal cokernel only" in human.stdout


class TestUsage:
    # cli.main is the failure boundary for the command line too: a
    # malformed argv returns 2 after the usage text, never SystemExit.
    # M and X stand for a valid model and a valid matrix file.
    @pytest.mark.parametrize(
        "argv, code",
        [
            ([], 2),
            (["bogus", "M"], 2),
            (["compute", "--bogus", "M"], 2),
            (["snf", "--json", "X"], 2),
            (["compute"], 2),
            (["compute", "M", "M"], 2),
            (["compute", "--strict", "--permissive", "M"], 2),
            (["compute", "M", "--json", "--"], 2),
            (["compute", "--", "M", "--json"], 2),
            (["-h"], 0),
            (["--help"], 0),
            (["compute", "-h"], 0),
            (["snf", "X", "--help"], 0),
            (["validate", "--", "-model.json"], 0),
        ],
        ids=[
            "no-argv",
            "unknown-command",
            "unknown-flag",
            "flag-of-another-command",
            "missing-path",
            "two-paths",
            "strict-and-permissive",
            "double-dash-after-a-flag-after-the-path",
            "flag-after-double-dash-is-a-second-path",
            "short-help",
            "long-help",
            "help-after-command",
            "help-after-path",
            "dash-path-after-double-dash",
        ],
    )
    def test_argv(self, tmp_path, monkeypatch, capsys, argv, code):
        from chowfiber import cli

        monkeypatch.chdir(tmp_path)
        shutil.copy(_fx("trivial"), "-model.json")
        Path("m.txt").write_text("1 1\n2\n")
        argv = [{"M": _fx("trivial"), "X": "m.txt"}.get(a, a) for a in argv]
        assert cli.main(argv) == code
        out, err = capsys.readouterr()
        if code == 0:
            assert err == ""
            assert out == ("" if "--" in argv else cli.USAGE)
        else:
            assert out == ""
            lines = err.splitlines()
            assert lines[0].startswith("usage: chowfiber")
            assert lines[-1].startswith("chowfiber: error:")
            assert "Traceback" not in err

    def test_readme_shows_the_help_text(self):
        from chowfiber import cli

        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        assert f"```\n{cli.USAGE}```" in readme


class TestMatrixCommands:
    @pytest.fixture
    def matrix_file(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("2 2\n2 4\n6 8\n")
        return str(path)

    def test_snf_output(self, matrix_file):
        r = run_cli("snf", matrix_file)
        assert r.returncode == 0
        assert r.stdout == "rank 2; invariant factors: 2 4\n"

    def test_snf_check_agrees(self, matrix_file):
        r = run_cli("snf", matrix_file, "--check")
        assert r.returncode == 0
        assert r.stdout.splitlines() == ["rank 2; invariant factors: 2 4", "check: ok"]

    def test_snf_identity(self, tmp_path):
        path = tmp_path / "id.txt"
        path.write_text("3 3\n1 0 0\n0 1 0\n0 0 1\n")
        r = run_cli("snf", str(path))
        assert r.stdout == "rank 3; invariant factors: 1 1 1\n"

    def test_snf_zero(self, tmp_path):
        path = tmp_path / "z.txt"
        path.write_text("2 2\n0 0\n0 0\n")
        r = run_cli("snf", str(path))
        assert r.stdout == "rank 0; invariant factors: (none)\n"

    def test_snf_check_of_rows_without_columns(self, tmp_path):
        path = tmp_path / "no-columns.txt"
        path.write_text("3 0\n")
        r = run_cli("snf", str(path), "--check")
        assert r.returncode == 0
        assert r.stdout == "rank 0; invariant factors: (none)\ncheck: ok\n"

    def test_snf_check_uses_the_local_route_beyond_oracle_limit(self, tmp_path):
        n = 9
        rows = [" ".join("1" if i == j else "0" for j in range(n)) for i in range(n)]
        path = tmp_path / "big.txt"
        path.write_text(f"{n} {n}\n" + "\n".join(rows) + "\n")
        r = run_cli("snf", str(path), "--check")
        assert r.returncode == 0
        assert r.stdout.splitlines() == [
            "rank 9; invariant factors: 1 1 1 1 1 1 1 1 1",
            "check: ok (local route past the oracle size limit)",
        ]

    def test_snf_check_with_torsion_beyond_oracle_limit(self, tmp_path):
        # diag(1, 1, 1, 1, 1, 2, 2, 6, 0), mixed by unimodular row and
        # column operations so that neither route sees the diagonal.
        n = 9
        rows = [[0] * n for _ in range(n)]
        for i, d in enumerate((1, 1, 1, 1, 1, 2, 2, 6, 0)):
            rows[i][i] = d
        for k in range(n - 1):
            rows[k + 1] = [p + (k + 2) * q for p, q in zip(rows[k + 1], rows[k])]
            for row in rows:
                row[k] += (3 - k) * row[k + 1]
        path = tmp_path / "torsion.txt"
        path.write_text(f"{n} {n}\n" + "\n".join(" ".join(map(str, row)) for row in rows) + "\n")
        r = run_cli("snf", str(path), "--check")
        assert r.returncode == 0
        assert r.stdout.splitlines() == [
            "rank 8; invariant factors: 1 1 1 1 1 2 2 6",
            "check: ok (local route past the oracle size limit)",
        ]

    def test_snf_check_with_large_torsion_on_ten_by_ten(self, tmp_path):
        # diag(1, ..., 1, 4, 12, 12 * (2**61 - 1), 0) mixed by seeded
        # unimodular operations: the local route factors 2, 3 and a
        # prime above its trial division bound.
        q = 2**61 - 1
        a = unimodular_product(random.Random(10), 10, 10, (1,) * 6 + (4, 12, 12 * q, 0))
        path = tmp_path / "torsion10.txt"
        path.write_text(format_matrix_text(a))
        r = run_cli("snf", str(path), "--check")
        assert r.returncode == 0
        assert r.stdout.splitlines() == [
            f"rank 9; invariant factors: 1 1 1 1 1 1 4 12 {12 * q}",
            "check: ok (local route past the oracle size limit)",
        ]

    def test_oracle_output(self, matrix_file):
        r = run_cli("oracle", matrix_file)
        assert r.returncode == 0
        assert r.stdout == "determinantal divisors: 2 8\n"

    def test_oracle_refuses_oversized_input(self, tmp_path):
        n = 9
        rows = [" ".join("1" if i == j else "0" for j in range(n)) for i in range(n)]
        path = tmp_path / "big.txt"
        path.write_text(f"{n} {n}\n" + "\n".join(rows) + "\n")
        r = run_cli("oracle", str(path))
        assert r.returncode == 2
        assert "oracle size limit" in r.stderr

    def test_matrix_parse_error(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 2\n1 2\n")
        r = run_cli("snf", str(path))
        assert r.returncode == 2

    def test_line_separator_in_a_comment_exits_2(self, tmp_path, capsys):
        from chowfiber import cli

        path = tmp_path / "separator.txt"
        path.write_text("# note\u20281 1\n5\n", encoding="utf-8")
        assert cli.main(["snf", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "line 1: line break U+2028 may not appear" in captured.err


class TestHostileInput:
    @pytest.mark.parametrize(
        "command, filename, content",
        [
            ("compute", "huge.json", b'{"name": "x", "orbits": ' + b"7" * 5000 + b"}"),
            ("validate", "deep.json", b"[" * 100_000 + b"]" * 100_000),
            ("compute", "latin1.json", '{"name": "\u00e9"}'.encode("latin-1")),
            ("snf", "latin1.matrix", "# \u00e9\n1 1\n1\n".encode("latin-1")),
            ("snf", "header.matrix", b"0 100000"),
            ("snf", "control.matrix", b"2 1\n1\x1c2\n"),
            (
                "compute",
                "repeated.json",
                b'{"name": "t", "name": "u", "orbits": [{"name": "A", "size": 1, '
                b'"multiplicity": 1}, {"name": "B", "size": 1, "multiplicity": 1}], '
                b'"generators": [{"name": "g", "host": "A", '
                b'"degrees": {"A": 3, "B": -2, "A": 2}}]}',
            ),
            (
                "compute",
                "null.json",
                b'{"name": "x", "orbits": [{"name": "A", "multiplicity": 1, "size": 1}], '
                b'"hypotheses": null}',
            ),
        ],
        ids=[
            "too-many-digits",
            "too-deep",
            "model-not-utf8",
            "matrix-not-utf8",
            "declared-too-large",
            "matrix-control-character",
            "repeated-key",
            "null-hypotheses",
        ],
    )
    def test_exits_2_with_one_error_line(self, tmp_path, command, filename, content):
        path = tmp_path / filename
        path.write_bytes(content)
        r = run_cli(command, str(path))
        assert r.returncode == 2
        assert r.stdout == ""
        lines = r.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")


    def test_declared_dimension_is_refused_quickly(self, tmp_path, capsys):
        # An 8-byte header must not buy a cubic check of a huge transform.
        from chowfiber import cli

        huge = tmp_path / "huge.matrix"
        huge.write_bytes(b"0 100000")
        started = time.perf_counter()
        assert cli.main(["snf", str(huge)]) == 2
        assert time.perf_counter() - started < 1.0

        capsys.readouterr()
        small = tmp_path / "small.matrix"
        small.write_bytes(b"0 3")
        assert cli.main(["snf", str(small)]) == 0
        assert capsys.readouterr().out == "rank 0; invariant factors: (none)\n"


    @pytest.mark.parametrize(
        "content, expected",
        [
            ("0 256\n", "rank 0; invariant factors: (none)\n"),
            (
                "1 256\n" + " ".join(str(j % 7 - 3) for j in range(256)) + "\n",
                "rank 1; invariant factors: 1\n",
            ),
        ],
        ids=["no-rows", "one-row"],
    )
    def test_widest_accepted_header_is_quick(self, tmp_path, capsys, content, expected):
        # The largest dimension the parser accepts must not buy a slow
        # check of a 256x256 column transform.
        from chowfiber import cli

        path = tmp_path / "wide.matrix"
        path.write_text(content)
        started = time.perf_counter()
        assert cli.main(["snf", str(path)]) == 0
        assert time.perf_counter() - started < 0.2
        assert capsys.readouterr().out == expected


def _ten_to(k):
    """The decimal digits of 10**k, spelled without an int-to-str conversion."""
    return "1" + "0" * k


def _product_digits(k):
    """The digits of (10**k + 1)(10**k + 3) = 10**2k + 4·10**k + 3."""
    return "1" + "0" * (k - 1) + "4" + "0" * (k - 1) + "3"


def _one_huge_orbit():
    return json.dumps(
        {"name": "big", "orbits": [{"name": "A", "multiplicity": 10**4000, "size": 10**4000}]}
    )


def _three_orbits(d, e):
    orbits = [{"name": f"O{i}", "multiplicity": 1, "size": 1} for i in range(3)]
    generators = [
        {"name": "g0", "host": "O0", "degrees": {"O0": d, "O1": -d}},
        {"name": "g1", "host": "O1", "degrees": {"O1": e, "O2": -e}},
    ]
    return json.dumps({"name": "three", "orbits": orbits, "generators": generators})


class TestLongExactResults:
    # Results past the interpreter's 4,300-digit limit on int-to-str
    # conversion print in full.  Parsing keeps the limit, so afterwards
    # an oversized literal is still refused, and the limit is restored.
    @pytest.mark.parametrize(
        "argv, filename, content, expected",
        [
            (
                ["validate"],
                "orbit.json",
                _one_huge_orbit(),
                f"WARNING multiplicity-gcd big: gcd of the multiplicity weights is "
                f"{_ten_to(8000)}; the degree character lands in {_ten_to(8000)}Z\n",
            ),
            (["compute"], "orbit.json", _one_huge_orbit(), f"index  = {_ten_to(8000)}\n"),
            (
                ["compute", "--json"],
                "orbit.json",
                _one_huge_orbit(),
                f'"index": {_ten_to(8000)},',
            ),
            (
                ["snf"],
                "diagonal.matrix",
                f"2 2\n{10**3000 + 1} 0\n0 {10**3000 + 3}\n",
                f"rank 2; invariant factors: 1 {_product_digits(3000)}\n",
            ),
            (
                ["compute"],
                "three.json",
                _three_orbits(10**2500 + 1, 10**2500 + 3),
                f"B(X)   = Z ⊕ Z/{_product_digits(2500)}\n"
                f"B(X)_0 = Z/{_product_digits(2500)}\nindex  = 1\n",
            ),
        ],
        ids=["validate-orbit", "compute-orbit", "json-orbit", "snf-diagonal", "compute-three"],
    )
    def test_prints_in_full_and_keeps_the_parse_limit(
        self, tmp_path, capsys, argv, filename, content, expected
    ):
        from chowfiber import cli

        limit = sys.get_int_max_str_digits()
        path = tmp_path / filename
        path.write_text(content)
        assert cli.main([*argv, str(path)]) == 0
        captured = capsys.readouterr()
        assert expected in captured.out
        assert captured.err == ""

        huge = tmp_path / "huge.json"
        huge.write_bytes(b'{"name": "x", "orbits": ' + b"7" * 5000 + b"}")
        assert cli.main(["compute", str(huge)]) == 2
        assert capsys.readouterr().err == "error: integer literal has more than 4,300 digits\n"
        assert sys.get_int_max_str_digits() == limit


class TestInternalFailureExitCode:
    # The honest pipeline cannot produce a self-check failure, so the
    # exit-3 mapping is exercised in process with a forced fault.
    def test_compute_maps_self_check_to_exit_3(self, monkeypatch):
        from chowfiber import cli
        from chowfiber.exact_linalg import SelfCheckError

        def boom(model, mode="strict"):
            raise SelfCheckError("forced failure")

        monkeypatch.setattr(cli, "report", boom)
        assert cli.main(["compute", _fx("trivial")]) == 3

    def test_compute_maps_a_broken_divisibility_chain_to_exit_3(
        self, monkeypatch, tmp_path, capsys
    ):
        # A local route whose factors break the chain must exit 3, not
        # escape as a ValueError.
        from chowfiber import cli

        path = tmp_path / "abc.json"
        path.write_text(json.dumps(ABC_DOCUMENT))
        assert cli.main(["compute", str(path)]) == 0
        reverse_local_valuations_at_3(monkeypatch)
        assert cli.main(["compute", str(path)]) == 3
        assert "not a divisibility chain" in capsys.readouterr().err

    def test_snf_check_disagreement_exits_3(self, monkeypatch, tmp_path, capsys):
        from chowfiber import cli

        path = tmp_path / "m.txt"
        path.write_text("2 2\n2 4\n6 8\n")
        monkeypatch.setattr(cli, "determinantal_divisors", lambda a: [1, 8])
        assert cli.main(["snf", str(path), "--check"]) == 3
        assert "check failed" in capsys.readouterr().err

    def test_snf_check_disagreement_past_the_oracle_limit_exits_3(
        self, monkeypatch, tmp_path, capsys
    ):
        from chowfiber import cli
        path = tmp_path / "id9.txt"
        path.write_text(format_matrix_text(identity(9)))
        monkeypatch.setattr(cli, "local_invariant_factors", lambda a: (1,) * 8 + (2,))
        assert cli.main(["snf", str(path), "--check"]) == 3
        assert capsys.readouterr().err == (
            "check failed: reduction gives [1, 1, 1, 1, 1, 1, 1, 1, 1], "
            "local route gives [1, 1, 1, 1, 1, 1, 1, 1, 2]\n"
        )


class TestReaderGone:
    # A pipe whose read end is already closed is `chowfiber ... | true`
    # after `true` has exited, without the race: every write fails.
    def test_pipeline_exits_141_without_traceback(self):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            r = subprocess.run(
                [sys.executable, "-m", "chowfiber", "validate", _fx("example31")],
                stdout=write_end,
                stderr=subprocess.PIPE,
                text=True,
                env=dict(os.environ, CHOWFIBER_COLOR="never"),
            )
        finally:
            os.close(write_end)
        assert r.stderr == ""
        assert r.returncode == 141

    def test_main_returns_141_when_a_write_fails(self, monkeypatch):
        from chowfiber import cli

        read_end, write_end = os.pipe()
        os.close(read_end)
        # Line buffering makes the first print itself raise BrokenPipeError.
        with open(write_end, "w", buffering=1) as stdout:
            monkeypatch.setattr(sys, "stdout", stdout)
            assert cli.main(["validate", _fx("example31")]) == cli.EXIT_PIPE == 141


class TestStyling:
    def test_color_always_emits_ansi(self):
        r = run_cli("validate", _fx("example31"), color="always")
        assert "\x1b[31mERROR\x1b[0m" in r.stdout

    def test_color_never_is_plain(self):
        r = run_cli("validate", _fx("example31"), color="never")
        assert "\x1b[" not in r.stdout


class TestDeterminism:
    @pytest.mark.parametrize("name", fixture_names())
    def test_repeated_runs_are_byte_identical(self, name):
        for args in (
            ("validate", _fx(name)),
            ("compute", _fx(name)),
            ("compute", "--permissive", "--json", _fx(name)),
        ):
            first = run_cli(*args)
            second = run_cli(*args)
            assert (first.returncode, first.stdout, first.stderr) == (
                second.returncode,
                second.stdout,
                second.stderr,
            )
