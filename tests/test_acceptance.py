"""End-to-end acceptance suite.

One test per acceptance criterion, each printing a PASS/FAIL line; run
``pytest -v -s tests/test_acceptance.py`` to see them.  All random data
is generated from fixed seeds, so the suite itself is deterministic.
"""

import json
import os
import random
import subprocess
import sys
import time
from contextlib import contextmanager

from conftest import random_valid_model_document

from chowfiber.chow import IRREDUCIBLE_FIBER, compute_b0, report
from chowfiber.exact_linalg import (
    FGAbelianGroup,
    IntMatrix,
    cokernel,
    determinant,
    determinantal_divisors,
    format_matrix_text,
    invariant_factors_from_divisors,
    snf,
    solve_in_lattice,
)
from chowfiber.fiber_model import build_specialization_matrix, parse_model
from chowfiber.fixtures import fixture_names, fixture_path
from chowfiber.galois import hom_T_basis, xi_weights


@contextmanager
def criterion(number, summary):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {summary}")
        raise
    print(f"PASS criterion {number}: {summary}")


def run_cli(*args):
    env = dict(os.environ, CHOWFIBER_COLOR="never")
    return subprocess.run(
        [sys.executable, "-m", "chowfiber", *args], capture_output=True, env=env
    )


def _random_matrix(rng, rows, cols, bound=9):
    return IntMatrix.from_rows(
        [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)],
        col_count=cols,
    )


def _fixture_model(name):
    return parse_model(fixture_path(name).read_text())


def _b_and_b0(m):
    """B(X) from the Smith diagonal and B(X)_0 by the quotient route."""
    a = build_specialization_matrix(m)
    return cokernel(a), compute_b0(xi_weights(m.orbits), a)


def test_criterion_1_snf_soundness():
    with criterion(1, "SNF soundness on 200 random matrices, oracle-exact, under 10 s"):
        rng = random.Random(0x5EED1)
        started = time.perf_counter()
        for _ in range(200):
            a = _random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
            dec = snf(a)
            assert dec.u @ a @ dec.v == dec.s
            assert determinant(dec.u) in (1, -1)
            assert determinant(dec.v) in (1, -1)
            nonzero = dec.nonzero_diagonal()
            for p, q in zip(nonzero, nonzero[1:]):
                assert q % p == 0
            oracle = invariant_factors_from_divisors(determinantal_divisors(a))
            assert list(nonzero) == oracle
        elapsed = time.perf_counter() - started
        assert elapsed <= 10.0, f"suite took {elapsed:.1f} s"


def test_criterion_2_cokernel_invariance():
    with criterion(2, "cokernel invariant under column moves on 100 random matrices"):
        rng = random.Random(0x5EED2)
        for _ in range(100):
            a = _random_matrix(rng, rng.randint(1, 6), rng.randint(2, 6))
            group = cokernel(a)
            reference = (group.rank, group.invariant_factors)

            def coker(columns):
                g = cokernel(IntMatrix.from_columns(columns, row_count=a.row_count))
                return (g.rank, g.invariant_factors)

            cols = list(a.transpose().rows)
            order = list(range(len(cols)))
            rng.shuffle(order)
            assert coker([cols[j] for j in order]) == reference

            j = rng.randrange(len(cols))
            negated = list(cols)
            negated[j] = tuple(-e for e in negated[j])
            assert coker(negated) == reference

            i, j = rng.sample(range(len(cols)), 2)
            added = list(cols)
            added[i] = tuple(p + q for p, q in zip(added[i], added[j]))
            assert coker(added) == reference

            assert coker(list(cols) + [(0,) * a.row_count]) == reference


def test_criterion_3_degree_zero_routes_agree():
    with criterion(3, "both degree-zero routes agree on 50 random valid models"):
        rng = random.Random(0x5EED3)
        for _ in range(50):
            m = parse_model(random_valid_model_document(rng))
            b, b0 = _b_and_b0(m)
            assert FGAbelianGroup(b0.rank + 1, b0.invariant_factors) == b


def test_criterion_4_irreducible_fiber():
    with criterion(4, "irreducible fixture: B(X) = Z, trivial kernel, index 1, tagged"):
        rep = report(_fixture_model("irreducible"))
        assert rep.b == FGAbelianGroup(1)
        assert rep.b0 == FGAbelianGroup(0)
        assert rep.index == 1
        assert rep.special_case == IRREDUCIBLE_FIBER

        r = run_cli("compute", "--json", str(fixture_path("irreducible")))
        assert r.returncode == 0
        doc = json.loads(r.stdout)
        assert doc["b"] == {"rank": 1, "torsion": []}
        assert doc["b0"] == {"rank": 0, "torsion": []}
        assert doc["index"] == 1
        assert doc["special_case"] == "irreducible-fiber"


def test_criterion_5_synthetic_torsion():
    with criterion(5, "synthetic-z2 fixture: degree-zero part Z/2 by both routes, oracle-checked"):
        m = _fixture_model("synthetic-z2")
        b, b0 = _b_and_b0(m)
        assert b0 == FGAbelianGroup(0, (2,))
        assert FGAbelianGroup(b0.rank + 1, b0.invariant_factors) == b

        # Oracle cross-checks: the full degree matrix presents Z + Z/2,
        # and the columns rewritten in the annihilator basis present Z/2.
        a = build_specialization_matrix(m)
        factors = invariant_factors_from_divisors(determinantal_divisors(a))
        assert [f for f in factors if f > 1] == [2]
        assert b == FGAbelianGroup(1, (2,))

        basis = hom_T_basis(xi_weights(m.orbits))
        rewritten = solve_in_lattice(basis, a)
        factors = invariant_factors_from_divisors(determinantal_divisors(rewritten))
        assert [f for f in factors if f > 1] == [2]
        assert rewritten.row_count - len(factors) == 0  # rank 0: pure torsion


def test_criterion_6_transcribed_table_handling():
    with criterion(6, "transcribed 7x10 table: strict refusal on 4 columns, formal cokernel (Z/2)^2"):
        path = str(fixture_path("example31"))
        m = _fixture_model("example31")

        # The four offending columns, recomputed from scratch.
        weights = xi_weights(m.orbits)
        assert weights.weights == (2, 2, 1, 1, 2, 2, 4)
        a = build_specialization_matrix(m)
        pairings = [
            sum(w * e for w, e in zip(weights.weights, column))
            for column in a.transpose().rows
        ]
        offending = [m.generators[j].name for j, p in enumerate(pairings) if p != 0]
        assert offending == ["c01", "c02", "c04", "c05"]

        r = run_cli("compute", "--strict", path)
        assert r.returncode == 1
        error_lines = [
            line
            for line in r.stderr.decode().splitlines()
            if line.startswith("ERROR")
        ]
        assert [line.split()[2].rstrip(":") for line in error_lines] == offending
        assert all("xi-orthogonality" in line for line in error_lines)

        # Permissive mode must emit the formal cokernel, equal to the
        # oracle's answer recomputed here (the authoritative route).
        divisors = determinantal_divisors(a)
        oracle_factors = invariant_factors_from_divisors(divisors)
        expected_b = FGAbelianGroup(
            rank=a.row_count - len(oracle_factors),
            invariant_factors=tuple(f for f in oracle_factors if f > 1),
        )
        assert expected_b == FGAbelianGroup(0, (2, 2))

        r = run_cli("compute", "--permissive", "--json", path)
        assert r.returncode == 0
        doc = json.loads(r.stdout)
        assert doc["b"] == {
            "rank": expected_b.rank,
            "torsion": list(expected_b.invariant_factors),
        }
        assert doc["formal_only"] is True
        # The published claim rides along as a recorded note, not a target.
        assert doc["expected"]["b0_rank"] == 0
        assert doc["expected"]["b0_torsion"] == [2]


def test_criterion_7_weight_arithmetic():
    with criterion(7, "weights of the seven-component fixture are (2,2,1,1,2,2,4)"):
        m = _fixture_model("example31")
        assert tuple(o.name for o in m.orbits) == ("A", "B", "C", "D", "R", "S", "M")
        assert xi_weights(m.orbits).weights == (2, 2, 1, 1, 2, 2, 4)


def test_criterion_8_end_to_end_determinism(tmp_path):
    with criterion(8, "every CLI command is byte-deterministic over every fixture"):
        matrix_files = {}
        for name in fixture_names():
            a = build_specialization_matrix(_fixture_model(name))
            path = tmp_path / f"{name}.matrix"
            path.write_text(format_matrix_text(a))
            matrix_files[name] = str(path)

        commands = []
        for name in fixture_names():
            model = str(fixture_path(name))
            commands += [
                ("validate", model),
                ("compute", model),
                ("compute", "--strict", model),
                ("compute", "--permissive", model),
                ("compute", "--json", model),
                ("compute", "--permissive", "--json", model),
                ("snf", matrix_files[name]),
                ("snf", matrix_files[name], "--check"),
                ("oracle", matrix_files[name]),
            ]
        for args in commands:
            first = run_cli(*args)
            second = run_cli(*args)
            assert (first.returncode, first.stdout, first.stderr) == (
                second.returncode,
                second.stdout,
                second.stderr,
            ), f"nondeterministic output for {args}"
