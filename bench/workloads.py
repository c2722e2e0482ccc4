"""Seeded inputs, operations and output checks for the four workloads.

Every input is a pure function of the seed.  The program under test only
sees the documents and matrix files written here; the expected answers
are derived on the benchmark's side from the generating data (the known
weights and degree columns) and from the determinantal-divisor oracle,
never from the code path being timed.

An op is one ``parse_model`` + ``report`` call for the in-process
workloads, and one ``chowfiber`` process for ``cli-fixtures``.  Each
workload cycles through a pool of distinct cases; the program keeps no
state between calls, so a repeated case costs what its first run cost.
A change that caches results across calls would gain from the repeats
alone, and needs a workload without them to show a real gain.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import shutil
import subprocess
import sys
from dataclasses import dataclass
from math import gcd
from pathlib import Path
from typing import Callable

from chowfiber import chow, cli, fiber_model
from chowfiber.exact_linalg import (
    ORACLE_SIZE_LIMIT,
    IntMatrix,
    determinantal_divisors,
    invariant_factors_from_divisors,
)
from chowfiber.fixtures import fixture_path
from chowfiber.galois import WeightVector, hom_T_basis

#: Degree columns are integer combinations of the annihilator basis with
#: coefficients in this range, as in the test suite's random models.
COEFF = 3

#: report-scale models per orbit count.  Op cost has a heavy tail from
#: coefficient swell, so p50 and p90 over a small pool depend on the
#: seed: at 50 models per n they moved by a quarter between seeds.  The
#: pool is as large as the oracle checks after the timed phase allow.
POOL_PER_N = 200


def valid_columns(rng: random.Random, weights: list[int], count: int) -> list[tuple[int, ...]]:
    """``count`` degree columns that satisfy the weighted-sum law exactly."""
    basis = hom_T_basis(WeightVector(tuple(weights)))
    return [
        basis.apply([rng.randint(-COEFF, COEFF) for _ in range(basis.col_count)])
        for _ in range(count)
    ]


def model_document(
    name: str,
    mults: list[int],
    sizes: list[int],
    columns: list[tuple[int, ...]],
    rng: random.Random,
) -> dict:
    orbit_names = [f"O{i}" for i in range(len(mults))]
    return {
        "name": name,
        "orbits": [
            {"name": o, "multiplicity": m, "size": s}
            for o, m, s in zip(orbit_names, mults, sizes)
        ],
        "generators": [
            {
                "name": f"g{j}",
                "host": rng.choice(orbit_names),
                "degrees": {o: e for o, e in zip(orbit_names, col) if e},
            }
            for j, col in enumerate(columns)
        ],
    }


def random_valid_model(rng: random.Random, n: int) -> tuple[dict, list[int], list[tuple[int, ...]]]:
    """A valid model with ``n`` orbits and ``n + 2`` generators."""
    mults = [rng.randint(1, 3) for _ in range(n)]
    sizes = [rng.randint(1, 3) for _ in range(n)]
    weights = [m * s for m, s in zip(mults, sizes)]
    columns = valid_columns(rng, weights, n + 2)
    return model_document(f"valid-{n}", mults, sizes, columns, rng), weights, columns


# ----------------------------------------------------------------------
# in-process workloads
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Case:
    """One model document and what the benchmark knows about its answer."""

    key: str
    text: str
    mode: str
    weights: tuple[int, ...]
    columns: tuple[tuple[int, ...], ...]


def _report_scale_docs(rng: random.Random) -> list[tuple[dict, str, list[int], list]]:
    """report-scale: strict report() on valid models, n orbits and n+2 generators.

    The columns are integer combinations of hom_T_basis.  exact_linalg.snf
    and solve_in_lattice on swollen transforms dominate, through both
    B(X)_0 routes.  The timed ops use n from 5 to 9, where every seed
    reports within a quarter second; from n = 10 on, a growing share of
    seeds falls off the SNF cliff (seconds per op), which the max_orbits
    probe reads instead.
    """
    # Five equal strata put the median op in the middle of the n = 7
    # stratum and p90 in the middle of n = 9, not on a boundary between
    # strata, where a seed could tip it either way.
    docs = []
    for _ in range(POOL_PER_N):
        for n in range(5, 10):
            doc, weights, columns = random_valid_model(rng, n)
            docs.append((doc, chow.STRICT, weights, columns))
    return docs


def _formal_cokernel_docs(rng: random.Random) -> list[tuple[dict, str, list[int], list]]:
    """formal-cokernel: permissive report() on models whose columns break the law.

    n runs from 4 to 10 with small random columns.  Each op makes one
    cokernel, with no lattice solves and no B(X)_0 routes, so it uses the
    SNF differently from report-scale: extra work put into every snf to
    make solves cheaper must show its cost here.
    """
    docs = []
    for _ in range(96):
        for n in range(4, 11):
            mults = [rng.randint(1, 3) for _ in range(n)]
            sizes = [rng.randint(1, 3) for _ in range(n)]
            weights = [m * s for m, s in zip(mults, sizes)]
            while True:
                columns = [
                    tuple(rng.randint(-COEFF, COEFF) for _ in range(n)) for _ in range(n + 2)
                ]
                if any(sum(w * e for w, e in zip(weights, c)) for c in columns):
                    break
            doc = model_document(f"formal-{n}", mults, sizes, columns, rng)
            docs.append((doc, chow.PERMISSIVE, weights, columns))
    return docs


def _wide_fiber_docs(rng: random.Random) -> list[tuple[dict, str, list[int], list]]:
    """wide-fiber: parse_model + report() on a few orbits with large fibers.

    Half the documents carry geometric sections of 1-3k components, half
    declare orbit sizes around 10^5 with no geometric section.  Parsing,
    validation and galois.orbits dominate and the linear algebra is light;
    without this workload fiber_model and galois would go unmeasured, and
    the two halves separate a geometric-parse fix from a member-name fix.
    """
    # Fixed sizes keep the mix (and so the medians) the same across
    # seeds: component totals step evenly over 1k-3k, and every pool
    # holds declared-size documents with 3, 4 and 5 orbits.
    docs = []
    for j in range(12):
        k = 3 + j % 3
        mults = [rng.randint(1, 3) for _ in range(k)]

        total = 1000 + 2000 * j // 11
        cuts = sorted(rng.sample(range(1, total), k - 1))
        sizes = [b - a for a, b in zip([0, *cuts], [*cuts, total])]
        weights = [m * s for m, s in zip(mults, sizes)]
        columns = valid_columns(rng, weights, k + 1)
        doc = model_document(f"geometric-{total}", mults, sizes, columns, rng)
        components: list[str] = []
        frobenius: list[str] = []
        orbit_of: dict[str, str] = {}
        for i, size in enumerate(sizes):
            names = [f"O{i}.c{c}" for c in range(size)]
            components += names
            frobenius += names[1:] + names[:1]
            orbit_of.update((c, f"O{i}") for c in names)
        first = doc["generators"][0]
        doc["geometric"] = {
            "components": components,
            "frobenius": frobenius,
            "orbit_of": orbit_of,
            "degrees": {
                first["name"]: {c: first["degrees"].get(orbit_of[c], 0) for c in components}
            },
        }
        docs.append((doc, chow.STRICT, weights, columns))

        sizes = [rng.randint(95_000, 105_000) for _ in range(k)]
        weights = [m * s for m, s in zip(mults, sizes)]
        columns = valid_columns(rng, weights, k + 1)
        doc = model_document(f"declared-{sum(sizes)}", mults, sizes, columns, rng)
        docs.append((doc, chow.STRICT, weights, columns))
    return docs


_IN_PROCESS = {
    "report-scale": _report_scale_docs,
    "formal-cokernel": _formal_cokernel_docs,
    "wide-fiber": _wide_fiber_docs,
}


def make_cases(workload: str, seed: int, workdir: Path) -> list[Case]:
    """Generate the pool, write the documents (one per line), and read them back."""
    rng = random.Random(f"{workload}:{seed}")
    generated = _IN_PROCESS[workload](rng)
    path = workdir / "cases.jsonl"
    path.write_text("".join(json.dumps(doc) + "\n" for doc, *_ in generated), encoding="utf-8")
    texts = path.read_text(encoding="utf-8").splitlines()
    return [
        Case(
            key=f"case{i:03d}",
            text=text,
            mode=mode,
            weights=tuple(weights),
            columns=tuple(tuple(c) for c in columns),
        )
        for i, (text, (_doc, mode, weights, columns)) in enumerate(zip(texts, generated))
    ]


def run_case(case: Case) -> tuple:
    """One op: parse the document and report it.  Returns a comparable summary."""
    rep = chow.report(fiber_model.parse_model(case.text), case.mode)
    b0 = None if rep.b0 is None else (rep.b0.rank, rep.b0.invariant_factors)
    return (
        rep.b.rank,
        rep.b.invariant_factors,
        b0,
        rep.index,
        rep.formal_only,
        rep.special_case,
    )


def check_case(case: Case, summary: tuple) -> str | None:
    """Why ``summary`` is wrong for ``case``, or None when it is right."""
    b_rank, b_torsion, b0, index, formal_only, _special = summary
    rows, cols = len(case.weights), len(case.columns)
    if case.mode == chow.PERMISSIVE:
        if not formal_only or b0 is not None or index is not None:
            return "law-breaking model was not reported as a formal cokernel"
    else:
        if formal_only or b0 is None:
            return "valid model was reported as formal"
        if index != gcd(*case.weights):
            return f"index {index}, expected gcd of weights {gcd(*case.weights)}"
        if b0 != (b_rank - 1, b_torsion):
            return f"B(X)_0 {b0} is not a corank-one subgroup of B(X) with its torsion"
    if min(rows, cols) <= ORACLE_SIZE_LIMIT:
        matrix = IntMatrix.from_columns(case.columns, row_count=rows)
        factors = invariant_factors_from_divisors(determinantal_divisors(matrix))
        expected = (rows - len(factors), tuple(f for f in factors if f >= 2))
        if (b_rank, b_torsion) != expected:
            return f"B(X) {(b_rank, b_torsion)}, oracle gives {expected}"
    return None


# ----------------------------------------------------------------------
# cli-fixtures
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Command:
    key: str
    argv: tuple[str, ...]
    exit_code: int
    check: Callable[[str], bool]


def _json_is(**fields) -> Callable[[str], bool]:
    def check(stdout: str) -> bool:
        doc = json.loads(stdout)
        return all(doc[k] == v for k, v in fields.items())

    return check


def _has_lines(*lines: str) -> Callable[[str], bool]:
    return lambda stdout: all(line in stdout.splitlines() for line in lines)


def _random_matrix(rng: random.Random) -> IntMatrix:
    rows, cols = rng.randint(3, 6), rng.randint(3, 7)
    return IntMatrix.from_rows(
        [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)], col_count=cols
    )


def make_commands(seed: int, workdir: Path) -> list[Command]:
    """cli-fixtures: copy the fixtures, write small matrix files, list the commands.

    compute (text and --json, strict and permissive) and validate on the
    five bundled fixtures, plus snf --check and oracle on the generated
    matrices; each op is a fresh process.  Interpreter start, import and
    rendering dominate and the linear algebra costs next to nothing, so
    this workload shows startup changes and predicts no change from SNF
    work.
    """
    rng = random.Random(f"cli-fixtures:{seed}")
    path = {}
    for name in ("trivial", "irreducible", "split-orbit", "synthetic-z2", "example31"):
        path[name] = str(workdir / f"{name}.json")
        shutil.copyfile(fixture_path(name), path[name])
    z2, split, irr = path["synthetic-z2"], path["split-orbit"], path["irreducible"]
    triv, ex31 = path["trivial"], path["example31"]
    b = lambda rank, torsion: {"rank": rank, "torsion": torsion}  # noqa: E731
    commands = [
        Command("z2", ("compute", z2), 0, _has_lines("B(X)   = Z ⊕ Z/2", "B(X)_0 = Z/2")),
        Command("z2-json", ("compute", "--json", z2), 0,
                _json_is(b=b(1, [2]), b0=b(0, [2]), index=1)),
        Command("split", ("compute", split), 0, _has_lines("index  = 2")),
        Command("split-json", ("compute", "--json", split), 0,
                _json_is(b=b(1, []), index=2, special_case=None)),
        Command("irr", ("compute", "--strict", irr), 0,
                _has_lines("special case: irreducible fiber")),
        Command("irr-json", ("compute", "--json", irr), 0,
                _json_is(b=b(1, []), b0=b(0, []), special_case="irreducible-fiber")),
        Command("trivial-json", ("compute", "--json", triv), 0,
                _json_is(b=b(1, []), b0=b(0, []), special_case="irreducible-fiber")),
        Command("ex31", ("compute", ex31), 1, lambda out: out == ""),
        Command("ex31-json", ("compute", "--strict", "--json", ex31), 1, lambda out: out == ""),
        Command("ex31-perm", ("compute", "--permissive", ex31), 0,
                _has_lines("B(X)   = Z/2 ⊕ Z/2")),
        Command("ex31-perm-json", ("compute", "--permissive", "--json", ex31), 0,
                _json_is(b=b(0, [2, 2]), b0=None, formal_only=True)),
    ]
    for name in path:
        errors = 4 if name == "example31" else 0
        commands.append(
            Command(
                f"validate-{name}",
                ("validate", path[name]),
                1 if errors else 0,
                lambda out, errors=errors: sum(
                    line.startswith("ERROR xi-orthogonality") for line in out.splitlines()
                ) == errors,
            )
        )
    for i in range(4):
        matrix = _random_matrix(rng)
        mpath = workdir / f"matrix{i}.txt"
        mpath.write_text(
            f"{matrix.row_count} {matrix.col_count}\n"
            + "".join(" ".join(map(str, row)) + "\n" for row in matrix.rows),
            encoding="utf-8",
        )
        divisors = determinantal_divisors(matrix)
        factors = invariant_factors_from_divisors(divisors)
        rendered = " ".join(map(str, factors)) or "(none)"
        snf_out = f"rank {len(factors)}; invariant factors: {rendered}\ncheck: ok\n"
        oracle_out = f"determinantal divisors: {' '.join(map(str, divisors))}\n"
        commands.append(
            Command(f"snf{i}", ("snf", "--check", str(mpath)), 0,
                    lambda out, want=snf_out: out == want)
        )
        commands.append(
            Command(f"oracle{i}", ("oracle", str(mpath)), 0,
                    lambda out, want=oracle_out: out == want)
        )
    return commands


def child_env(src: Path) -> dict[str, str]:
    """Environment of every child: the checkout's sources, with bytecode cached.

    An installed package runs from cached bytecode, so children may write
    it whatever the inherited environment says.
    """
    env = dict(os.environ, PYTHONPATH=str(src), CHOWFIBER_COLOR="never")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_command_child(command: Command, env: dict[str, str], limit_s: float) -> tuple[int, str]:
    """One op: a fresh ``python -m chowfiber`` process.  Raises on timeout."""
    proc = subprocess.run(
        [sys.executable, "-m", "chowfiber", *command.argv],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        timeout=limit_s,
    )
    return proc.returncode, proc.stdout.decode("utf-8")


def run_command_in_process(command: Command) -> tuple[int, str]:
    """The same command through ``cli.main`` in this process, output captured."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(command.argv))
    return code, out.getvalue()


def check_command(command: Command, outcome: tuple[int, str]) -> str | None:
    code, stdout = outcome
    if code != command.exit_code:
        return f"exit code {code}, expected {command.exit_code}"
    return None if command.check(stdout) else f"unexpected output {stdout[:200]!r}"
