import importlib.util
import sys
from pathlib import Path

from chowfiber import exact_linalg
from chowfiber.exact_linalg import IntMatrix
from chowfiber.galois import WeightVector, hom_T_basis

#: Three single-component orbits of multiplicity one; B(X) = Z + Z/2 + Z/6.
ABC_DOCUMENT = {
    "name": "abc",
    "orbits": [{"name": n, "multiplicity": 1, "size": 1} for n in "ABC"],
    "generators": [
        {"name": "g", "host": "A", "degrees": {"A": 2, "B": -2}},
        {"name": "h", "host": "B", "degrees": {"B": 6, "C": -6}},
    ],
}

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_bench_module(monkeypatch, name):
    """Load ``bench/<name>.py`` for one test, without writing bytecode next to it."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(f"_bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses looks the defining module up in sys.modules.
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def identity(n):
    """The n-by-n identity matrix."""
    return IntMatrix.from_rows([[int(i == j) for j in range(n)] for i in range(n)], col_count=n)


def zeros(row_count, col_count):
    """The row_count-by-col_count zero matrix."""
    return IntMatrix.from_rows([[0] * col_count] * row_count, col_count=col_count)


def diagonal_matrix(row_count, col_count, diagonal):
    """The row_count-by-col_count matrix with ``diagonal`` leading its diagonal, zeros elsewhere."""
    rows = [[0] * col_count for _ in range(row_count)]
    for i, d in enumerate(diagonal):
        rows[i][i] = d
    return IntMatrix.from_rows(rows, col_count=col_count)


def row_first_log(log):
    """A Smith log with every addition its own entry, in the order the log pins were taken in.

    Each batch becomes its single additions, ``("add row", src, dst, f)``
    or ``("add column", src, dst, f)``.  ``snf`` logs a round's column
    batch before its row batch; the two phases commute, and the pins were
    taken from an elimination that logged the row additions first, so
    an ``add columns`` batch followed by an ``add rows`` batch from the
    same source is written rows first.
    """
    entries = list(log)
    k = 0
    while k < len(entries) - 1:
        first, second = entries[k], entries[k + 1]
        if first[0] == "add columns" and second[0] == "add rows" and first[1] == second[1]:
            entries[k], entries[k + 1] = second, first
            k += 1
        k += 1
    flat = []
    for op in entries:
        if op[0] in ("add rows", "add columns"):
            flat += [(op[0][:-1], op[1], dst, f) for dst, f in op[2]]
        else:
            flat.append(op)
    return tuple(flat)


def misbatched_neighbours(log):
    """The adjacent batches from one source that ``snf`` logs otherwise.

    Two batches of one kind could be one batch, and a row batch followed
    by a column batch breaks the column-first order of a round.
    """
    batches = ("add rows", "add columns")
    return [
        (x, y) for x, y in zip(log, log[1:])
        if x[0] in batches and y[0] in batches and x[1] == y[1]
        and (x[0] == y[0] or x[0] == "add rows")
    ]


def halve_the_minor_gcd(monkeypatch):
    """Make the Bareiss pass report half the minor gcd it finds.

    On :data:`ABC_DOCUMENT` the quotient route's matrix has minor gcd 12,
    so the local route then sees 6, which its factors (2, 6) do not divide.
    """
    honest = exact_linalg._rank_and_minor

    def halved(a):
        rank, minor, g = honest(a)
        return rank, minor, g // 2

    monkeypatch.setattr(exact_linalg, "_rank_and_minor", halved)


def unimodular_product(rng, rows, cols, diagonal):
    """``u @ diag(diagonal) @ v`` for seeded random unimodular ``u`` and ``v``.

    ``diag(diagonal)`` is rows-by-cols with ``diagonal`` (at most
    min(rows, cols) entries) leading its diagonal and zeros elsewhere.
    ``u`` and ``v`` are products of elementary operations, each adding
    ±1 or ±2 times one line to another or swapping two lines, applied to
    the matrix directly.  The invariant factors of the product are those
    of ``diag(diagonal)``: ``diagonal`` itself, with its zeros dropped,
    when it is a divisibility chain.
    """
    a = [[0] * cols for _ in range(rows)]
    for i, d in enumerate(diagonal):
        a[i][i] = d
    for _ in range(4 * (rows + cols)):
        by_rows = rng.random() < 0.5
        count = rows if by_rows else cols
        if count < 2:
            continue
        i, j = rng.sample(range(count), 2)
        swap, f = rng.random() < 0.2, rng.choice((-2, -1, 1, 2))
        if by_rows:
            a[i], a[j] = (a[j], a[i]) if swap else (a[i], [p + f * q for p, q in zip(a[j], a[i])])
        else:
            for r in a:
                r[i], r[j] = (r[j], r[i]) if swap else (r[i], r[j] + f * r[i])
    return IntMatrix.from_rows(a, col_count=cols)


def random_valid_model_document(
    rng, max_orbits=5, max_generators=4, orbit_count=None, generator_count=None
):
    """A random model document that passes validation by construction.

    Orbit multiplicities and sizes are random; every generator column is
    a random integer combination of the saturated annihilator basis of
    the weights, so the weighted-sum law holds exactly.  ``orbit_count``
    and ``generator_count`` fix the shape instead of drawing it.
    """
    if orbit_count is None:
        orbit_count = rng.randint(1, max_orbits)
    orbits = [
        {
            "name": f"O{i}",
            "multiplicity": rng.randint(1, 3),
            "size": rng.randint(1, 3),
        }
        for i in range(orbit_count)
    ]
    weights = WeightVector(tuple(o["multiplicity"] * o["size"] for o in orbits))
    basis = hom_T_basis(weights)
    generators = []
    if generator_count is None:
        generator_count = rng.randint(0, max_generators)
    for gi in range(generator_count):
        coeffs = [rng.randint(-3, 3) for _ in range(basis.col_count)]
        column = basis.apply(coeffs)
        generators.append(
            {
                "name": f"g{gi}",
                "host": orbits[rng.randrange(orbit_count)]["name"],
                "degrees": {
                    orbits[i]["name"]: column[i]
                    for i in range(orbit_count)
                    if column[i]
                },
            }
        )
    return {"name": "random-valid", "orbits": orbits, "generators": generators}


def known_answer_model_document(rng, orbit_count, index, diagonal):
    """A valid model whose groups are known without ``snf`` or the oracle.

    Orbit i has size 1 and multiplicity ``index * w[i]`` with ``w[0] = 1``,
    so the weights are ``index * w`` and the columns ``e_j - w[j] * e_0``
    (j >= 1) form a saturated basis K of their kernel; K extends to the
    unimodular basis (e_0, K) of Z^n.  The n + 2 generator columns are
    ``D = K @ M`` with ``M = unimodular_product(rng, n - 1, n + 2,
    diagonal)``, so B(X) = Z + coker(M), B(X)_0 = coker(M), the index is
    ``index`` and the canonical degree character holds ``index`` at
    position rank(M).  ``diagonal`` is a divisibility chain of at most
    n - 1 positive entries.

    Returns the document and the expected ``(b, b0, xi_on_generators)``.
    """
    n = orbit_count
    w = [1] + [rng.randint(1, 9) for _ in range(n - 1)]
    m = unimodular_product(rng, n - 1, n + 2, diagonal)
    orbits = [{"name": f"O{i}", "multiplicity": index * w[i], "size": 1} for i in range(n)]
    generators = []
    for g, coeffs in enumerate(zip(*m.rows)):
        column = (-sum(wj * c for wj, c in zip(w[1:], coeffs)), *coeffs)
        generators.append(
            {
                "name": f"g{g}",
                "host": f"O{rng.randrange(n)}",
                "degrees": {f"O{i}": e for i, e in enumerate(column) if e},
            }
        )
    document = {"name": "known-answer", "orbits": orbits, "generators": generators}
    factors = tuple(d for d in diagonal if d >= 2)
    r = len(diagonal)
    expected = (
        exact_linalg.FGAbelianGroup(n - r, factors),
        exact_linalg.FGAbelianGroup(n - 1 - r, factors),
        (0,) * r + (index,) + (0,) * (n - r - 1),
    )
    return document, expected
