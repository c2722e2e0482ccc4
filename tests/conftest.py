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


def reverse_local_valuations_at_3(monkeypatch):
    """Make the local route read its valuations at 3 in reverse order.

    On :data:`ABC_DOCUMENT` its factors then break the divisibility chain.
    """
    honest = exact_linalg._local_valuations

    def reversed_at_3(a, p, k, r):
        valuations = honest(a, p, k, r)
        return valuations[::-1] if p == 3 else valuations

    monkeypatch.setattr(exact_linalg, "_local_valuations", reversed_at_3)


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
