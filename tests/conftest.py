from chowfiber.galois import WeightVector, hom_T_basis


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
