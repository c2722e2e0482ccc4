"""The full pipeline: from a fiber model to the zero-cycle class group.

Under the asserted hypotheses, the quotient B(X) of the equivariant
character lattice by the degree columns is the group of zero-cycles
modulo rational equivalence on the generic fiber, the induced character
is the degree map, and its kernel B(X)_0 is the degree-zero part.  The
degree-zero part is computed by two independent routes that must agree:
off the Smith diagonal of B(X), and as the quotient of Z^n by the
degree columns and one Bézout vector of the weights, which splits Z^n
into the kernel of the weights and one line.
"""

from chowfiber import (
    FGAbelianGroup,
    build_specialization_matrix,
    compute_b0,
    compute_xi_bar,
    parse_model,
    report,
    snf,
    xi_weights,
)
from chowfiber.fixtures import fixture_path

print("== synthetic-z2: the smallest model with torsion ==")
model = parse_model(fixture_path("synthetic-z2").read_text())
degrees = build_specialization_matrix(model)
dec = snf(degrees)
b = FGAbelianGroup.quotient(degrees.row_count, dec.nonzero_diagonal())
print("B(X) =", b)

weights = xi_weights(model.orbits)
print("degree character on the canonical generators:", compute_xi_bar(weights, dec))
print("index of its image in Z:", weights.image_index())

# The degree maps B(X) onto index·Z, so B(X) = Z ⊕ B(X)_0.
route_smith = FGAbelianGroup(b.rank - 1, b.invariant_factors)
route_quotient = compute_b0(weights, degrees)
print("degree-zero part, Smith diagonal:", route_smith)
print("degree-zero part, quotient route:", route_quotient)
print("routes agree:", route_smith == route_quotient)

print("\n== split-orbit: irreducible over k, split over its closure ==")
rep = report(parse_model(fixture_path("split-orbit").read_text()))
print("B(X) =", rep.b, "| B(X)_0 =", rep.b0, "| index =", rep.index)
print("special case tag:", rep.special_case)
print("With one orbit of size 2 every zero-cycle has even degree: the")
print("index is 2 even though the group itself is just Z.")

print("\n== irreducible: the good-degeneration case ==")
rep = report(parse_model(fixture_path("irreducible").read_text()))
print("B(X) =", rep.b, "| B(X)_0 =", rep.b0, "| index =", rep.index)
print("special case tag:", rep.special_case)
print("A single multiplicity-one geometric component forces every degree")
print("column to vanish, so the degree map is an isomorphism onto Z.")
