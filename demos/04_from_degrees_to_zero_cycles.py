"""The full pipeline: from a fiber model to the zero-cycle class group.

Under the asserted hypotheses, the quotient B(X) of the equivariant
character lattice by the degree columns is the group of zero-cycles
modulo rational equivalence on the generic fiber, the induced character
is the degree map, and its kernel B(X)_0 is the degree-zero part.  The
degree-zero part is computed by two independent routes that must agree.
"""

from chowfiber import (
    build_specialization_matrix,
    cokernel,
    compute_b0,
    compute_xi_bar,
    parse_model,
    report,
    xi_weights,
)
from chowfiber.fixtures import fixture_path

print("== synthetic-z2: the smallest model with torsion ==")
model = parse_model(fixture_path("synthetic-z2").read_text())
presentation = cokernel(build_specialization_matrix(model))
print("B(X) =", presentation.group)

weights = xi_weights(model.orbits)
values = compute_xi_bar(weights, presentation)
print("degree character on the canonical generators:", values)
print("index of its image in Z:", weights.image_index())

both = compute_b0(weights, presentation, values)
print("degree-zero part, quotient route:", both.route_quotient)
print("degree-zero part, kernel route:  ", both.route_kernel)
print("routes agree:", both.agree())

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
