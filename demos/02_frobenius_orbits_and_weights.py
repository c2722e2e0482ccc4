"""Frobenius orbits of fiber components and the weight vector.

The residual Galois group acts on the geometric components of the
special fiber through a single permutation (Frobenius).  Orbits are the
components defined over the base residue field; each orbit weighs
``multiplicity * size`` against the fiber class.
"""

from chowfiber import ComponentOrbit, hom_T_basis, orbits, xi_weights

print("A five-element component set where Frobenius swaps two pairs:")
for cycle in orbits(
    ground_set=("A1", "A2", "B1", "B2", "C"),
    frobenius=("A2", "A1", "B2", "B1", "C"),
):
    print("  orbit:", cycle)

print("\nThe seven-component configuration used throughout the fixtures:")
# An orbit is a name, a size (how many conjugate components) and a multiplicity.
seven = [
    ComponentOrbit("A", 2, 1),
    ComponentOrbit("B", 2, 1),
    ComponentOrbit("C", 1, 1),
    ComponentOrbit("D", 1, 1),
    ComponentOrbit("R", 2, 1),
    ComponentOrbit("S", 2, 1),
    ComponentOrbit("M", 2, 2),
]
weights = xi_weights(seven)
print("equivariant character lattice rank (one per orbit):", len(weights.weights))
print("weights (multiplicity x size):", weights.weights)
print("total fiber multiplicity:", sum(weights.weights))
print("index of the degree image:", weights.image_index())

print("\nCharacters annihilating the fiber class (a saturated corank-one lattice):")
basis = hom_T_basis(weights)
print(f"{basis.col_count} basis columns; each pairs to 0 against the weights:")
for col in basis.transpose().rows:
    pairing = sum(w * e for w, e in zip(weights.weights, col))
    print(f"  {col}  ->  {pairing}")
