"""Frobenius orbits on fiber components and the equivariant character lattice.

Over the maximal unramified extension the special fiber breaks into
geometric components; the residual Galois group is topologically
generated by Frobenius, and since the component set is finite the whole
action is a single permutation.  Its orbits are the components defined
over the base residue field, and they are all the package keeps of it:
:func:`orbits` checks an image list and cuts it into cycles.

A homomorphism from the free module on the geometric components to Z is
Galois-equivariant exactly when it is constant on orbits, so the
equivariant character lattice is free on the orbits, with basis vector
``b_Y`` sending the components of orbit Y to 1 and everything else to 0.

Pairing ``b_Y`` against the fiber class (the formal sum of components
weighted by multiplicity) gives the weight ``multiplicity * orbit size``.
That weight is all an orbit contributes, so :class:`ComponentOrbit` holds
a name, a size and a multiplicity, and never the components' names.
The characters annihilating the fiber class form a corank-one sublattice;
:func:`hom_T_basis` returns a saturated basis for it.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from math import gcd
from operator import index

from ._value import Value
from .exact_linalg import IntMatrix, int_text, integer_kernel


def orbits(ground_set: Sequence[str], frobenius: Sequence[str]) -> list[list[str]]:
    """Check that ``frobenius`` permutes ``ground_set`` and cut it into cycles.

    ``ground_set`` lists distinct component identifiers; ``frobenius``
    is the image list, aligned index by index.  :class:`ValueError` is
    raised, in this order, for an empty ground set, a repeated
    identifier, an image list of another length, and an image list that
    is not a bijection of the ground set.

    Orbits appear in order of first appearance in the ground set, and
    each orbit is listed in cycle order starting from its first element;
    the output is therefore deterministic.
    """
    if not ground_set:
        raise ValueError("ground set must be non-empty")
    if len(set(ground_set)) != len(ground_set):
        raise ValueError("ground set identifiers must be distinct")
    if len(frobenius) != len(ground_set):
        raise ValueError("frobenius image list must match the ground set length")
    if set(frobenius) != set(ground_set):
        raise ValueError("frobenius must be a bijection of the ground set")
    image = dict(zip(ground_set, frobenius))
    seen: set[str] = set()
    result: list[list[str]] = []
    for start in ground_set:
        if start in seen:
            continue
        cycle = [start]
        seen.add(start)
        x = image[start]
        while x != start:
            cycle.append(x)
            seen.add(x)
            x = image[x]
        result.append(cycle)
    return result


class ComponentOrbit(Value):
    """One Frobenius orbit: its name, its number of geometric components,
    and their multiplicity.

    Conjugate components share their multiplicity in the fiber, so it is
    a property of the orbit.
    """

    __slots__ = ("name", "size", "multiplicity")
    name: str
    size: int
    multiplicity: int

    def __init__(self, name: str, size: int, multiplicity: int) -> None:
        size, multiplicity = index(size), index(multiplicity)
        if multiplicity < 1:
            raise ValueError(f"multiplicity must be >= 1, got {int_text(multiplicity)}")
        if size < 1:
            raise ValueError(f"size must be >= 1, got {int_text(size)}")
        Value.__init__(self, name, size, multiplicity)


class WeightVector(Value):
    """Values of the fiber-class pairing on the orbit basis, in orbit order."""

    __slots__ = ("weights",)
    weights: tuple[int, ...]

    def __init__(self, weights: Iterable[int]) -> None:
        weights = tuple(map(index, weights))
        if any(w < 1 for w in weights):
            raise ValueError("weights must be positive")
        Value.__init__(self, weights)

    def image_index(self) -> int:
        """The positive generator of the subgroup of Z the weights generate."""
        return gcd(*self.weights)


def xi_weights(orbit_list: Sequence[ComponentOrbit]) -> WeightVector:
    """Weight of each orbit under the fiber-class pairing: multiplicity times size."""
    return WeightVector(tuple(o.multiplicity * o.size for o in orbit_list))


def hom_T_basis(w: WeightVector) -> IntMatrix:
    """Saturated basis of the characters annihilating the fiber class.

    Returns a matrix with one row per orbit whose columns span
    ``{h : sum_Y w_Y h_Y == 0}``.  Weights are positive, so there are
    exactly ``len(w.weights) - 1`` columns.
    """
    return integer_kernel(IntMatrix.from_rows([w.weights]))
