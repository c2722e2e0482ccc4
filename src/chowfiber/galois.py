"""Frobenius orbits on fiber components and the equivariant character lattice.

Over the maximal unramified extension the special fiber breaks into
geometric components; the residual Galois group is topologically
generated by Frobenius, and since the component set is finite the whole
action is a single permutation.  Its orbits are the components defined
over the base residue field.

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

from math import gcd
from typing import Iterable, Sequence

from ._value import Value
from .exact_linalg import IntMatrix, int_text, integer_kernel


class PermutationAction(Value):
    """A finite set with a single permutation acting on it.

    ``ground_set`` lists distinct component identifiers; ``frobenius``
    is the image list, aligned index by index.
    """

    __slots__ = ("ground_set", "frobenius")
    ground_set: tuple[str, ...]
    frobenius: tuple[str, ...]

    def __init__(self, ground_set: Iterable[str], frobenius: Iterable[str]) -> None:
        ground_set = tuple(ground_set)
        frobenius = tuple(frobenius)
        if not ground_set:
            raise ValueError("ground set must be non-empty")
        if len(set(ground_set)) != len(ground_set):
            raise ValueError("ground set identifiers must be distinct")
        if len(frobenius) != len(ground_set):
            raise ValueError("frobenius image list must match the ground set length")
        if set(frobenius) != set(ground_set):
            raise ValueError("frobenius must be a bijection of the ground set")
        object.__setattr__(self, "ground_set", ground_set)
        object.__setattr__(self, "frobenius", frobenius)

    def image_of(self, element: str) -> str:
        return self.frobenius[self.ground_set.index(element)]


def orbits(action: PermutationAction) -> list[list[str]]:
    """Partition the ground set into Frobenius cycles.

    Orbits appear in order of first appearance in the ground set, and
    each orbit is listed in cycle order starting from its first element;
    the output is therefore deterministic.
    """
    image = dict(zip(action.ground_set, action.frobenius))
    seen: set[str] = set()
    result: list[list[str]] = []
    for start in action.ground_set:
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
        if multiplicity < 1:
            raise ValueError(f"multiplicity must be >= 1, got {int_text(multiplicity)}")
        if size < 1:
            raise ValueError(f"size must be >= 1, got {int_text(size)}")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "multiplicity", multiplicity)


class WeightVector(Value):
    """Values of the fiber-class pairing on the orbit basis, in orbit order."""

    __slots__ = ("weights",)
    weights: tuple[int, ...]

    def __init__(self, weights: Iterable[int]) -> None:
        weights = tuple(int(w) for w in weights)
        if any(w < 1 for w in weights):
            raise ValueError("weights must be positive")
        object.__setattr__(self, "weights", weights)

    def __len__(self) -> int:
        return len(self.weights)

    def total(self) -> int:
        """Total multiplicity of the fiber: the sum over geometric components."""
        return sum(self.weights)

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
    exactly ``len(w) - 1`` columns.
    """
    return integer_kernel(IntMatrix.from_rows([w.weights]))
