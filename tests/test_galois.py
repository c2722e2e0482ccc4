import hypothesis.strategies as st
import pytest
from hypothesis import given

from chowfiber.exact_linalg import IntMatrix, solve_in_lattice
from chowfiber.galois import (
    ComponentOrbit,
    WeightVector,
    hom_T_basis,
    orbits,
    xi_weights,
)


def permutations(max_size=8):
    """A ground set and a Frobenius image list that permutes it."""

    def build(n):
        ground = tuple(f"z{i}" for i in range(n))
        return st.permutations(ground).map(lambda images: (ground, tuple(images)))

    return st.integers(1, max_size).flatmap(build)


class TestPermutationAction:
    """``orbits`` refuses an image list that is not a permutation."""

    def test_rejects_empty_ground_set(self):
        with pytest.raises(ValueError):
            orbits((), ())

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            orbits(("a", "a"), ("a", "a"))

    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            orbits(("a", "b"), ("a", "a"))


class TestOrbits:
    def test_transposition_and_fixed_point(self):
        assert orbits(("a", "b", "c"), ("b", "a", "c")) == [["a", "b"], ["c"]]

    def test_identity_gives_singletons(self):
        assert orbits(("a", "b", "c"), ("a", "b", "c")) == [["a"], ["b"], ["c"]]

    def test_single_cycle(self):
        assert orbits(("a", "b", "c"), ("b", "c", "a")) == [["a", "b", "c"]]

    @given(permutations())
    def test_orbits_partition_the_ground_set(self, action):
        ground, images = action
        parts = orbits(ground, images)
        flattened = [x for part in parts for x in part]
        assert sorted(flattened) == sorted(ground)
        assert len(set(flattened)) == len(flattened)

    @given(permutations())
    def test_orbits_are_frobenius_stable(self, action):
        image = dict(zip(*action))
        for part in orbits(*action):
            assert {image[x] for x in part} == set(part)

    @given(permutations())
    def test_orbit_order_is_first_appearance(self, action):
        ground, images = action
        firsts = [part[0] for part in orbits(ground, images)]
        positions = [ground.index(x) for x in firsts]
        assert positions == sorted(positions)


def _orbit(name, size, multiplicity):
    return ComponentOrbit(name=name, size=size, multiplicity=multiplicity)


# Orbit data of the seven-component fixture: multiplicity 1 throughout
# except M, and only C and D geometrically irreducible.
SEVEN_COMPONENT_ORBITS = [
    _orbit("A", 2, 1),
    _orbit("B", 2, 1),
    _orbit("C", 1, 1),
    _orbit("D", 1, 1),
    _orbit("R", 2, 1),
    _orbit("S", 2, 1),
    _orbit("M", 2, 2),
]


class TestComponentOrbit:
    def test_fields_are_name_size_multiplicity(self):
        orbit = ComponentOrbit("Y", 3, 2)
        assert (orbit.name, orbit.size, orbit.multiplicity) == ("Y", 3, 2)
        assert list(ComponentOrbit.__slots__) == ["name", "size", "multiplicity"]

    @pytest.mark.parametrize("size, multiplicity", [(0, 1), (-1, 1), (1, 0), (1, -2)])
    def test_rejects_size_or_multiplicity_below_one(self, size, multiplicity):
        with pytest.raises(ValueError, match=">= 1"):
            ComponentOrbit("Y", size, multiplicity)

    def test_huge_size_is_just_a_number(self):
        assert xi_weights([ComponentOrbit("Y", 10**30, 3)]).weights == (3 * 10**30,)

    def test_messages_name_the_law_and_the_value(self):
        with pytest.raises(ValueError, match=r"^multiplicity must be >= 1, got -7$"):
            ComponentOrbit("Y", 1, -7)
        with pytest.raises(ValueError, match=r"^size must be >= 1, got 0$"):
            ComponentOrbit("Y", 0, 1)
        # Multiplicity is tested first, as the document parser did.
        with pytest.raises(ValueError, match=r"^multiplicity must be >= 1, got 0$"):
            ComponentOrbit("Y", 0, 0)
        # The value is written in full past the interpreter's digit limit.
        with pytest.raises(ValueError, match=r"got -10{5000}$"):
            ComponentOrbit("Y", -(10**5000), 1)


class TestWeights:
    def test_invariant_hom_rank(self):
        # One equivariant character per orbit, hence one weight per orbit.
        assert len(xi_weights(SEVEN_COMPONENT_ORBITS).weights) == 7
        assert len(xi_weights([_orbit("Y", 1, 1)]).weights) == 1
        assert len(xi_weights([_orbit("Y", 5, 1)]).weights) == 1

    def test_seven_component_weights(self):
        assert xi_weights(SEVEN_COMPONENT_ORBITS).weights == (2, 2, 1, 1, 2, 2, 4)

    def test_singleton(self):
        assert xi_weights([_orbit("Y", 1, 1)]).weights == (1,)

    def test_multiplicity_times_size(self):
        assert xi_weights([_orbit("Y", 3, 2)]).weights == (6,)

    def test_total_is_fiber_multiplicity(self):
        w = xi_weights(SEVEN_COMPONENT_ORBITS)
        total = sum(o.multiplicity * o.size for o in SEVEN_COMPONENT_ORBITS)
        assert sum(w.weights) == total == 14

    def test_weights_must_be_positive(self):
        with pytest.raises(ValueError):
            WeightVector((0, 1))

    def test_image_index(self):
        assert WeightVector((2, 4)).image_index() == 2
        assert WeightVector((2, 2, 1, 1, 2, 2, 4)).image_index() == 1
        assert WeightVector((6,)).image_index() == 6


def xgcd(a, b):
    """Return ``(g, x, y)`` with ``g = gcd(a, b) >= 0`` and ``x*a + y*b == g``."""
    x, nx = 1, 0
    y, ny = 0, 1
    g, ng = a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    if g < 0:
        g, x, y = -g, -x, -y
    return g, x, y


def _vector_killing_weights(weights, seed_vector):
    # Shift an arbitrary integer vector into the annihilator of the
    # weights: subtract the right multiple of a vector pairing to the
    # gcd.  Every annihilating vector arises this way.
    g = 0
    combo = [0] * len(weights)
    for i, w in enumerate(weights):
        g, x, y = xgcd(g, w)
        combo = [x * c for c in combo]
        combo[i] += y
    pairing = sum(w * v for w, v in zip(weights, seed_vector))
    assert pairing % g == 0
    factor = pairing // g
    return tuple(v - factor * c for v, c in zip(seed_vector, combo))


class TestHomTBasis:
    def test_two_equal_weights(self):
        basis = hom_T_basis(WeightVector((1, 1)))
        assert basis.shape == (2, 1)
        x, y = basis.transpose().rows[0]
        assert x + y == 0 and abs(x) == 1

    def test_seven_component_weights(self):
        w = WeightVector((2, 2, 1, 1, 2, 2, 4))
        basis = hom_T_basis(w)
        assert basis.shape == (7, 6)
        for col in basis.transpose().rows:
            assert sum(a * b for a, b in zip(w.weights, col)) == 0

    def test_single_orbit_has_no_characters(self):
        assert hom_T_basis(WeightVector((1,))).shape == (1, 0)

    @given(
        st.lists(st.integers(1, 9), min_size=1, max_size=6),
        st.lists(st.integers(-9, 9), min_size=6, max_size=6),
    )
    def test_basis_is_saturated(self, weights, seed_vector):
        w = WeightVector(tuple(weights))
        basis = hom_T_basis(w)
        assert basis.col_count == len(weights) - 1
        target = _vector_killing_weights(w.weights, seed_vector[: len(weights)])
        target = IntMatrix.from_columns([target])
        assert basis @ solve_in_lattice(basis, target) == target
