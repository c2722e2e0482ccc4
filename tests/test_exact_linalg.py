import random
import re
import sys
import time

import hypothesis.strategies as st
import pytest
from conftest import (
    diagonal_matrix,
    identity,
    random_valid_model_document,
    unimodular_product,
    zeros,
)
from hypothesis import given

from chowfiber import exact_linalg
from chowfiber.exact_linalg import (
    MAX_MATRIX_DIM,
    FGAbelianGroup,
    IntMatrix,
    MatrixFormatError,
    NotInLattice,
    ORACLE_SIZE_LIMIT,
    OracleSizeLimitError,
    SelfCheckError,
    SmithDecomposition,
    _verify_snf,
    cokernel,
    determinant,
    determinantal_divisors,
    format_matrix_text,
    int_text,
    integer_kernel,
    invariant_factors_from_divisors,
    kernel_coordinates,
    local_invariant_factors,
    parse_matrix_text,
    snf,
    solve_in_lattice,
)
from chowfiber.fiber_model import build_specialization_matrix, parse_model
from chowfiber.galois import xi_weights

# The seven-component degeneration's degree table; the frozen expected
# values below were computed with the minor-enumeration oracle before
# being asserted anywhere.
SEVEN_COMPONENT_MATRIX = IntMatrix.from_rows(
    [
        [-2, -1, -1, -2, 1, 1, 0, 0, 0, 0],
        [0, 1, 0, 0, 0, -2, -1, -1, -2, 1],
        [0, 0, 0, 0, 0, 2, 0, 0, 0, -2],
        [0, 2, 0, 0, -2, 0, 0, 0, 0, 0],
        [0, 0, 1, 0, 0, 0, 1, 0, 0, 0],
        [0, 0, 0, 1, 0, 0, 0, 1, 0, 0],
        [0, 0, 0, 0, 1, 0, 0, 0, 1, 0],
    ]
)


class TestIntMatrix:
    def test_shape_invariants(self):
        with pytest.raises(ValueError):
            IntMatrix(2, 2, ((1, 2),))
        with pytest.raises(ValueError):
            IntMatrix(1, 2, ((1, 2, 3),))
        with pytest.raises(ValueError):
            IntMatrix(-1, 0, ())

    def test_empty_shapes_are_first_class(self):
        a = IntMatrix.from_rows([], col_count=3)
        assert a.shape == (0, 3)
        b = IntMatrix.from_columns([], row_count=3)
        assert b.shape == (3, 0)
        assert (a @ b).shape == (0, 0)
        assert (b @ a).shape == (3, 3)

    def test_from_columns_round_trip(self):
        a = IntMatrix.from_columns([(1, 2), (3, 4), (5, 6)])
        assert a.shape == (2, 3)
        assert a.column(1) == (3, 4)
        assert a.transpose().rows[1] == (3, 4)

    def test_matmul_shape_mismatch(self):
        with pytest.raises(ValueError):
            identity(2) @ identity(3)

    def test_apply(self):
        a = IntMatrix.from_rows([[1, 2], [3, 4]])
        assert a.apply((1, 1)) == (3, 7)


class TestDeterminant:
    def test_known_values(self):
        assert determinant(IntMatrix.from_rows([[2, 4], [6, 8]])) == -8
        assert determinant(identity(4)) == 1
        assert determinant(zeros(3, 3)) == 0
        assert determinant(IntMatrix.from_rows([], col_count=0)) == 1

    def test_requires_square(self):
        with pytest.raises(ValueError):
            determinant(zeros(2, 3))

    def test_one_row_swap_flips_the_sign(self):
        assert determinant(IntMatrix.from_rows([[0, 1], [1, 0]])) == -1


class TestRankAndMinor:
    def test_a_column_without_a_pivot_is_skipped(self):
        assert exact_linalg._rank_and_minor(IntMatrix.from_rows([[0, 1], [0, 2]])) == (1, 1)

    @pytest.mark.parametrize("shape", [(0, 0), (0, 4), (4, 0)])
    def test_empty_shapes_have_rank_0_and_the_empty_minor(self, shape):
        assert exact_linalg._rank_and_minor(zeros(*shape)) == (0, 1)


class TestSnf:
    def test_one_by_one(self):
        dec = snf(IntMatrix.from_rows([[5]]))
        assert dec.s == IntMatrix.from_rows([[5]])

    def test_negative_entry_normalized(self):
        dec = snf(IntMatrix.from_rows([[-5]]))
        assert dec.s == IntMatrix.from_rows([[5]])

    def test_two_by_two(self):
        # Divisor oracle: d1 = gcd of entries = 2, d2 = |det| = 8,
        # so the factors are 2 and 8/2 = 4.
        dec = snf(IntMatrix.from_rows([[2, 4], [6, 8]]))
        assert dec.nonzero_diagonal() == (2, 4)

    def test_zero_row_padding_keeps_diagonal(self):
        a = IntMatrix.from_rows([[2, 4], [6, 8]])
        padded = IntMatrix.from_rows([[2, 4], [6, 8], [0, 0]])
        assert snf(a).nonzero_diagonal() == snf(padded).nonzero_diagonal()

    def test_empty_matrices(self):
        for shape in [(0, 0), (0, 3), (3, 0)]:
            dec = snf(zeros(*shape))
            assert dec.s.shape == shape
            assert dec.u.shape == (shape[0], shape[0])
            assert dec.v.shape == (shape[1], shape[1])

    def test_reconstruction(self):
        a = SEVEN_COMPONENT_MATRIX
        dec = snf(a)
        assert dec.u @ a @ dec.v == dec.s
        assert determinant(dec.u) in (1, -1)
        assert determinant(dec.v) in (1, -1)

    def test_coprime_diagonal_needs_the_fixup_pass(self):
        # diag(2, 3) is diagonal but not a divisibility chain.
        dec = snf(IntMatrix.from_rows([[2, 0], [0, 3]]))
        assert dec.nonzero_diagonal() == (1, 6)

    def test_corrupted_inverse_is_caught(self):
        a = SEVEN_COMPONENT_MATRIX
        dec = snf(a)
        rows = [list(row) for row in dec.u_inv.rows]
        rows[0][0] += 1
        corrupted = _replaced(dec, u_inv=IntMatrix.from_rows(rows))
        with pytest.raises(SelfCheckError, match="inverse"):
            _verify_snf(a, corrupted)

    def test_tall_column_costs_what_its_transforms_hold(self):
        # A 256x1 column has 256x256 transforms that are nearly the
        # identity; checking them must not cost a dense cubic product.
        column = IntMatrix.from_rows([[j % 7 - 3 + 7 * (j % 3)] for j in range(256)])
        started = time.perf_counter()
        assert snf(column).nonzero_diagonal() == (1,)
        assert time.perf_counter() - started < 1.0

    def test_arbitrary_precision(self):
        big = 10**18
        a = IntMatrix.from_rows(
            [[big, big + 1, 3], [2 * big, 7, big - 5], [5, big, 11]]
        )
        dec = snf(a)
        assert dec.u @ a @ dec.v == dec.s
        assert dec.nonzero_diagonal()[-1] > 2**64  # would overflow fixed width


def _replaced(dec, **changes):
    # A copy of dec with the named fields changed.
    return SmithDecomposition(**{"s": dec.s, "u": dec.u, "v": dec.v, "u_inv": dec.u_inv, **changes})


def _changed(matrix, i, j, delta=1):
    rows = [list(row) for row in matrix.rows]
    rows[i][j] += delta
    return IntMatrix.from_rows(rows, col_count=matrix.col_count)


def _diagonal_decomposition(*diagonal):
    # a = s = diag(...) with identity transforms: every law but the
    # ones on the diagonal itself holds.
    n = len(diagonal)
    s = diagonal_matrix(n, n, diagonal)
    unit = identity(n)
    return s, SmithDecomposition(s=s, u=unit, v=unit, u_inv=unit)


class TestVerifySnf:
    # Each law of the proof, broken on its own, is reported by its own
    # message.
    def test_changed_entry_in_u(self):
        a = SEVEN_COMPONENT_MATRIX
        dec = snf(a)
        with pytest.raises(SelfCheckError, match="row transform does not match its inverse"):
            _verify_snf(a, _replaced(dec, u=_changed(dec.u, 3, 5)))

    def test_changed_entry_in_u_inv(self):
        a = SEVEN_COMPONENT_MATRIX
        dec = snf(a)
        with pytest.raises(SelfCheckError, match="row transform does not match its inverse"):
            _verify_snf(a, _replaced(dec, u_inv=_changed(dec.u_inv, 6, 2, -4)))

    def test_changed_diagonal_entry_breaks_the_reconstruction(self):
        a = SEVEN_COMPONENT_MATRIX
        dec = snf(a)
        with pytest.raises(SelfCheckError, match="does not reproduce the input"):
            _verify_snf(a, _replaced(dec, s=_changed(dec.s, 6, 6, 2)))

    def test_non_unimodular_v(self):
        # Doubling a kernel column of v keeps a @ v, so only the
        # determinant law can catch it.
        a = SEVEN_COMPONENT_MATRIX
        dec = snf(a)
        assert dec.rank() < a.col_count
        last = a.col_count - 1
        v = IntMatrix.from_rows(
            [[2 * e if j == last else e for j, e in enumerate(row)] for row in dec.v.rows]
        )
        assert a @ v == a @ dec.v
        with pytest.raises(SelfCheckError, match="column transform is not unimodular"):
            _verify_snf(a, _replaced(dec, v=v))

    def test_off_diagonal_entry_in_s(self):
        a = SEVEN_COMPONENT_MATRIX
        dec = snf(a)
        with pytest.raises(SelfCheckError, match="not diagonal"):
            _verify_snf(a, _replaced(dec, s=_changed(dec.s, 2, 7)))

    def test_negative_diagonal_entry(self):
        a, dec = _diagonal_decomposition(-2, 4)
        with pytest.raises(SelfCheckError, match="negative entry"):
            _verify_snf(a, dec)

    def test_zero_before_a_nonzero_entry(self):
        a, dec = _diagonal_decomposition(0, 3)
        with pytest.raises(SelfCheckError, match="zero entries must come last"):
            _verify_snf(a, dec)

    def test_broken_divisibility_chain(self):
        a, dec = _diagonal_decomposition(2, 3)
        with pytest.raises(SelfCheckError, match="not a divisibility chain"):
            _verify_snf(a, dec)

    def test_wrong_shape(self):
        a = SEVEN_COMPONENT_MATRIX
        dec = snf(a)
        with pytest.raises(SelfCheckError, match="wrong shape"):
            _verify_snf(a, _replaced(dec, v=identity(a.col_count + 1)))

    @given(
        st.lists(st.lists(st.integers(-9, 9), min_size=4, max_size=4), min_size=1, max_size=5),
        st.sampled_from(["u", "u_inv", "s"]),
        st.integers(0, 10**6),
        st.integers(0, 10**6),
        st.integers(-5, 5).filter(bool),
    )
    def test_any_single_changed_entry_is_caught(self, rows, field, i, j, delta):
        # u and u_inv are invertible, so a change of one entry moves
        # u @ u_inv off I; a change of s either leaves the diagonal or
        # moves a @ v off u_inv @ s by a nonzero column of u_inv.
        a = IntMatrix.from_rows(rows)
        dec = snf(a)
        target = getattr(dec, field)
        changed = _changed(target, i % target.row_count, j % target.col_count, delta)
        with pytest.raises(SelfCheckError):
            _verify_snf(a, _replaced(dec, **{field: changed}))


class TestDeterminantalDivisors:
    def test_two_by_two(self):
        assert determinantal_divisors(IntMatrix.from_rows([[2, 4], [6, 8]])) == [2, 8]

    def test_identity(self):
        assert determinantal_divisors(identity(4)) == [1, 1, 1, 1]

    def test_zero_matrix(self):
        assert determinantal_divisors(zeros(2, 3)) == [0, 0]

    def test_size_limit(self):
        with pytest.raises(OracleSizeLimitError, match="oracle size limit"):
            determinantal_divisors(identity(9))

    def test_factor_quotients(self):
        assert invariant_factors_from_divisors([2, 8]) == [2, 4]
        assert invariant_factors_from_divisors([1, 1, 2, 0]) == [1, 1, 2]
        assert invariant_factors_from_divisors([0, 0]) == []


class TestInvariantFactorsModMinor:
    # local_invariant_factors: invariant factors modulo the prime powers
    # of a gcd of minors.

    def test_zero_matrix(self):
        assert local_invariant_factors(zeros(3, 4)) == ()

    def test_unimodular_matrix_has_minor_one(self):
        a = IntMatrix.from_rows([[2, 3, 5], [1, 2, 4], [3, 5, 10]])
        assert determinant(a) == 1
        assert exact_linalg._rank_and_minor(a) == (3, 1)
        assert local_invariant_factors(a) == (1, 1, 1)

    def test_tall_column(self):
        a = IntMatrix.from_columns([(4, 6, 10, 0, 14)])
        assert local_invariant_factors(a) == (2,)

    def test_wide_row(self):
        assert local_invariant_factors(IntMatrix.from_rows([[6, 10, 15, 0, 0]])) == (1,)
        assert local_invariant_factors(IntMatrix.from_rows([[0, 12, -18]])) == (6,)

    def test_a_modulus_that_is_not_a_minor_is_caught(self, monkeypatch):
        # diag(2, 2) has d_2 = 4; with 2 passed off as both minors the
        # factors (2, 2) read modulo 2**2 do not divide the minor gcd 2.
        monkeypatch.setattr(exact_linalg, "_rank_and_minor", lambda a: (2, 2))
        with pytest.raises(SelfCheckError, match="do not divide"):
            local_invariant_factors(IntMatrix.from_rows([[2, 0], [0, 2]]))

    # Mersenne primes above the trial division bound.
    Q1, Q2 = 2**61 - 1, 2**89 - 1

    @pytest.mark.parametrize(
        "diagonal, splits",
        [
            pytest.param((Q1, Q2), True, id="two-primes"),
            pytest.param((Q1, Q1 * Q2), True, id="square-in-the-cofactor"),
            pytest.param((Q1 * Q2,), False, id="composite-never-inverted"),
            pytest.param((1, 1, Q1, Q2), None, id="two-primes-mixed"),
            pytest.param((2, 6 * Q1, 6 * Q1 * Q2), None, id="small-and-large-mixed"),
        ],
    )
    def test_a_composite_cofactor_is_split_when_it_must_be(self, monkeypatch, diagonal, splits):
        # The cofactor left after trial division is a product of primes
        # above the bound.  It is worked as a prime until an entry shares
        # a proper factor with it, and the answer is right either way.
        split_factors = []
        honest = exact_linalg._coprime_base
        monkeypatch.setattr(
            exact_linalg,
            "_coprime_base",
            lambda numbers: split_factors.append(numbers[-1]) or honest(numbers),
        )
        n = len(diagonal)
        if splits is None:
            a = unimodular_product(random.Random(n), n, n, diagonal)
        else:
            a = IntMatrix.from_rows(
                [[d if i == j else 0 for j in range(n)] for i, d in enumerate(diagonal)]
            )
        assert local_invariant_factors(a) == snf(a).nonzero_diagonal()
        if splits is not None:
            assert bool(split_factors) == splits
            assert all(self.Q1 * self.Q2 % f == 0 for f in split_factors)

    def test_coprime_base(self):
        base, q1, q2 = exact_linalg._coprime_base, self.Q1, self.Q2
        assert base([]) == []
        assert sorted(base([12, 18])) == [2, 3]
        assert sorted(base([q1 * q2, q1])) == [q1, q2]
        assert base([q1**2, q1]) == [q1]

    def test_matches_snf_past_the_oracle_limit(self):
        # The degree matrix and the quotient-route matrix of seeded valid
        # models, where the minor oracle cannot reach.
        for orbit_count in (32, 48):
            rng = random.Random(1000 * orbit_count)
            m = parse_model(
                random_valid_model_document(
                    rng, orbit_count=orbit_count, generator_count=orbit_count + 2
                )
            )
            degrees = build_specialization_matrix(m)
            coords = kernel_coordinates(xi_weights(m.orbits).weights, degrees)
            for a in (degrees, coords):
                assert min(a.shape) > ORACLE_SIZE_LIMIT
                assert local_invariant_factors(a) == snf(a).nonzero_diagonal()

    @pytest.mark.parametrize("n", [32, 48, 64])
    def test_matches_a_known_diagonal_past_the_oracle_limit(self, n):
        # u @ diag(d) @ v with unimodular u and v has the invariant
        # factors d: torsion from a small prime power to a product of
        # 10**30 and a prime above the trial division bound, and rank n - 2.
        chain = (2, 6, 6 * self.Q1, 6 * self.Q1 * 10**30)
        diagonal = (1,) * (n - 6) + chain + (0, 0)
        a = unimodular_product(random.Random(n), n, n + 3, diagonal)
        assert local_invariant_factors(a) == (1,) * (n - 6) + chain


class TestCokernel:
    def test_single_relation(self):
        assert cokernel(IntMatrix.from_rows([[2]])) == FGAbelianGroup(0, (2,))

    @pytest.mark.parametrize(
        "a, group",
        [
            pytest.param(IntMatrix.from_rows([[2]]), FGAbelianGroup(0, (2,)), id="1x1"),
            pytest.param(zeros(0, 0), FGAbelianGroup(0), id="0x0"),
            pytest.param(zeros(0, 3), FGAbelianGroup(0), id="0x3"),
            pytest.param(zeros(3, 0), FGAbelianGroup(3), id="3x0"),
            pytest.param(diagonal_matrix(3, 4, (1, 2, 6)), FGAbelianGroup(0, (2, 6)), id="wide"),
            pytest.param(diagonal_matrix(4, 3, (2, 0)), FGAbelianGroup(3, (2,)), id="tall"),
            pytest.param(diagonal_matrix(2, 2, (2, 3)), FGAbelianGroup(0, (6,)), id="chain"),
            pytest.param(diagonal_matrix(2, 2, (4, 2)), FGAbelianGroup(0, (2, 4)), id="order"),
            pytest.param(diagonal_matrix(1, 1, (-2,)), FGAbelianGroup(0, (2,)), id="sign"),
            pytest.param(diagonal_matrix(2, 2, (0, 2)), FGAbelianGroup(1, (2,)), id="zeros-last"),
            pytest.param(
                IntMatrix.from_rows([[2, 1], [0, 4]]), FGAbelianGroup(0, (8,)), id="off-diagonal"
            ),
        ],
    )
    def test_input_off_one_law_goes_through_snf(self, monkeypatch, a, group):
        # cokernel has one path: input off one law of a Smith form and
        # input that keeps them all (the first six cases) both make
        # exactly one snf call, on the input itself.
        calls = []
        honest = exact_linalg.snf
        monkeypatch.setattr(exact_linalg, "snf", lambda m: calls.append(m) or honest(m))
        assert cokernel(a) == group
        assert calls == [a]

    def test_no_relations(self):
        assert cokernel(IntMatrix.from_columns([], row_count=3)) == FGAbelianGroup(3)

    def test_seven_component_table(self):
        # Frozen from the oracle run: determinantal divisors
        # [1, 1, 1, 1, 1, 2, 4], hence factors (1, 1, 1, 1, 1, 2, 2).
        divisors = determinantal_divisors(SEVEN_COMPONENT_MATRIX)
        assert divisors == [1, 1, 1, 1, 1, 2, 4]
        assert cokernel(SEVEN_COMPONENT_MATRIX) == FGAbelianGroup(0, (2, 2))
        assert invariant_factors_from_divisors(divisors) == [1, 1, 1, 1, 1, 2, 2]


class TestIntegerKernel:
    def test_sum_of_two(self):
        k = integer_kernel(IntMatrix.from_rows([[1, 1]]))
        assert k.shape == (2, 1)
        (x, y) = k.column(0)
        assert x + y == 0 and abs(x) == 1

    def test_identity_has_trivial_kernel(self):
        assert integer_kernel(identity(3)).shape == (3, 0)

    def test_weight_row(self):
        w = IntMatrix.from_rows([[2, 2, 1, 1, 2, 2, 4]])
        k = integer_kernel(w)
        assert k.shape == (7, 6)
        for col in k.transpose().rows:
            assert w.apply(col) == (0,)

    def test_composition_is_zero(self):
        a = SEVEN_COMPONENT_MATRIX
        k = integer_kernel(a)
        assert a @ k == zeros(a.row_count, k.col_count)
        assert k.col_count == a.col_count - snf(a).rank()


def _columns(*vectors, row_count=None):
    return IntMatrix.from_columns(vectors, row_count=row_count)


class TestSolveInLattice:
    def test_identity_basis(self):
        target = _columns((4, -1, 7))
        assert solve_in_lattice(identity(3), target) == target

    def test_parity_obstruction(self):
        basis = _columns((2, 0))
        with pytest.raises(NotInLattice):
            solve_in_lattice(basis, _columns((1, 0)))

    def test_even_target(self):
        basis = _columns((2, 0))
        assert solve_in_lattice(basis, _columns((4, 0))) == _columns((2,))

    def test_outside_span(self):
        basis = _columns((1, 0))
        with pytest.raises(NotInLattice):
            solve_in_lattice(basis, _columns((0, 1)))

    def test_dependent_columns_rejected(self):
        basis = _columns((1, 1), (2, 2))
        with pytest.raises(ValueError, match="independent"):
            solve_in_lattice(basis, _columns((0, 0)))

    def test_empty_basis(self):
        basis = _columns(row_count=2)
        assert solve_in_lattice(basis, _columns((0, 0))) == _columns(())
        with pytest.raises(NotInLattice):
            solve_in_lattice(basis, _columns((1, 0)))

    def test_every_column_is_solved(self):
        basis = _columns((2, 0), (0, 3))
        targets = _columns((4, -3), (0, 0), (-2, 9))
        assert solve_in_lattice(basis, targets) == _columns((2, -1), (0, 0), (-1, 3))
        assert solve_in_lattice(basis, _columns(row_count=2)) == _columns(row_count=2)
        with pytest.raises(NotInLattice):
            solve_in_lattice(basis, _columns((4, -3), (1, 0)))


class TestKernelCoordinates:
    def test_saturated_basis_has_unimodular_coordinates(self):
        # Two saturated bases of the same kernel differ by a unimodular
        # change of basis.
        row = (2, 2, 1, 1, 2, 2, 4)
        coords = kernel_coordinates(row, integer_kernel(IntMatrix.from_rows([row])))
        assert coords.shape == (6, 6)
        assert determinant(coords) in (1, -1)

    def test_nonzero_pairing_is_not_in_lattice(self):
        with pytest.raises(NotInLattice):
            kernel_coordinates((1, 2), _columns((1, 0)))
        with pytest.raises(NotInLattice):
            kernel_coordinates((1, 2), _columns((2, -1), (0, 1)))

    def test_zero_column_target(self):
        assert kernel_coordinates((3, 5, 7), _columns((0, 0, 0))) == _columns((0, 0))
        assert kernel_coordinates((3, 5, 7), _columns(row_count=3)) == _columns(row_count=2)

    def test_length_one_row(self):
        assert kernel_coordinates((4,), _columns((0,), (0,))) == IntMatrix.from_rows(
            [], col_count=2
        )
        with pytest.raises(NotInLattice):
            kernel_coordinates((4,), _columns((1,)))

    def test_zero_row_keeps_every_target(self):
        targets = _columns((4, -1), (0, 3))
        assert kernel_coordinates((0, 0), targets) == targets

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="row length"):
            kernel_coordinates((1, 1), _columns((0, 0, 0)))

    def test_long_row_makes_no_smith_decomposition(self, monkeypatch):
        # A gate on work, not on wall time: the basis comes from the gcd
        # chain of the row, so a 4,000-entry row decomposes nothing.
        def no_snf(a):
            raise AssertionError("kernel_coordinates made a Smith decomposition")

        monkeypatch.setattr(exact_linalg, "snf", no_snf)
        n = 4000
        row = (0, 0) + tuple(range(6, n + 4))
        # e_0, and the kernel vector row[3]·e_2 − row[2]·e_3.
        targets = _columns((1,) + (0,) * (n - 1), (0, 0, 7, -6) + (0,) * (n - 4))
        coords = kernel_coordinates(row, targets)
        assert coords.shape == (n - 1, 2)
        assert coords.column(0) == (1,) + (0,) * (n - 2)

    @pytest.mark.parametrize(
        "fault",
        [
            pytest.param(lambda g, x, y: (g, x, y + 1), id="coefficient-off-by-one"),
            pytest.param(lambda g, x, y: (2 * g, 2 * x, 2 * y), id="twice-the-gcd"),
            pytest.param(lambda g, x, y: (-g, -x, -y), id="negative-gcd"),
        ],
    )
    def test_corrupted_bezout_step_raises(self, monkeypatch, fault):
        honest = exact_linalg._xgcd
        monkeypatch.setattr(exact_linalg, "_xgcd", lambda a, b: fault(*honest(a, b)))
        with pytest.raises(SelfCheckError, match="Bézout step 0 of the gcd chain is wrong"):
            kernel_coordinates((6, 10, 15), _columns((5, -3, 0)))


class TestFGAbelianGroup:
    def test_rendering(self):
        assert str(FGAbelianGroup(0)) == "0"
        assert str(FGAbelianGroup(1)) == "Z"
        assert str(FGAbelianGroup(2)) == "Z^2"
        assert str(FGAbelianGroup(1, (2,))) == "Z ⊕ Z/2"
        assert str(FGAbelianGroup(0, (2, 4))) == "Z/2 ⊕ Z/4"

    def test_factors_past_the_digit_limit_render_in_full(self):
        limit = sys.get_int_max_str_digits()
        factor = 10**5000 + 7
        text = str(FGAbelianGroup(1, (factor,)))
        assert text == "Z ⊕ Z/1" + "0" * 4999 + "7"
        assert sys.get_int_max_str_digits() == limit

    def test_divisibility_chain_enforced(self):
        with pytest.raises(ValueError):
            FGAbelianGroup(0, (4, 2))
        with pytest.raises(ValueError):
            FGAbelianGroup(0, (3, 4))
        with pytest.raises(ValueError):
            FGAbelianGroup(0, (1,))


class TestIntText:
    @pytest.mark.parametrize("digits", [1, 4299, 4300, 4301, 9000, 30001])
    def test_matches_str_without_the_limit(self, digits):
        limit = sys.get_int_max_str_digits()
        values = [10 ** (digits - 1), 10**digits - 1, -(7 * 10 ** (digits - 1) + 3)]
        rendered = [int_text(n) for n in values]
        sys.set_int_max_str_digits(0)
        try:
            assert rendered == [str(n) for n in values]
        finally:
            sys.set_int_max_str_digits(limit)


class TestMatrixText:
    def test_round_trip(self):
        a = IntMatrix.from_rows([[2, 4], [6, 8]])
        assert parse_matrix_text(format_matrix_text(a)) == a

    def test_comments_and_blank_lines(self):
        text = "# header\n\n2 2\n# body\n1 2\n\n3 4\n"
        assert parse_matrix_text(text) == IntMatrix.from_rows([[1, 2], [3, 4]])

    @pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0), (2, 2)])
    def test_round_trip_of_every_shape(self, shape):
        # The rows of an R-by-0 matrix are empty lines, which the parser
        # skips as blank; a header with nothing after it stands for them.
        m, n = shape
        a = IntMatrix.from_rows([[i - j for j in range(n)] for i in range(m)], col_count=n)
        assert parse_matrix_text(format_matrix_text(a)) == a

    def test_empty_matrix(self):
        assert parse_matrix_text("0 3\n") == IntMatrix.from_rows([], col_count=3)
        assert parse_matrix_text(f"0 {MAX_MATRIX_DIM}\n").shape == (0, MAX_MATRIX_DIM)

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "2\n1 2\n",
            "1 2\n1\n",
            "1 2\na b\n",
            "2 2\n1 2\n",
            "3 0\n5\n",
            "1 0\n0\n",
            "-1 2\n",
            "0 100000\n",
            f"{MAX_MATRIX_DIM + 1} 1\n",
        ],
    )
    def test_malformed(self, text):
        with pytest.raises(MatrixFormatError):
            parse_matrix_text(text)

    @pytest.mark.parametrize("entry", ["7" * 5000, "-" + "7" * 4301])
    def test_over_long_literal_says_so(self, entry):
        with pytest.raises(MatrixFormatError) as info:
            parse_matrix_text(f"1 2\n1 {entry}\n")
        assert str(info.value) == "line 2: integer literal has more than 4,300 digits"

    @pytest.mark.parametrize(
        "text",
        [
            pytest.param("1_0 1\n" + "1\n" * 10, id="underscore-in-header"),
            pytest.param("1 1\n1_000\n", id="underscore-in-entry"),
            pytest.param("1 1\n\uff15\n", id="full-width-digit"),
            pytest.param("1 1\n\u0663\n", id="arabic-indic-digit"),
            pytest.param("1 2\n1\u00a02\n", id="no-break-space"),
            pytest.param("1 2\n1\u20032\n", id="em-space"),
            pytest.param("2 1\n1\u20282\n", id="line-separator"),
        ],
    )
    def test_only_ascii_without_underscores(self, text):
        with pytest.raises(MatrixFormatError, match="only ASCII digits, signs and spaces"):
            parse_matrix_text(text)

    @pytest.mark.parametrize("control", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f"])
    @pytest.mark.parametrize(
        "template",
        [
            pytest.param("1 2\n1{}2\n", id="between-entries"),
            pytest.param("2 1\n1{}2\n", id="as-a-line-break"),
            pytest.param("# note{}\n1 1\n2\n", id="in-a-comment"),
        ],
    )
    def test_control_characters_are_not_layout(self, control, template):
        text = template.format(control)
        line = 1 if text.startswith("#") else 2
        message = f"line {line}: control character U+{ord(control):04X} may not appear"
        with pytest.raises(MatrixFormatError, match=re.escape(message)):
            parse_matrix_text(text)

    @pytest.mark.parametrize("separator", ["\x85", "\u2028", "\u2029"])
    def test_unicode_line_breaks_do_not_end_a_comment(self, separator):
        # str.splitlines breaks there, so the rest would be read as the header.
        text = f"# note{separator}1 1\n5\n"
        message = f"line 1: line break U+{ord(separator):04X} may not appear"
        with pytest.raises(MatrixFormatError, match=re.escape(message)):
            parse_matrix_text(text)

    def test_tab_and_carriage_return_are_layout(self):
        assert parse_matrix_text("1\t2\r\n3\t4\r\n") == IntMatrix.from_rows([[3, 4]])

    def test_comments_may_hold_any_text(self):
        text = "# B(X) \u2245 Z \u2295 Z/2, \u00e9t\u00e9\n1 1\n2\n"
        assert parse_matrix_text(text) == IntMatrix.from_rows([[2]])

    def test_malformed_entry_before_a_long_one(self):
        with pytest.raises(MatrixFormatError, match="entries must be base-10 integers"):
            parse_matrix_text("1 2\nx " + "7" * 5000 + "\n")
