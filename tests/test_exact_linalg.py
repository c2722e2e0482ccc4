import hashlib
import random
import re
import sys
import time
from math import gcd

import hypothesis.strategies as st
import pytest
from conftest import (
    diagonal_matrix,
    identity,
    misbatched_neighbours,
    random_valid_model_document,
    row_first_log,
    unimodular_product,
    zeros,
)
from hypothesis import given

from chowfiber import exact_linalg
from chowfiber.chow import compute_xi_bar
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
    local_invariant_factors,
    parse_matrix_text,
    snf,
    solve_in_lattice,
)
from chowfiber.fiber_model import build_specialization_matrix, parse_model
from chowfiber.galois import WeightVector, xi_weights

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


#: SHA-256 over ``repr(row_first_log(snf(a).log))`` of each seeded random
#: matrix of ``TestSnf.test_seeded_random_logs_are_pinned``, in order.
SEEDED_RANDOM_LOGS_SHA256 = "962058e576f1ebc2f75f1404ee2702a48863e77bc1dd264240b17771c3e40ae3"


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

    @pytest.mark.parametrize(
        "columns, row_count",
        [
            pytest.param([], 0, id="0x0"),
            pytest.param([], 3, id="3x0"),
            pytest.param([(), (), ()], None, id="0x3"),
            pytest.param([(), ()], 0, id="0x2-given"),
            pytest.param([(1, 2), (3, 4), (5, 6)], None, id="2x3"),
            pytest.param([(1, -2, 0), (7, 0, 9)], 3, id="3x2-given"),
        ],
    )
    def test_from_columns_is_from_rows_transposed(self, columns, row_count):
        expected = IntMatrix.from_rows(columns, row_count).transpose()
        a = IntMatrix.from_columns(columns, row_count)
        assert a == expected
        assert a.shape == (expected.row_count, len(columns))
        assert all(a.column(j) == tuple(c) for j, c in enumerate(columns))

    @pytest.mark.parametrize(
        "columns, row_count",
        [
            pytest.param([(1, 2), (3,)], None, id="ragged"),
            pytest.param([(1, 2), (3, 4)], 3, id="row-count-disagrees"),
            pytest.param([], None, id="no-columns-no-row-count"),
        ],
    )
    def test_from_columns_refuses(self, columns, row_count):
        with pytest.raises(ValueError):
            IntMatrix.from_columns(columns, row_count)

    @pytest.mark.parametrize(
        "row_count, col_count, rows",
        [
            pytest.param(-1, 0, (), id="negative-rows"),
            pytest.param(0, -1, (), id="negative-columns"),
            pytest.param(2, 1, ((1,),), id="too-few-rows"),
            pytest.param(0, 1, ((1,),), id="too-many-rows"),
        ],
    )
    def test_trusted_keeps_the_shape_checks(self, row_count, col_count, rows):
        with pytest.raises(ValueError):
            IntMatrix._trusted(row_count, col_count, rows)

    def test_matmul_shape_mismatch(self):
        with pytest.raises(ValueError):
            identity(2) @ identity(3)

    def test_apply(self):
        a = IntMatrix.from_rows([[1, 2], [3, 4]])
        assert a.apply((1, 1)) == (3, 7)

    def test_apply_refuses_a_vector_of_another_length(self):
        with pytest.raises(ValueError, match="vector length"):
            IntMatrix.from_rows([[1, 2], [3, 4]]).apply((1, 1, 1))


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
        assert exact_linalg._rank_and_minor(IntMatrix.from_rows([[0, 1], [0, 2]])) == (1, 1, 1)

    @pytest.mark.parametrize("shape", [(0, 0), (0, 4), (4, 0)])
    def test_empty_shapes_have_rank_0_and_the_empty_minor(self, shape):
        assert exact_linalg._rank_and_minor(zeros(*shape)) == (0, 1, 1)

    def test_the_minor_gcd_reads_the_last_pivot_row_and_column(self):
        # The last pivot row holds the 2-by-2 minors 4 and 6 from the last
        # pivot column on, and that column holds 8 below the pivot: their
        # gcd is d_2 = 2, where the pivot and the column alone give 4.
        a = IntMatrix.from_rows([[1, 0, 0], [0, 4, 6], [0, 8, 12]])
        assert exact_linalg._rank_and_minor(a) == (2, 4, 2)

    def test_the_minor_gcd_reads_the_two_rows_left_at_rank_m_minus_2(self):
        # The last pivot row alone holds the minors 2 and 4, on columns
        # (0, 1) and (0, 2); the two rows of rank 0 also hold the one on
        # columns (1, 2), which is 1.
        a = IntMatrix.from_rows([[2, 1, 1], [0, 1, 2]])
        assert exact_linalg._rank_and_minor(a) == (2, 2, 1)

    def test_the_minor_gcd_of_full_row_rank_against_the_oracle(self):
        # g is a nonzero multiple of d_m, and it divides the gcd of the
        # minors that the last pivot row alone holds: the first m - 1
        # pivot columns plus one more.  A square matrix reads those alone.
        rng = random.Random(3401)
        checked = tighter = 0
        while checked < 120:
            m = rng.randint(2, 8)
            n = rng.randint(m, 8)
            a = IntMatrix.from_rows(
                [[rng.choice((0, 0, 0, 1, -1, 2, -2, 3, 6)) for _ in range(n)] for _ in range(m)]
            )
            rank, minor, g = exact_linalg._rank_and_minor(a)
            if rank < m:
                continue
            checked += 1
            columns = a.transpose().rows
            pivots: list[int] = []
            for j in range(n):
                if snf(IntMatrix.from_columns([columns[k] for k in pivots + [j]])).rank() > len(pivots):
                    pivots.append(j)
            read = gcd(
                *(
                    determinant(IntMatrix.from_columns([columns[k] for k in pivots[:-1] + [j]]))
                    for j in range(pivots[-2] + 1, n)
                )
            )
            d_m = determinantal_divisors(a)[m - 1]
            assert g != 0 and g % d_m == 0 and read % g == 0
            if m == n:
                assert (rank, minor, g) == (m, determinant(a), read)
            tighter += g != read
        assert tighter > 0


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

    def test_rebuilt_inverse_is_the_inverse_of_u(self):
        # u, u_inv and v are rebuilt from the log, so u_inv cannot drift
        # from u; what the proof checks is the log (TestVerifySnf).
        a = SEVEN_COMPONENT_MATRIX
        dec = snf(a)
        assert dec.u @ dec.u_inv == identity(a.row_count)
        assert dec.u_inv @ dec.u == identity(a.row_count)

    def test_tall_column_costs_what_its_transforms_hold(self):
        # A 256x1 column has 256x256 transforms that are nearly the
        # identity; checking them must not cost a dense cubic product.
        column = IntMatrix.from_rows([[j % 7 - 3 + 7 * (j % 3)] for j in range(256)])
        started = time.perf_counter()
        assert snf(column).nonzero_diagonal() == (1,)
        assert time.perf_counter() - started < 1.0

    def test_dense_48_by_48_reconstructs_from_its_log(self):
        # A seeded dense matrix with entries in -3..3: snf returns, and
        # the transforms rebuilt from its log reproduce s.
        rng = random.Random(4848)
        a = IntMatrix.from_rows([[rng.randint(-3, 3) for _ in range(48)] for _ in range(48)])
        dec = snf(a)
        assert dec.u @ a @ dec.v == dec.s

    def test_seeded_random_logs_are_pinned(self):
        # Every shape from 0x0 to 8x8, zero-heavy and dense, with entries
        # in -30..30, and one copy of each with a zero row and a zero
        # column.  SEEDED_SMITH_LOGS_SHA256 pins degree matrices and
        # weight rows only; this pins the elimination on general input,
        # so a faster one must log the same operations.  The digest was
        # taken from the elimination that added whole rows and logged
        # every addition on its own.
        rng = random.Random(8989)
        digest = hashlib.sha256()
        logs = []
        for m in range(9):
            for n in range(9):
                for density in (0.3, 1.0):
                    rows = [[rng.randint(-30, 30) if rng.random() < density else 0
                             for _ in range(n)] for _ in range(m)]
                    i, j = rng.randrange(m or 1), rng.randrange(n or 1)
                    cleared = [[0 if r == i or c == j else e for c, e in enumerate(row)]
                               for r, row in enumerate(rows)]
                    for matrix in (rows, cleared):
                        log = snf(IntMatrix.from_rows(matrix, col_count=n)).log
                        assert not misbatched_neighbours(log)
                        log = row_first_log(log)
                        digest.update(repr(log).encode())
                        logs.append(log)
        # The pin reaches the pass that adds a row the pivot does not
        # divide: the one add of a later row into an earlier one.
        assert any(op[0] == "add row" and op[1] > op[2] for log in logs for op in log)
        assert digest.hexdigest() == SEEDED_RANDOM_LOGS_SHA256

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
    return SmithDecomposition(**{"s": dec.s, "log": dec.log, **changes})


def _changed(matrix, i, j, delta=1):
    rows = [list(row) for row in matrix.rows]
    rows[i][j] += delta
    return IntMatrix.from_rows(rows, col_count=matrix.col_count)


def _with_op(dec, position, op):
    # A copy of dec whose log has op in place of the operation at position.
    log = list(dec.log)
    log[position] = op
    return _replaced(dec, log=tuple(log))


def _first(dec, kind):
    return next(k for k, op in enumerate(dec.log) if op[0] == kind)


def _with_factor(op, position, delta):
    # The batch op with delta added to the factor of its addition at position.
    kind, src, adds = op
    dst, f = adds[position]
    return (kind, src, adds[:position] + ((dst, f + delta),) + adds[position + 1 :])


def _refused_everywhere(a, dec, message):
    # The proof and every reader of a transform raise exactly message.
    with pytest.raises(SelfCheckError) as caught:
        _verify_snf(a, dec)
    assert str(caught.value) == message
    for reader in ("u", "v", "u_inv", "compute_xi_bar"):
        with pytest.raises(SelfCheckError) as caught:
            _read(dec, reader)
        assert str(caught.value) == message


def _read(dec, reader):
    # A transform reader by name: a property of dec, or compute_xi_bar
    # on a weight row with one entry per row of s.
    if reader == "compute_xi_bar":
        return compute_xi_bar(WeightVector(range(1, dec.s.row_count + 1)), dec)
    return getattr(dec, reader)


def _diagonal_decomposition(*diagonal):
    # a = s = diag(...) with an empty log: every law but the ones on the
    # diagonal itself holds.
    n = len(diagonal)
    s = diagonal_matrix(n, n, diagonal)
    return s, SmithDecomposition(s=s, log=())


class TestVerifySnf:
    # Each way the proof can fail, on its own, is reported by its own
    # message.
    def test_changed_entry_in_u(self):
        # A changed factor of a row add changes u; the replay then no
        # longer gives s.
        a = SEVEN_COMPONENT_MATRIX
        dec = snf(a)
        k = _first(dec, "add rows")
        changed = _with_op(dec, k, _with_factor(dec.log[k], 0, 1))
        assert changed.u != dec.u
        with pytest.raises(SelfCheckError, match="does not reproduce the input"):
            _verify_snf(a, changed)

    def test_changed_factor_of_a_column_add(self):
        a = SEVEN_COMPONENT_MATRIX
        dec = snf(a)
        k = _first(dec, "add columns")
        with pytest.raises(SelfCheckError, match="does not reproduce the input"):
            _verify_snf(a, _with_op(dec, k, _with_factor(dec.log[k], 0, -3)))

    @pytest.mark.parametrize(
        "kind", ["add rows", "add columns", "swap columns", "negate row"],
        ids=lambda kind: kind.replace(" ", "_"),
    )
    def test_dropped_operation(self, kind):
        # One elementary operation goes missing: a swap or negation entry,
        # or the first addition of a batch (the entry, if it held only
        # that one).
        a = SEVEN_COMPONENT_MATRIX
        dec = snf(a)
        k = _first(dec, kind)
        op = dec.log[k]
        rest = ((*op[:2], op[2][1:]),) if kind.startswith("add") and len(op[2]) > 1 else ()
        dropped = _replaced(dec, log=dec.log[:k] + rest + dec.log[k + 1 :])
        with pytest.raises(SelfCheckError, match="does not reproduce the input"):
            _verify_snf(a, dropped)

    def test_changed_diagonal_entry_breaks_the_reconstruction(self):
        a = SEVEN_COMPONENT_MATRIX
        dec = snf(a)
        with pytest.raises(SelfCheckError, match="does not reproduce the input"):
            _verify_snf(a, _replaced(dec, s=_changed(dec.s, 6, 6, 2)))

    def test_non_unimodular_v(self):
        # Doubling a kernel column of v, as "column += column", keeps the
        # replay equal to s (the column is zero there), so only the refusal
        # of an add of a line to itself can catch it.
        a = SEVEN_COMPONENT_MATRIX
        dec = snf(a)
        last = a.col_count - 1
        assert dec.rank() < a.col_count
        doubled = _replaced(dec, log=dec.log + (("add columns", last, ((last, 1),)),))
        with pytest.raises(SelfCheckError, match="adds a line to itself"):
            _verify_snf(a, doubled)

    def test_row_added_to_itself(self):
        a, dec = _diagonal_decomposition(1, 0)
        # "row 1 += -1·row 1" zeroes a zero row: the replay still gives s.
        with pytest.raises(SelfCheckError, match="adds a line to itself"):
            _verify_snf(a, _replaced(dec, log=(("add rows", 1, ((1, -1),)),)))

    @pytest.mark.parametrize(
        "op",
        [(), ("scale row", 0, 2), ("add rows", 0), ("swap rows", 0), ("negate column", 0),
         ("add rows", 0, ((1, 1.0),)), ("add columns", 0, ((1, True),)), ("negate row", 0, 1),
         ("add rows", 0, ((1, 1),), 1), 5, 1.5, object(),
         # A list is not a log entry, even one that reads as a swap.
         ["swap rows", 0, 1],
         # The single-addition kinds of earlier logs.
         ("add row", 0, 1, 1), ("add column", 0, 1, 1)],
    )
    def test_unknown_operation(self, op):
        a, dec = _diagonal_decomposition(1, 2)
        with pytest.raises(SelfCheckError, match="unknown operation"):
            _verify_snf(a, _replaced(dec, log=(op,)))

    @pytest.mark.parametrize(
        "op",
        [("swap rows", 0, 2), ("swap columns", 3, 0), ("add rows", -1, ((0, 1),)),
         ("add columns", 0, ((3, 1),)), ("negate row", 2), ("swap rows", 0, "1")],
    )
    @pytest.mark.parametrize("read", ["u", "v", "u_inv", "compute_xi_bar"])
    def test_index_out_of_range(self, op, read):
        # s is 2x3: a row index must be 0 or 1, a column index 0 to 2.  The
        # readers replay the log on blocks of 2x5 (u) and 5x3 (v), inside
        # which ("swap rows", 0, 2) and ("add columns", 0, ((3, 1),)) would
        # fit.
        a = IntMatrix.from_rows([[1, 0, 0], [0, 2, 0]])
        dec = SmithDecomposition(s=a, log=(op,))
        with pytest.raises(SelfCheckError, match="indexes past the matrix"):
            _verify_snf(a, dec)
        with pytest.raises(SelfCheckError, match="indexes past the matrix"):
            _read(dec, read)

    @pytest.mark.parametrize(
        "op",
        [("add rows", 0, ((1.0, 2),)), ("add columns", 1.0, ((0, 1),)), ("swap rows", 1.0, 0),
         ("swap columns", 0, 1.0), ("negate row", 1.0), ("negate row", True)],
    )
    def test_an_index_that_is_not_an_int(self, op):
        # 1.0 and True lie in range(2) and would index a list as 1.
        with pytest.raises(SelfCheckError, match="indexes past the matrix"):
            exact_linalg._replay([op], [[1, 2], [3, 4]], 2, 2)
        a, dec = _diagonal_decomposition(1, 2)
        with pytest.raises(SelfCheckError, match="indexes past the matrix"):
            _verify_snf(a, _replaced(dec, log=(op,)))

    @pytest.mark.parametrize(
        "op, message",
        [((), "Smith log holds an unknown operation ()"),
         ((["add rows"], 0, ((1, 1),)),
          "Smith log holds an unknown operation (['add rows'], 0, ((1, 1),))"),
         (("bogus", 0, 1), "Smith log holds an unknown operation ('bogus', 0, 1)"),
         (("add columns", 0, ((2, 1),)), "Smith log operation ('add columns', 0, ((2, 1),)) "
          "indexes past the matrix"),
         (5, "Smith log holds an unknown operation 5"),
         (["swap rows", 0, 1], "Smith log holds an unknown operation ['swap rows', 0, 1]")],
    )
    @pytest.mark.parametrize("read", ["u", "v", "u_inv", "compute_xi_bar"])
    def test_transform_readers_refuse_what_the_replay_refuses(self, op, message, read):
        # A log that did not come from snf: every reader of a transform
        # refuses it as the proof does, and none returns a wrong matrix.
        a, dec = _diagonal_decomposition(1, 2)
        dec = _replaced(dec, log=(("swap rows", 0, 1), op))
        with pytest.raises(SelfCheckError) as caught:
            _verify_snf(a, dec)
        assert str(caught.value) == message
        with pytest.raises(SelfCheckError) as caught:
            _read(dec, read)
        assert str(caught.value) == message

    @pytest.mark.parametrize("kind", ["add rows", "add columns"])
    @pytest.mark.parametrize("position", [0, 1, 2], ids=["first", "middle", "last"])
    @pytest.mark.parametrize(
        "bad, fault",
        [((4, 1), "indexes past the matrix"), ((0, 1), "adds a line to itself"),
         ((2, 1.0), "unknown operation")],
        ids=["target-out-of-range", "self-add", "float-factor"],
    )
    def test_a_bad_addition_anywhere_in_a_batch(self, kind, position, bad, fault):
        # A 4x4 s: lines 1, 2 and 3 are the good targets of line 0, and
        # one addition of the three is replaced by a bad one.
        a, dec = _diagonal_decomposition(1, 1, 2, 4)
        adds = [(1, 1), (2, -1), (3, 2)]
        adds[position] = bad
        op = (kind, 0, tuple(adds))
        if fault == "unknown operation":
            message = f"Smith log holds an unknown operation {op!r}"
        else:
            message = f"Smith log operation {op!r} {fault}"
        _refused_everywhere(a, _replaced(dec, log=(("swap rows", 0, 1), op)), message)

    @pytest.mark.parametrize(
        "op",
        [("add rows", 0, ()), ("add columns", 0, ()), ("add rows", 0, [(1, 1)]),
         ("add rows", 0, (1, 1)), ("add columns", 0, ((1, 1, 1),)), ("add rows", 0, ((1,),)),
         ("add columns", 0, ((1, 1), 5)), ("add rows", 0, "ab")],
        ids=["empty-rows", "empty-columns", "list", "flat", "triple", "single", "pair-then-int",
             "string"],
    )
    def test_a_batch_that_is_not_a_nonempty_tuple_of_pairs(self, op):
        a, dec = _diagonal_decomposition(1, 2)
        dec = _replaced(dec, log=(("swap rows", 0, 1), op))
        _refused_everywhere(a, dec, f"Smith log holds an unknown operation {op!r}")

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
        wider = IntMatrix.from_rows([row + (0,) for row in dec.s.rows])
        with pytest.raises(SelfCheckError, match="wrong shape"):
            _verify_snf(a, _replaced(dec, s=wider))

    @given(
        st.lists(st.lists(st.integers(-9, 9), min_size=4, max_size=4), min_size=1, max_size=5),
        st.sampled_from(["factor", "s"]),
        st.integers(0, 10**6),
        st.integers(0, 10**6),
        st.integers(-5, 5).filter(bool),
    )
    def test_any_single_changed_entry_is_caught(self, rows, field, i, j, delta):
        # The source line of every add snf makes is nonzero when the add
        # runs, and the later operations are invertible, so a changed
        # factor moves the replay off s.  A change of s either leaves the
        # diagonal or moves s off the replay.
        a = IntMatrix.from_rows(rows)
        dec = snf(a)
        adds = [(k, p) for k, op in enumerate(dec.log) if op[0].startswith("add")
                for p in range(len(op[2]))]
        if field == "factor" and adds:
            k, p = adds[i % len(adds)]
            changed = _with_op(dec, k, _with_factor(dec.log[k], p, delta))
        else:
            changed = _replaced(dec, s=_changed(dec.s, i % a.row_count, j % a.col_count, delta))
        with pytest.raises(SelfCheckError):
            _verify_snf(a, changed)


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
    # local_invariant_factors: invariant factors modulo the square of a
    # gcd of minors.

    def test_zero_matrix(self):
        assert local_invariant_factors(zeros(3, 4)) == ()

    def test_unimodular_matrix_has_minor_one(self):
        a = IntMatrix.from_rows([[2, 3, 5], [1, 2, 4], [3, 5, 10]])
        assert determinant(a) == 1
        assert exact_linalg._rank_and_minor(a) == (3, 1, 1)
        assert local_invariant_factors(a) == (1, 1, 1)

    def test_tall_column(self):
        # The pivot 4 is one 1-by-1 minor; the column below it gives the
        # gcd d_1 = 2 exactly.
        a = IntMatrix.from_columns([(4, 6, 10, 0, 14)])
        assert exact_linalg._rank_and_minor(a) == (1, 4, 2)
        assert local_invariant_factors(a) == (2,)

    def test_one_bareiss_pass(self, monkeypatch):
        calls = []
        honest = exact_linalg._rank_and_minor
        monkeypatch.setattr(exact_linalg, "_rank_and_minor", lambda a: calls.append(a) or honest(a))
        a = IntMatrix.from_rows([[2, 4, 6], [4, 2, 8], [6, 6, 2]])
        assert local_invariant_factors(a) == snf(a).nonzero_diagonal()
        assert calls == [a]

    def test_wide_row(self):
        assert local_invariant_factors(IntMatrix.from_rows([[6, 10, 15, 0, 0]])) == (1,)
        assert local_invariant_factors(IntMatrix.from_rows([[0, 12, -18]])) == (6,)

    @pytest.mark.parametrize(
        "diagonal, reported",
        [
            # d_2 = 4; with 2 passed off as the minor gcd the factors
            # (2, 2) read modulo 2**2 do not divide it.
            pytest.param((2, 2), (2, 2, 2), id="diag-2-2"),
            # d_2 = 4 again; modulo 2 the factors would read (1, 2) and
            # divide it, modulo 2**2 they read (1, 4).
            pytest.param((1, 4), (2, 4, 2), id="diag-1-4"),
        ],
    )
    def test_a_modulus_that_is_not_a_minor_is_caught(self, monkeypatch, diagonal, reported):
        monkeypatch.setattr(exact_linalg, "_rank_and_minor", lambda a: reported)
        with pytest.raises(SelfCheckError, match="do not divide"):
            local_invariant_factors(diagonal_matrix(2, 2, diagonal))

    # Two large Mersenne primes.
    Q1, Q2 = 2**61 - 1, 2**89 - 1

    @pytest.mark.parametrize(
        "diagonal, mixed",
        [
            pytest.param((Q1, Q2), False, id="two-primes"),
            pytest.param((Q1, Q1 * Q2), False, id="a-large-prime-twice"),
            pytest.param((Q1 * Q2,), False, id="product-of-large-primes"),
            pytest.param((1, 1, Q1, Q2), True, id="two-primes-mixed"),
            pytest.param((2, 6 * Q1, 6 * Q1 * Q2), True, id="small-and-large-mixed"),
        ],
    )
    def test_large_prime_factors_match_snf(self, diagonal, mixed):
        # Factors with large prime divisors, on the diagonal itself or
        # mixed by seeded unimodular operations.
        n = len(diagonal)
        if mixed:
            a = unimodular_product(random.Random(n), n, n, diagonal)
        else:
            a = diagonal_matrix(n, n, diagonal)
        assert local_invariant_factors(a) == snf(a).nonzero_diagonal()

    def test_matches_snf_past_the_oracle_limit(self):
        # The degree matrix and the quotient route's section matrix
        # [e | degrees] of seeded valid models, where the minor oracle
        # cannot reach.
        for orbit_count in (32, 48):
            rng = random.Random(1000 * orbit_count)
            m = parse_model(
                random_valid_model_document(
                    rng, orbit_count=orbit_count, generator_count=orbit_count + 2
                )
            )
            degrees = build_specialization_matrix(m)
            e = exact_linalg._bezout_vector(xi_weights(m.orbits).weights)
            section = IntMatrix.from_rows([(x, *row) for x, row in zip(e, degrees.rows)])
            for a in (degrees, section):
                assert min(a.shape) > ORACLE_SIZE_LIMIT
                assert local_invariant_factors(a) == snf(a).nonzero_diagonal()

    @pytest.mark.parametrize("n", [32, 48, 64])
    def test_matches_a_known_diagonal_past_the_oracle_limit(self, n):
        # u @ diag(d) @ v with unimodular u and v has the invariant
        # factors d: torsion from a small prime power to a product of
        # 10**30 and a Mersenne prime, and rank n - 2.
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

    def test_targets_of_another_row_count_are_refused(self):
        with pytest.raises(ValueError, match="row count"):
            solve_in_lattice(identity(2), _columns((1, 0, 0)))

    def test_every_column_is_solved(self):
        basis = _columns((2, 0), (0, 3))
        targets = _columns((4, -3), (0, 0), (-2, 9))
        assert solve_in_lattice(basis, targets) == _columns((2, -1), (0, 0), (-1, 3))
        assert solve_in_lattice(basis, _columns(row_count=2)) == _columns(row_count=2)
        with pytest.raises(NotInLattice):
            solve_in_lattice(basis, _columns((4, -3), (1, 0)))


class TestBezoutVector:
    def test_pairs_the_row_to_its_gcd(self):
        assert exact_linalg._bezout_vector((6, 10, 15)) == (-14, 7, 1)
        assert exact_linalg._bezout_vector((0, -4, 0)) == (0, -1, 0)
        assert exact_linalg._bezout_vector((0, 0)) == (0, 0)
        assert exact_linalg._bezout_vector(()) == ()

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
        with pytest.raises(SelfCheckError, match="does not pair the row to its gcd"):
            exact_linalg._bezout_vector((6, 10, 15))


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

    @pytest.mark.parametrize("ambient_rank, factors", [(2, (-3,)), (1, (0,)), (2, (1, -2))])
    def test_quotient_refuses_a_factor_below_1(self, ambient_rank, factors):
        # Each was dropped as a unit: Z^2 modulo a lattice with the factor
        # -3 came out Z, not Z ⊕ Z/3, and Z modulo one with the factor 0
        # came out 0, not Z.
        with pytest.raises(ValueError, match=">= 1"):
            FGAbelianGroup.quotient(ambient_rank, factors)


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
