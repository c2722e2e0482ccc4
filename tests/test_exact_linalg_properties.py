"""Property tests for the integer linear algebra invariants."""

import itertools
import math
import random
from operator import mul

import hypothesis.strategies as st
from conftest import diagonal_matrix, identity, unimodular_product, zeros
from hypothesis import example, given, settings

from chowfiber import exact_linalg
from chowfiber.chow import compute_b0
from chowfiber.exact_linalg import (
    FGAbelianGroup,
    IntMatrix,
    _rank_and_minor,
    cokernel,
    determinant,
    determinantal_divisors,
    integer_kernel,
    invariant_factors_from_divisors,
    local_invariant_factors,
    snf,
    solve_in_lattice,
)
from chowfiber.galois import WeightVector


def matrices(max_rows=5, max_cols=5, max_entry=9, min_rows=0, min_cols=0):
    def build(shape):
        m, n = shape
        return st.lists(
            st.lists(st.integers(-max_entry, max_entry), min_size=n, max_size=n),
            min_size=m,
            max_size=m,
        ).map(lambda rows: IntMatrix.from_rows(rows, col_count=n))

    return st.tuples(
        st.integers(min_rows, max_rows), st.integers(min_cols, max_cols)
    ).flatmap(build)


def products_with_torsion(max_size=7):
    """``left @ diag(scales) @ right`` with an inner dimension of at most 7.

    An inner dimension below min(rows, cols) makes the product rank
    deficient, and the scales put torsion, up to 10**30, into its
    invariant factors.
    """

    def block(rows, cols):
        return st.lists(
            st.lists(st.integers(-3, 3), min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )

    def build(shape):
        m, n, k = shape
        scales = st.lists(st.sampled_from((1, 2, 3, 4, 6, 12, 10**30)), min_size=k, max_size=k)
        return st.tuples(block(m, k), scales, block(k, n)).map(
            lambda t: IntMatrix.from_rows(
                [
                    [sum(t[0][i][l] * t[1][l] * t[2][l][j] for l in range(k)) for j in range(n)]
                    for i in range(m)
                ],
                col_count=n,
            )
        )

    sizes = st.integers(0, max_size)
    return st.tuples(sizes, sizes, sizes).flatmap(build)


def mixed_diagonals(max_size=7):
    """``u @ diag(d) @ v`` with seeded unimodular ``u`` and ``v`` (see ``unimodular_product``).

    ``d`` is drawn freely, not as a divisibility chain: zeros make the
    product rank deficient, 10**30 puts high powers of 2 and 5 into its
    torsion, and 2**61 - 1 a large prime.
    """

    def build(shape):
        m, n = shape
        entries = st.sampled_from((0, 1, 2, 3, 4, 6, 12, 2**61 - 1, 10**30))
        return st.tuples(
            st.integers(0, 2**32), st.lists(entries, max_size=min(m, n))
        ).map(lambda t: unimodular_product(random.Random(t[0]), m, n, t[1]))

    sizes = st.integers(0, max_size)
    return st.tuples(sizes, sizes).flatmap(build)


@settings(max_examples=300)
@given(st.one_of(matrices(7, 7, max_entry=10**30), products_with_torsion(), mixed_diagonals()))
def test_local_route_matches_snf(a):
    assert local_invariant_factors(a) == snf(a).nonzero_diagonal()


def with_zero_lines(a):
    """``a`` with a zero row and a zero column inserted at drawn places."""

    def build(places):
        i, j = places
        rows = [list(row[:j]) + [0] + list(row[j:]) for row in a.rows]
        rows.insert(i, [0] * (a.col_count + 1))
        return IntMatrix.from_rows(rows)

    return st.tuples(st.integers(0, a.row_count), st.integers(0, a.col_count)).map(build)


@settings(max_examples=300)
@given(
    st.one_of(
        matrices(6, 6, max_entry=10**30),
        products_with_torsion(max_size=6),
        products_with_torsion(max_size=5).flatmap(with_zero_lines),
    )
)
def test_rank_and_minor_match_the_oracle(a):
    # The minor is some nonzero r-by-r minor, and g a gcd of such minors,
    # so the gcd of all of them, d_r, divides both.
    rank, minor, g = _rank_and_minor(a)
    assert rank == snf(a).rank()
    divisors = determinantal_divisors(a)
    assert rank == sum(1 for d in divisors if d)
    d_r = divisors[rank - 1] if rank else 1
    assert minor != 0 and g != 0
    assert minor % d_r == 0 and g % d_r == 0


@given(matrices())
def test_snf_reconstructs_and_transforms_are_unimodular(a):
    dec = snf(a)
    assert dec.u @ a @ dec.v == dec.s
    assert dec.u @ dec.u_inv == identity(a.row_count)
    assert determinant(dec.u) in (1, -1)
    assert determinant(dec.v) in (1, -1)
    diag = dec.s.diagonal_entries()
    assert all(d >= 0 for d in diag)
    nonzero = [d for d in diag if d]
    assert diag[: len(nonzero)] == tuple(nonzero), "zeros must come last"
    for p, q in zip(nonzero, nonzero[1:]):
        assert q % p == 0


def _laplace_determinant(rows):
    # Cofactor expansion along the first row: slow, but shares nothing
    # with the fraction-free elimination it checks.
    if not rows:
        return 1
    return sum(
        (-1) ** j * e * _laplace_determinant([r[:j] + r[j + 1 :] for r in rows[1:]])
        for j, e in enumerate(rows[0])
        if e
    )


def zero_heavy_square_matrices(max_size=6):
    # Mostly zeros, with an optional identity added, so that pivots
    # often equal the previous pivot and whole rows are left unchanged.
    entry = st.sampled_from((0, 0, 0, 0, 0, 1, -1, 2, -3))

    def build(n):
        rows = st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)
        return st.tuples(rows, st.booleans()).map(
            lambda t: [
                [e + (1 if t[1] and i == j else 0) for j, e in enumerate(row)]
                for i, row in enumerate(t[0])
            ]
        )

    return st.integers(0, max_size).flatmap(build)


@settings(max_examples=200)
@given(zero_heavy_square_matrices())
def test_determinant_matches_cofactor_expansion(rows):
    a = IntMatrix.from_rows(rows, col_count=len(rows))
    assert determinant(a) == _laplace_determinant(rows)


@given(matrices(max_rows=4, max_cols=4))
def test_snf_agrees_with_minor_oracle(a):
    nonzero = list(snf(a).nonzero_diagonal())
    assert nonzero == invariant_factors_from_divisors(determinantal_divisors(a))


@given(matrices(max_rows=4, max_cols=4), st.randoms(use_true_random=False))
def test_cokernel_invariance(a, rng):
    base = cokernel(a)

    order = list(range(a.col_count))
    rng.shuffle(order)
    columns = a.transpose().rows
    permuted = IntMatrix.from_columns([columns[j] for j in order], row_count=a.row_count)
    assert cokernel(permuted) == base

    if a.col_count:
        j = rng.randrange(a.col_count)
        cols = list(a.transpose().rows)
        cols[j] = tuple(-e for e in cols[j])
        assert cokernel(IntMatrix.from_columns(cols, row_count=a.row_count)) == base

        if a.col_count >= 2:
            i, j = rng.sample(range(a.col_count), 2)
            cols = list(a.transpose().rows)
            cols[i] = tuple(p + q for p, q in zip(cols[i], cols[j]))
            assert cokernel(IntMatrix.from_columns(cols, row_count=a.row_count)) == base

    padded = IntMatrix.from_columns(
        [*a.transpose().rows, (0,) * a.row_count], row_count=a.row_count
    )
    assert cokernel(padded) == base


def diagonal_matrices(max_size=5):
    """Diagonal matrices of any shape; about half keep every law of a Smith form.

    Those take their diagonal from running products of 0, 1, 2 and 3,
    which makes it nonnegative, a divisibility chain and zeros last;
    the others take any small entries.
    """

    def build(shape):
        m, n = shape
        k = min(m, n)
        chain = st.lists(st.sampled_from((0, 1, 2, 3)), min_size=k, max_size=k).map(
            lambda steps: list(itertools.accumulate(steps, mul))
        )
        anything = st.lists(st.integers(-6, 6), min_size=k, max_size=k)
        return st.one_of(chain, anything).map(lambda d: diagonal_matrix(m, n, d))

    return st.tuples(st.integers(0, max_size), st.integers(0, max_size)).flatmap(build)


@given(st.one_of(diagonal_matrices(), matrices()))
def test_cokernel_is_the_quotient_by_the_smith_diagonal(a):
    # The Smith diagonal from the minor oracle, which shares no code with
    # snf; about half the diagonal inputs are a Smith form already.
    factors = invariant_factors_from_divisors(determinantal_divisors(a))
    assert cokernel(a) == FGAbelianGroup.quotient(a.row_count, factors)


@given(matrices())
def test_integer_kernel_composition(a):
    k = integer_kernel(a)
    assert a @ k == zeros(a.row_count, k.col_count)
    assert k.col_count == a.col_count - snf(a).rank()


@given(
    matrices(max_rows=5, max_cols=3, max_entry=6),
    st.lists(st.integers(-9, 9), min_size=3, max_size=3),
)
def test_solve_in_lattice_recovers_coordinates(a, coeffs):
    # Restrict to bases: keep only the independent-column case.
    if snf(a).rank() != a.col_count:
        return
    x = IntMatrix.from_columns([coeffs[: a.col_count]], row_count=a.col_count)
    assert solve_in_lattice(a, a @ x) == x


def gcd_chain_rows(max_size=7):
    """Integer rows that walk every branch of the prefix gcds of ``_bezout_vector``.

    Zeros, leading ones included, small entries of either sign and
    entries up to 200 bits; a single entry and all zeros are in range.
    """
    entry = st.one_of(
        st.just(0), st.integers(-12, 12), st.integers(-(2**200), 2**200)
    )
    return st.lists(entry, min_size=1, max_size=max_size)


@example(w=[])
@given(gcd_chain_rows())
def test_bezout_vector_pairs_the_row_to_its_gcd(w):
    e = exact_linalg._bezout_vector(w)
    assert len(e) == len(w)
    assert sum(map(mul, w, e)) == math.gcd(*w)


@example(w=list(range(1, 41)), target_count=3, rng=random.Random(0))
@example(w=[6, 10, 15], target_count=2, rng=random.Random(1))
@example(w=[2**200 + 1], target_count=1, rng=random.Random(2))
@given(
    st.lists(st.integers(1, 2**200), min_size=1, max_size=7),
    st.integers(0, 4),
    st.randoms(use_true_random=False),
)
def test_section_route_matches_the_reference_quotient(w, target_count, rng):
    # Z^n modulo [e | D] against D written in a saturated kernel basis of
    # w by two Smith decompositions, then its cokernel by a third.
    basis = integer_kernel(IntMatrix.from_rows([w]))
    coeffs = IntMatrix.from_rows(
        [[rng.randint(-5, 5) for _ in range(target_count)] for _ in range(basis.col_count)],
        col_count=target_count,
    )
    degrees = basis @ coeffs
    reference = cokernel(solve_in_lattice(basis, degrees))
    assert compute_b0(WeightVector(w), degrees) == reference


@settings(max_examples=60)
@given(matrices(max_rows=4, max_cols=4))
def test_rank_counts_match(a):
    dec = snf(a)
    assert dec.rank() == len(dec.nonzero_diagonal())
    nonzero_divisors = sum(1 for d in determinantal_divisors(a) if d)
    assert nonzero_divisors == dec.rank()


def _whole_line_replay(log, w):
    """``log`` applied one addition at a time to whole lines of a copy of ``w``: the reference."""
    w = [list(row) for row in w]
    for kind, *args in log:
        if kind == "add rows":
            i, adds = args
            for j, f in adds:
                w[j] = [x + f * y for x, y in zip(w[j], w[i])]
        elif kind == "add columns":
            i, adds = args
            for j, f in adds:
                for row in w:
                    row[j] += f * row[i]
        elif kind == "swap rows":
            i, j = args
            w[i], w[j] = w[j], w[i]
        elif kind == "swap columns":
            i, j = args
            for row in w:
                row[i], row[j] = row[j], row[i]
        else:
            (i,) = args
            w[i] = [-e for e in w[i]]
    return w


@st.composite
def replay_cases(draw):
    """``w``, a valid log, and the row and column spans of the log.

    ``w`` is m-by-n, or bordered as the transform readers border it:
    m-by-(n+m) for ``u``, (m+n)-by-n for ``v``.  The log is batches of
    one to three additions from one source line, a target possibly
    repeated, each followed by nothing or by an operation that may change
    that source: a batch into it, a batch of the other kind, a swap of
    it or a negation of a row.  The next batch takes the same source
    again half of the time.
    """
    m, n = draw(st.integers(2, 4)), draw(st.integers(2, 4))
    rows, cols = draw(st.sampled_from([(m, n), (m, n + m), (m + n, n)]))
    entry = st.sampled_from((0, 0, 0, 1, -1, 2, -3))
    w = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows))
    factor = st.integers(-3, 3).filter(bool)

    def other_than(i, span):
        k = draw(st.integers(0, span - 2))
        return k + (k >= i)

    def batch(kind, src, span):
        adds = tuple((other_than(src, span), draw(factor)) for _ in range(draw(st.integers(1, 3))))
        return (kind, src, adds)

    log, kind, src = [], "add rows", 0
    for _ in range(draw(st.integers(1, 5))):
        if draw(st.booleans()):
            kind = draw(st.sampled_from(["add rows", "add columns"]))
            src = draw(st.integers(0, (m if kind == "add rows" else n) - 1))
        span, other_span = (m, n) if kind == "add rows" else (n, m)
        log.append(batch(kind, src, span))
        change = draw(st.sampled_from(["none", "add into", "other kind", "swap", "negate"]))
        if change == "add into":
            log.append((kind, other_than(src, span), ((src, draw(factor)),)))
        elif change == "other kind":
            other_kind = "add columns" if kind == "add rows" else "add rows"
            log.append(batch(other_kind, draw(st.integers(0, other_span - 1)), other_span))
        elif change == "swap":
            log.append((kind.replace("add", "swap"), src, other_than(src, span)))
        elif change == "negate":
            log.append(("negate row", src if kind == "add rows" else draw(st.integers(0, m - 1))))
    return w, tuple(log), m, n


@settings(max_examples=300)
@given(replay_cases())
# A batch from row 0, an addition into row 0, and the batch again: the
# second batch must read row 0 anew.
@example(([[1, 1], [1, 0]], (("add rows", 0, ((1, 1),)), ("add rows", 1, ((0, 1),)),
                             ("add rows", 0, ((1, 1),))), 2, 2))
# A negation replaces a row that holds the source column of the batch.
@example(([[1, 0], [0, 1]], (("add columns", 0, ((1, 1),)), ("negate row", 0),
                             ("add columns", 0, ((1, 1),))), 2, 2))
# A batch that adds to one target twice.
@example(([[1, 2], [3, 4]], (("add columns", 0, ((1, 1), (1, -2))),), 2, 2))
def test_replay_matches_a_whole_line_replay(case):
    # The replay touches only the nonzero entries of a source line and
    # reads them once per batch; the result is what whole-line
    # operations, one addition at a time, give.
    w, log, m, n = case
    expected = _whole_line_replay(log, w)
    assert exact_linalg._replay(log, [list(row) for row in w], m, n) == expected
