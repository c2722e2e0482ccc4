"""Exact linear algebra over the integers.

This module is the arithmetic engine of the package: the Smith normal
form with its unimodular transformation matrices, integer kernels,
lattice membership tests, and cokernels as finitely generated abelian
groups.

``kernel_coordinates(row, targets)`` writes targets in a saturated basis
of the kernel of one integer row.  It builds the basis from the gcd
chain of the row's entries, in O(n) operations per target, and makes no
Smith decomposition.  ``integer_kernel`` followed by
``solve_in_lattice`` gives the same lattice with two decompositions and
stays as the reference path.

Everything works on Python's native ``int``, which is arbitrary
precision.  That is not a convenience but a requirement: the
intermediate entries of a Smith reduction can exceed 64 bits even for
small inputs, so fixed-width arithmetic is never used here.

Three deliberately different routes to the invariant factors coexist:

* ``snf`` diagonalizes by unimodular row and column operations and
  returns the transforms with the diagonal.  It is the only route for
  anything that reads a transform, and its output is proved (below);
* ``local_invariant_factors`` builds the Smith form one prime at a
  time, modulo ``p^(e+1)`` for each ``p^e`` exactly dividing a gcd of
  two nonzero maximal minors, and keeps no transforms.  When that gcd
  is 1 it eliminates nothing.  It is trusted for the factors alone,
  where a verified ``snf`` also derives them: the quotient route of
  B(X)_0 against the kernel route, and ``chowfiber snf --check`` past
  the oracle's size limit;
* ``determinantal_divisors`` enumerates all k-by-k minors and takes
  gcds.  It is exponential and size-capped, but it shares no code with
  the reduction, which makes it a trustworthy independent oracle:
  invariant factor k equals ``d_k / d_{k-1}``.

One fraction-free (Bareiss) elimination, ``_rank_and_minor``, serves
``determinant``, the ``det v = ±1`` law below, the oracle's minors and
the local route's two minors.  It is part of no reduction, and a test
against cofactor expansion is its reference.

``snf`` always re-verifies its own output and raises
:class:`SelfCheckError` if the verification fails, so a silently wrong
decomposition cannot propagate into downstream group computations.  The
proof is ``u @ u_inv == I``, ``a @ v == u_inv @ s`` and ``det v = ±1``,
with ``s`` diagonal, nonnegative, zeros last and a divisibility chain.
It is complete: ``u @ u_inv == I`` makes ``u`` unimodular with inverse
``u_inv``, so ``a @ v == u_inv @ s`` holds exactly when ``u @ a @ v ==
s``.  Products skip the zero entries of their left operand, so checking
transforms near the identity costs what they hold.
"""

from __future__ import annotations

import itertools
import sys
from collections.abc import Iterable, Sequence
from math import gcd, prod
from operator import add, index, mul

from ._value import Value


class NotInLattice(Exception):
    """Raised when a vector has no integer coordinates in the given basis."""


class OracleSizeLimitError(ValueError):
    """Raised when a matrix is too large for exhaustive minor enumeration."""


class SelfCheckError(RuntimeError):
    """An internal consistency check failed; the result cannot be trusted."""


class MatrixFormatError(ValueError):
    """Raised on malformed matrix text (see :func:`parse_matrix_text`)."""


#: Largest min(rows, cols) accepted by the determinantal-divisor oracle.
#: Minor enumeration is exponential; the oracle exists to be trustworthy
#: at desk scale, not to be fast.
ORACLE_SIZE_LIMIT = 8

#: Largest row or column count :func:`parse_matrix_text` accepts.  The
#: Smith transforms are square in each dimension and the elimination and
#: its check are cubic on dense input (on sparse transforms the check
#: costs what they hold), so a short header must not be able to declare
#: a huge matrix.
MAX_MATRIX_DIM = 256


def int_text(n: int) -> str:
    """The decimal digits of ``n`` in full, however many there are.

    ``str`` refuses integers longer than the interpreter's digit limit
    (``sys.get_int_max_str_digits()``, 4,300 by default); those are
    split at a power of ten into halves that ``str`` accepts.
    """
    try:
        return str(n)
    except ValueError:
        pass
    half = n.bit_length() * 3 // 20  # about half the decimal digits
    high, low = divmod(abs(n), 10**half)
    return ("-" if n < 0 else "") + int_text(high) + int_text(low).zfill(half)


def too_many_digits() -> str:
    """The error text for an integer literal past the interpreter's digit limit."""
    return f"integer literal has more than {sys.get_int_max_str_digits():,} digits"


class IntMatrix(Value):
    """A dense, immutable integer matrix.

    ``rows`` is a tuple of row tuples.  ``row_count`` and ``col_count``
    are stored explicitly so that empty shapes (0 rows and/or 0 columns)
    are first-class values rather than edge cases.
    """

    __slots__ = ("row_count", "col_count", "rows")
    row_count: int
    col_count: int
    rows: tuple[tuple[int, ...], ...]

    def __init__(self, row_count: int, col_count: int, rows: tuple[tuple[int, ...], ...]) -> None:
        """Coerce every entry with ``operator.index``, then check the shape."""
        rows = tuple(tuple(map(index, row)) for row in rows)
        self._set_fields(row_count, col_count, rows)
        for row in rows:
            if len(row) != col_count:
                raise ValueError("ragged rows: all rows must have col_count entries")

    def _set_fields(self, row_count: int, col_count: int, rows: tuple[tuple[int, ...], ...]) -> None:
        if row_count < 0 or col_count < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(rows) != row_count:
            raise ValueError("row count does not match the number of rows")
        object.__setattr__(self, "row_count", row_count)
        object.__setattr__(self, "col_count", col_count)
        object.__setattr__(self, "rows", rows)

    # -- constructors ------------------------------------------------

    @classmethod
    def _trusted(cls, row_count: int, col_count: int, rows: tuple[tuple[int, ...], ...]) -> IntMatrix:
        """The constructor without its entry coercion and per-row length check.

        Only for rows of ``col_count`` ints that the caller built itself
        (``snf``, products, transposes, ``kernel_coordinates``, from the
        entries of an ``IntMatrix`` and a row it coerced, and
        ``local_invariant_factors``); input from anywhere else goes
        through the checked constructor.
        """
        m = object.__new__(cls)
        m._set_fields(row_count, col_count, rows)
        return m

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]], col_count: int | None = None) -> IntMatrix:
        """Build a matrix from an iterable of rows.

        ``col_count`` is only needed when ``rows`` is empty, in which
        case the result is a 0-by-``col_count`` matrix.
        """
        data = tuple(map(tuple, rows))
        if data:
            width = len(data[0])
            if col_count is not None and col_count != width:
                raise ValueError("col_count disagrees with the supplied rows")
            return cls(len(data), width, data)
        if col_count is None:
            raise ValueError("col_count is required for a matrix with no rows")
        return cls(0, col_count, ())

    @classmethod
    def from_columns(cls, columns: Iterable[Iterable[int]], row_count: int | None = None) -> IntMatrix:
        """Build a matrix whose columns are the given vectors."""
        cols = [tuple(c) for c in columns]
        if cols:
            height = len(cols[0])
            if any(len(c) != height for c in cols):
                raise ValueError("ragged columns")
            if row_count is not None and row_count != height:
                raise ValueError("row_count disagrees with the supplied columns")
            return cls(height, len(cols), tuple(zip(*cols)) if height else ())
        if row_count is None:
            raise ValueError("row_count is required for a matrix with no columns")
        return cls(row_count, 0, ((),) * row_count)

    # -- accessors ---------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return (self.row_count, self.col_count)

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(row[j] for row in self.rows)

    def transpose(self) -> IntMatrix:
        rows = tuple(zip(*self.rows)) if self.row_count else ((),) * self.col_count
        return IntMatrix._trusted(self.col_count, self.row_count, rows)

    def diagonal_entries(self) -> tuple[int, ...]:
        return tuple(self.rows[i][i] for i in range(min(self.row_count, self.col_count)))

    # -- arithmetic --------------------------------------------------

    def __matmul__(self, other: IntMatrix) -> IntMatrix:
        if self.col_count != other.row_count:
            raise ValueError(f"shape mismatch for product: {self.shape} @ {other.shape}")
        # Each result row adds up the right operand's rows, scaled by the
        # nonzero entries of the left row, so a sparse left operand (a
        # Smith transform near the identity) costs what it holds.
        rows = []
        for row in self.rows:
            acc: tuple[int, ...] | None = None
            for e, other_row in zip(row, other.rows):
                if e:
                    term = other_row if e == 1 else map(mul, itertools.repeat(e), other_row)
                    acc = tuple(term) if acc is None else tuple(map(add, acc, term))
            rows.append((0,) * other.col_count if acc is None else acc)
        return IntMatrix._trusted(self.row_count, other.col_count, tuple(rows))

    def apply(self, vector: Sequence[int]) -> tuple[int, ...]:
        """Matrix-vector product."""
        if len(vector) != self.col_count:
            raise ValueError("vector length does not match column count")
        return tuple(sum(a * b for a, b in zip(row, vector)) for row in self.rows)

    def __str__(self) -> str:
        if self.row_count == 0 or self.col_count == 0:
            return f"<empty {self.row_count}x{self.col_count} matrix>"
        text = [[int_text(e) for e in row] for row in self.rows]
        widths = [max(len(text[i][j]) for i in range(self.row_count)) for j in range(self.col_count)]
        return "\n".join(
            "[ " + "  ".join(t.rjust(w) for t, w in zip(row, widths)) + " ]"
            for row in text
        )


class SmithDecomposition(Value):
    """A Smith normal form ``s = u @ a @ v`` with unimodular ``u`` and ``v``.

    ``s`` is diagonal with nonnegative entries, each nonzero diagonal
    entry divides the next, and zero entries come last.  ``u_inv`` is
    the inverse of ``u``, accumulated alongside it.
    """

    __slots__ = ("s", "u", "v", "u_inv")
    s: IntMatrix
    u: IntMatrix
    v: IntMatrix
    u_inv: IntMatrix

    def rank(self) -> int:
        return sum(1 for d in self.s.diagonal_entries() if d != 0)

    def nonzero_diagonal(self) -> tuple[int, ...]:
        return tuple(d for d in self.s.diagonal_entries() if d != 0)


class FGAbelianGroup(Value):
    """A finitely generated abelian group ``Z^rank + Z/f_1 + ... + Z/f_k``.

    The invariant factors form a divisibility chain and every factor is
    at least 2, so each abstract isomorphism class has exactly one
    representation and ``==`` decides isomorphism.
    """

    __slots__ = ("rank", "invariant_factors")
    rank: int
    invariant_factors: tuple[int, ...]

    def __init__(self, rank: int, invariant_factors: Iterable[int] = ()) -> None:
        rank = index(rank)
        if rank < 0:
            raise ValueError("rank must be nonnegative")
        factors = tuple(map(index, invariant_factors))
        for f in factors:
            if f < 2:
                raise ValueError("invariant factors must be >= 2")
        for a, b in zip(factors, factors[1:]):
            if b % a != 0:
                raise ValueError("invariant factors must form a divisibility chain")
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "invariant_factors", factors)

    @classmethod
    def quotient(cls, ambient_rank: int, factors: Sequence[int]) -> FGAbelianGroup:
        """``Z^ambient_rank`` modulo a lattice whose nonzero invariant factors are ``factors``."""
        return cls(ambient_rank - len(factors), tuple(f for f in factors if f >= 2))

    def __str__(self) -> str:
        parts: list[str] = []
        if self.rank == 1:
            parts.append("Z")
        elif self.rank > 1:
            parts.append(f"Z^{self.rank}")
        parts.extend(f"Z/{int_text(f)}" for f in self.invariant_factors)
        return " ⊕ ".join(parts) if parts else "0"


# ----------------------------------------------------------------------
# determinants
# ----------------------------------------------------------------------


def determinant(a: IntMatrix) -> int:
    """Exact determinant of a square matrix (fraction-free elimination)."""
    if a.row_count != a.col_count:
        raise ValueError("determinant requires a square matrix")
    rank, minor = _rank_and_minor(a)
    return minor if rank == a.row_count else 0


def _rank_and_minor(a: IntMatrix) -> tuple[int, int]:
    """The rank ``r`` of ``a`` and a nonzero r-by-r minor, signed by the row swaps.

    Bareiss elimination, column by column: the first nonzero row at or
    below the current rank is the pivot row, and a column without one is
    skipped.  After k pivots each entry below the pivot rows and right of
    the last pivot column is a (k+1)-by-(k+1) minor of ``a``, so every
    division is exact.  The last pivot (1 at rank 0) times the sign of
    the row swaps is returned; on a square matrix of full rank it is the
    determinant.
    """
    m, n = a.shape
    w = [list(row) for row in a.rows]
    rank, sign, prev = 0, 1, 1
    for k in range(n):
        for i in range(rank, m):
            if w[i][k]:
                break
        else:
            continue  # no pivot in this column
        if i != rank:
            w[rank], w[i], sign = w[i], w[rank], -sign
        pivot_row, p = w[rank], w[rank][k]
        for row in itertools.islice(w, rank + 1, None):
            f = row[k]
            if f == 0 and p == prev:
                continue  # the update would give the row back unchanged
            for j in range(k + 1, n):
                row[j] = (row[j] * p - f * pivot_row[j]) // prev
            row[k] = 0
        rank, prev = rank + 1, p
    return rank, sign * prev


# ----------------------------------------------------------------------
# Smith normal form
# ----------------------------------------------------------------------


def snf(a: IntMatrix) -> SmithDecomposition:
    """Smith normal form with transforms, self-verified before returning.

    Every round moves a nonzero entry of minimal absolute value in the
    remaining submatrix to ``(t, t)`` and reduces column ``t``, then row
    ``t``, by floor quotients.  A remainder left behind is smaller than
    the pivot, so the next round's pivot is strictly smaller; once the
    row and column are clear, adding a row the pivot does not divide
    leaves a remainder in the next round.  The pivot magnitude therefore
    shrinks to termination.  Re-picking the smallest entry every round,
    rather than promoting whichever remainder turns up first, is also
    what keeps the transform entries polynomially sized.

    One list ``w`` holds ``[s | u]`` in rows ``0..m-1`` and ``v`` below.
    A row operation is one list operation on ``[s | u]``, mirrored by
    its inverse column operation on ``u_inv`` so that ``u_inv`` stays
    the inverse of ``u``.  A column operation (index below ``n``) runs
    once over rows ``t..``: the unfinished rows of ``s`` (rows and
    columns before ``t`` are finished, zero off the diagonal) and every
    row of ``v``.  The updates skip swaps of a line with itself and rows
    of ``v`` and ``u_inv`` whose source entry is 0.  A ±1 pivot ends its
    round at once: it leaves no remainder and divides everything.

    Before returning, :func:`_verify_snf` proves ``u @ u_inv == I``,
    ``a @ v == u_inv @ s`` and ``det v = ±1`` together with the laws of
    the diagonal; as ``u`` is then unimodular with inverse ``u_inv``,
    this is the same as ``u @ a @ v == s``.
    """
    m, n = a.shape
    w = [list(row) + [0] * m for row in a.rows] + [[0] * n for _ in range(n)]
    u_inv = [[0] * m for _ in range(m)]
    for i in range(m):
        w[i][n + i] = u_inv[i][i] = 1
    for j in range(n):
        w[m + j][j] = 1

    def swap_rows(i: int, j: int) -> None:
        w[i], w[j] = w[j], w[i]
        for row in u_inv:
            row[i], row[j] = row[j], row[i]

    def swap_cols(t: int, j: int) -> None:
        for row in itertools.islice(w, t, None):
            row[t], row[j] = row[j], row[t]

    def add_row(src: int, dst: int, factor: int) -> None:
        w[dst] = [p + factor * q for p, q in zip(w[dst], w[src])]
        for row in u_inv:
            if row[dst]:
                row[src] -= factor * row[dst]

    def add_col(t: int, dst: int, factor: int) -> None:
        for row in itertools.islice(w, t, None):
            if row[t]:
                row[dst] += factor * row[t]

    def find_pivot(t: int) -> tuple[int, int] | None:
        best: tuple[int, int] | None = None
        best_abs = 0
        for i in range(t, m):
            for j in range(t, n):
                e = w[i][j]
                if e != 0 and (best is None or abs(e) < best_abs):
                    best, best_abs = (i, j), abs(e)
                    if best_abs == 1:
                        return best
        return best

    for t in range(min(m, n)):
        while (pos := find_pivot(t)) is not None:
            if pos[0] != t:
                swap_rows(t, pos[0])
            if pos[1] != t:
                swap_cols(t, pos[1])
            p = w[t][t]
            for i in range(t + 1, m):
                if w[i][t]:
                    add_row(t, i, -(w[i][t] // p))
            for j in range(t + 1, n):
                if w[t][j]:
                    add_col(t, j, -(w[t][j] // p))
            if p in (1, -1):
                break  # a unit leaves no remainder and divides everything
            if any(w[i][t] for i in range(t + 1, m)) or any(w[t][t + 1 : n]):
                continue
            # Row and column are clear; force the pivot to divide the
            # whole remaining submatrix, so the diagonal comes out as a
            # divisibility chain.
            offender = next(
                (i for i in range(t + 1, m) if any(e % p for e in w[i][t + 1 : n])),
                None,
            )
            if offender is None:
                break
            add_row(offender, t, 1)
        else:
            break  # the remaining submatrix is zero

        if w[t][t] < 0:
            w[t] = [-e for e in w[t]]
            for row in u_inv:
                row[t] = -row[t]

    # s, u, v, u_inv: every row is a full-length tuple of ints, so skip the checks.
    result = SmithDecomposition(
        IntMatrix._trusted(m, n, tuple(tuple(row[:n]) for row in w[:m])),
        IntMatrix._trusted(m, m, tuple(tuple(row[n:]) for row in w[:m])),
        IntMatrix._trusted(n, n, tuple(map(tuple, w[m:]))),
        IntMatrix._trusted(m, m, tuple(map(tuple, u_inv))),
    )
    _verify_snf(a, result)
    return result


def _verify_snf(a: IntMatrix, dec: SmithDecomposition) -> None:
    """Prove ``dec`` a Smith decomposition of ``a``, or raise :class:`SelfCheckError`.

    The checks are ``s`` diagonal, ``u @ u_inv == I``, ``a @ v ==
    u_inv @ s`` and ``det v = ±1``, then the sign, order and divisibility
    laws of the diagonal.  They are complete: an integer matrix with an
    integer inverse has determinant ±1, so ``u @ u_inv == I`` makes
    ``u`` unimodular with inverse ``u_inv``, and multiplying ``a @ v ==
    u_inv @ s`` on the left by ``u`` gives ``u @ a @ v == s``.  As ``s``
    is diagonal, ``u_inv @ s`` only scales the columns of ``u_inv``.
    """
    m, n = a.shape
    shapes = (dec.s.shape, dec.u.shape, dec.u_inv.shape, dec.v.shape)
    if shapes != ((m, n), (m, m), (m, m), (n, n)):
        raise SelfCheckError("Smith decomposition has the wrong shape")
    diag = dec.s.diagonal_entries()
    for i, row in enumerate(dec.s.rows):
        if any(row[:i]) or any(row[i + 1 :]):
            raise SelfCheckError("Smith form is not diagonal")
    for i, row in enumerate((dec.u @ dec.u_inv).rows):
        if row[i] != 1 or any(row[:i]) or any(row[i + 1 :]):
            raise SelfCheckError("Smith row transform does not match its inverse")
    padding = (0,) * (n - len(diag))
    for row, av_row in zip(dec.u_inv.rows, (a @ dec.v).rows):
        if av_row != tuple(map(mul, row, diag)) + padding:
            raise SelfCheckError("Smith decomposition does not reproduce the input")
    if determinant(dec.v) not in (1, -1):
        raise SelfCheckError("Smith column transform is not unimodular")
    if any(d < 0 for d in diag):
        raise SelfCheckError("Smith diagonal has a negative entry")
    for p, q in zip(diag, diag[1:]):
        if q and not p:
            raise SelfCheckError("zero entries must come last on the Smith diagonal")
        if p and q % p:
            raise SelfCheckError("Smith diagonal is not a divisibility chain")


# ----------------------------------------------------------------------
# local Smith forms
# ----------------------------------------------------------------------

#: Trial division of the minor gcd stops past this divisor; a cofactor
#: left over is treated as a prime until a gcd shows it composite.
_TRIAL_DIVISION_BOUND = 1000


class _Composite(Exception):
    """Carries a proper divisor of a modulus that was treated as a prime."""


def local_invariant_factors(a: IntMatrix) -> tuple[int, ...]:
    """The nonzero invariant factors of ``a``, 1s included, built without transforms.

    Returns what ``snf(a).nonzero_diagonal()`` returns, one prime at a
    time (local Smith forms, Saunders & Wan, ISSAC 2004).  With ``r``
    the rank, the factors ``s_1 | … | s_r`` multiply to ``d_r(a)``, the
    gcd of all r-by-r minors, so they divide the gcd ``g`` of the two
    nonzero minors :func:`_rank_and_minor` finds on ``a`` and on ``a``
    with its columns reversed.  When ``g`` is 1 every factor is 1.
    Otherwise, for each ``p^e ∥ g``, no factor holds ``p`` more than
    ``e`` times, so the Smith form of ``a`` over ``Z/p^(e+1)`` has
    ``r`` nonzero pivots whose valuations are those of the factors at
    ``p`` (:func:`_local_valuations`).

    ``g`` is factored by trial division up to a fixed bound, and a
    cofactor left over is treated as a prime (the D5 principle of Della
    Dora, Dicrescenzo & Duval, EUROCAL 1985): the elimination inverts
    only entries it finds prime to the modulus, and one that shares a
    proper factor with it splits the modulus, after which every prime
    is worked again on the finer factors.  The factors must form a
    divisibility chain whose product divides ``g``, or
    :class:`SelfCheckError` is raised.
    """
    r, minor = _rank_and_minor(a)
    if r == 0:
        return ()
    g = abs(minor)
    if g != 1:
        mirrored = IntMatrix._trusted(a.row_count, a.col_count, tuple(row[::-1] for row in a.rows))
        g = gcd(g, _rank_and_minor(mirrored)[1])
    primes, rest = [], g
    for p in range(2, _TRIAL_DIVISION_BOUND + 1):
        if p * p > rest:
            break
        if rest % p == 0:
            primes.append(p)
            while rest % p == 0:
                rest //= p
    if rest > 1:
        primes.append(rest)
    while True:
        factors = [1] * r
        try:
            for p in primes:
                e, rest = 0, g
                while rest % p == 0:
                    e, rest = e + 1, rest // p
                for i, v in enumerate(_local_valuations(a, p, e + 1, r)):
                    factors[i] *= p**v
            break
        except _Composite as split:
            primes = _coprime_base(primes + [split.args[0]])
    if g % prod(factors):
        raise SelfCheckError(
            f"local invariant factors {factors} do not divide the minor gcd {int_text(g)}"
        )
    if any(y % x for x, y in zip(factors, factors[1:])):
        raise SelfCheckError(f"local invariant factors {factors} are not a divisibility chain")
    return tuple(factors)


def _local_valuations(a: IntMatrix, p: int, k: int, r: int) -> list[int]:
    """Valuations at ``p`` of the first ``r`` pivots of the Smith form of ``a`` modulo ``p**k``.

    Entries are kept as residues modulo ``q = p**(k - shift)``, where
    ``shift`` counts the times every remaining entry was divisible by
    ``p`` and was divided by it.  The pivot is an entry prime to ``p``,
    of valuation ``shift`` in ``a``'s terms, which no other remaining
    entry undercuts.  Its row is dropped and its inverse modulo ``q``
    clears its column, which stays zero from then on.  Pivots that
    vanish modulo ``p**k`` read as valuation ``k``.  Raises
    :class:`_Composite` when an entry not divisible by ``p`` still
    shares a factor with it.
    """
    q = p**k
    w = [[e % q for e in row] for row in a.rows]
    valuations: list[int] = []
    shift = 0
    while len(valuations) < r:
        pos = next(((i, j) for i, row in enumerate(w) for j, e in enumerate(row) if e % p), None)
        if pos is None:
            if not any(map(any, w)):
                return valuations + [k] * (r - len(valuations))
            w = [[e // p for e in row] for row in w]
            q //= p
            shift += 1
            continue
        i, j = pos
        pivot_row = w.pop(i)
        if (f := gcd(pivot_row[j], p)) != 1:
            raise _Composite(f)
        inverse = pow(pivot_row[j], -1, q)
        for row in w:
            if c := row[j] * inverse % q:
                row[:] = [(e - c * t) % q for e, t in zip(row, pivot_row)]
        valuations.append(shift)
    return valuations


def _coprime_base(numbers: list[int]) -> list[int]:
    """Pairwise coprime numbers above 1 whose powers multiply to each of ``numbers``."""
    base: list[int] = []
    todo = [n for n in numbers if n > 1]
    while todo:
        x = todo.pop()
        for i, y in enumerate(base):
            if (f := gcd(x, y)) > 1:
                del base[i]
                todo += [n for n in (f, x // f, y // f) if n > 1]
                break
        else:
            base.append(x)
    return base


# ----------------------------------------------------------------------
# determinantal-divisor oracle
# ----------------------------------------------------------------------


def determinantal_divisors(a: IntMatrix) -> list[int]:
    """gcd of all k-by-k minors, for k = 1 .. min(rows, cols).

    Entry k (1-based) is 0 when every k-by-k minor vanishes.  This is
    the independent oracle for invariant factors: factor k equals
    ``d_k / d_{k-1}`` with ``d_0 = 1``.  Deliberately naive; refuses
    matrices with min-dimension beyond :data:`ORACLE_SIZE_LIMIT`.
    """
    m, n = a.shape
    k_max = min(m, n)
    if k_max > ORACLE_SIZE_LIMIT:
        raise OracleSizeLimitError(
            f"oracle size limit: min(rows, cols) = {k_max} exceeds "
            f"{ORACLE_SIZE_LIMIT}; minor enumeration is exponential"
        )
    divisors: list[int] = []
    for k in range(1, k_max + 1):
        g = 0
        for row_sel in itertools.combinations(range(m), k):
            for col_sel in itertools.combinations(range(n), k):
                minor = IntMatrix.from_rows(
                    [[a.rows[i][j] for j in col_sel] for i in row_sel],
                    col_count=k,
                )
                g = gcd(g, determinant(minor))
                if g == 1:
                    break
            if g == 1:
                break
        divisors.append(g)
        if g == 0:
            # rank < k, so all larger minors vanish too
            divisors.extend([0] * (k_max - k))
            break
    return divisors


def invariant_factors_from_divisors(divisors: Sequence[int]) -> list[int]:
    """Successive quotients ``d_k / d_{k-1}`` up to the last nonzero divisor."""
    factors: list[int] = []
    prev = 1
    for d in divisors:
        if d == 0:
            break
        factors.append(d // prev)
        prev = d
    return factors


# ----------------------------------------------------------------------
# derived constructions
# ----------------------------------------------------------------------


def cokernel(a: IntMatrix) -> FGAbelianGroup:
    """The group ``Z^rows / column-span(a)``, from a verified Smith decomposition."""
    return FGAbelianGroup.quotient(a.row_count, snf(a).nonzero_diagonal())


def integer_kernel(a: IntMatrix) -> IntMatrix:
    """A saturated basis of ``{x : a @ x == 0}``, as matrix columns.

    The basis consists of the kernel-aligned columns of the Smith column
    transform, so it is automatically a direct summand of the ambient
    lattice.
    """
    dec = snf(a)
    r = dec.rank()
    cols = [dec.v.column(j) for j in range(r, a.col_count)]
    return IntMatrix.from_columns(cols, row_count=a.col_count)


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """``(g, x, y)`` with ``g = gcd(a, b) >= 0`` and ``x*a + y*b == g``."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return (a, x0, y0) if a >= 0 else (-a, -x0, -y0)


def _gcd_chain(row: Sequence[int]) -> list[tuple[int, int, int]]:
    """The prefix gcds of ``row``, each with its Bézout step, checked.

    Entry ``k`` is ``(g_k, a_k, b_k)`` with ``g_k = gcd(row[:k+1]) =
    a_k·g_(k−1) + b_k·row[k]`` and ``g_(−1) = 0``.  Each step must hold
    that identity with ``g_k >= 0`` dividing both ``g_(k−1)`` and
    ``row[k]`` (both zero when ``g_k`` is), which makes ``g_k`` their
    gcd; otherwise :class:`SelfCheckError` is raised.
    """
    chain: list[tuple[int, int, int]] = []
    prev = 0
    for k, w in enumerate(row):
        g, a, b = step = _xgcd(prev, w)
        if a * prev + b * w != g or g < 0 or (prev % g or w % g if g else prev or w):
            raise SelfCheckError(f"Bézout step {k} of the gcd chain is wrong")
        chain.append(step)
        prev = g
    return chain


def kernel_coordinates(row: Sequence[int], targets: IntMatrix) -> IntMatrix:
    """Coordinates of every column of ``targets`` in a saturated basis of ``ker(row)``.

    The basis is the triangular one the gcd chain of ``row`` gives
    (Bradley, *Math. Comp.* 25, 1971), so no Smith decomposition is
    made.  With ``g_k``, ``a_k`` and ``b_k`` from :func:`_gcd_chain`,
    ``p_k = (a_k·p_(k−1), b_k)`` pairs to ``g_k`` against ``row[:k+1]``.
    Past the first nonzero entry ``f``, column ``k`` is
    ``(−(row[k]/g_k)·p_(k−1), g_(k−1)/g_k, 0, …)``; before it, column
    ``k`` is the unit vector ``e_k``; ``f`` itself has no column.

    A target is solved from its last entry down.  The part of the
    columns already solved that lies at and above entry ``k`` is a
    multiple of ``p_k``, so one running scalar carries it and a target
    costs O(n) operations.  Each result is then checked by evaluating
    the basis on its coordinates, and :class:`SelfCheckError` is raised
    unless that gives the target back.  Raises :class:`NotInLattice`
    when some column pairs to nonzero against ``row``.
    """
    n = len(row)
    if targets.row_count != n:
        raise ValueError("targets row count does not match the row length")
    row = tuple(map(index, row))
    chain = _gcd_chain(row)
    first = next((k for k, w in enumerate(row) if w), n)
    # Column k past `first`, from the last one up: k, its entry
    # g_(k−1)/g_k at k, row[k]/g_k and the Bézout step (a_k, b_k).
    steps = [
        (k, chain[k - 1][0] // chain[k][0], row[k] // chain[k][0], *chain[k][1:])
        for k in range(n - 1, first, -1)
    ]
    unit = chain[first][2] if first < n else 0  # p_f = unit·e_f
    columns = []
    for t in zip(*targets.rows) if n else ((),) * targets.col_count:
        if sum(map(mul, row, t)):
            raise NotInLattice("target pairs to a nonzero value against the row")
        c = list(t)  # entries before `first` are their own coordinates
        s = 0
        for k, q, m, a, b in steps:
            c[k] = (t[k] + s * b) // q
            s = s * a + c[k] * m
        # The check: the basis evaluated on c, where -s·p_k is the part of
        # the columns past k at and above entry k, gives t back.
        rebuilt, s = c[:], 0
        for k, q, m, a, b in steps:
            rebuilt[k] = c[k] * q - s * b
            s = s * a + c[k] * m
        if first < n:
            rebuilt[first] = -s * unit
        if tuple(rebuilt) != t:
            raise SelfCheckError("kernel coordinates do not rebuild their target")
        del c[first : first + 1]
        columns.append(c)
    rank = n - (first < n)  # of ker(row)
    rows = tuple(zip(*columns)) if columns else ((),) * rank
    return IntMatrix._trusted(rank, targets.col_count, rows)


def solve_in_lattice(basis: IntMatrix, targets: IntMatrix) -> IntMatrix:
    """Integer coordinates of every column of ``targets`` in the column lattice of ``basis``.

    Returns ``x`` with ``basis @ x == targets``; one Smith decomposition
    of ``basis`` serves every column.  Requires the basis columns to be
    linearly independent.  Raises :class:`NotInLattice` when some column
    lies outside the lattice (including outside its rational span).
    """
    if targets.row_count != basis.row_count:
        raise ValueError("targets row count does not match basis row count")
    dec = snf(basis)
    k = basis.col_count
    if dec.rank() < k:
        raise ValueError("basis columns must be linearly independent")
    w = dec.u @ targets
    if any(any(row) for row in w.rows[k:]):
        raise NotInLattice("target is outside the rational span of the basis")
    reduced: list[list[int]] = []
    for i, (d, row) in enumerate(zip(dec.s.diagonal_entries(), w.rows)):
        if any(e % d for e in row):
            raise NotInLattice(
                f"component {i} is not divisible by the lattice elementary divisor"
            )
        reduced.append([e // d for e in row])
    return dec.v @ IntMatrix.from_rows(reduced, col_count=targets.col_count)


# ----------------------------------------------------------------------
# matrix text format
# ----------------------------------------------------------------------


#: The ASCII control characters :func:`parse_matrix_text` refuses: all but
#: tab, line feed and carriage return.
_LAYOUT_CONTROLS = frozenset(map(chr, (*range(0x09), 0x0B, 0x0C, *range(0x0E, 0x20), 0x7F)))
#: The non-ASCII line breaks of ``str.splitlines``: only a comment line can
#: end at one without failing the ASCII rule.
_UNICODE_LINE_BREAKS = ("\x85", "\u2028", "\u2029")


def parse_matrix_text(text: str) -> IntMatrix:
    """Parse the plain matrix interchange format.

    The first significant line is ``R C`` (row and column counts); then
    R lines of C whitespace-separated base-10 integers.  Blank lines and
    lines starting with ``#`` are ignored, so when C is 0 a header with
    no line after it stands for R empty rows.  No line, comments included,
    may hold an ASCII control character other than tab, carriage return
    and line feed, nor U+0085, U+2028 or U+2029: ``str.splitlines`` and
    ``str.split`` would read them as line breaks or spaces.  Every other
    line, its line break included, must be ASCII and hold no ``_``;
    ``int`` and ``str.split`` would otherwise also take digits of other
    scripts, ``_`` digit grouping and Unicode spaces.  Neither count may
    exceed :data:`MAX_MATRIX_DIM`.
    """
    significant: list[tuple[int, str]] = []
    for lineno, raw in enumerate(text.splitlines(keepends=True), start=1):
        if not _LAYOUT_CONTROLS.isdisjoint(raw):
            bad = next(c for c in raw if c in _LAYOUT_CONTROLS)
            raise MatrixFormatError(
                f"line {lineno}: control character U+{ord(bad):04X} may not appear"
            )
        stripped = raw.strip()
        if stripped.startswith("#"):
            if raw.endswith(_UNICODE_LINE_BREAKS):
                raise MatrixFormatError(
                    f"line {lineno}: line break U+{ord(raw[-1]):04X} may not appear"
                )
            continue
        if not raw.isascii() or "_" in raw:
            raise MatrixFormatError(
                f"line {lineno}: only ASCII digits, signs and spaces may appear"
            )
        if stripped:
            significant.append((lineno, stripped))
    if not significant:
        raise MatrixFormatError("empty input: expected a header line 'R C'")
    header_line, header = significant[0]
    parts = header.split()
    if len(parts) != 2:
        raise MatrixFormatError(f"line {header_line}: header must be 'R C', got {header!r}")
    try:
        r, c = int(parts[0]), int(parts[1])
    except ValueError:
        raise MatrixFormatError(f"line {header_line}: header must hold two integers") from None
    if r < 0 or c < 0:
        raise MatrixFormatError(f"line {header_line}: dimensions must be nonnegative")
    if max(r, c) > MAX_MATRIX_DIM:
        raise MatrixFormatError(
            f"line {header_line}: dimensions must be at most {MAX_MATRIX_DIM}, got {r} {c}"
        )
    body = significant[1:]
    if c == 0 and not body:
        return IntMatrix(r, 0, ((),) * r)  # its R empty rows are blank lines
    if len(body) != r:
        raise MatrixFormatError(f"expected {r} matrix rows, found {len(body)}")
    rows: list[list[int]] = []
    for lineno, line in body:
        fields = line.split()
        if len(fields) != c:
            raise MatrixFormatError(f"line {lineno}: expected {c} entries, found {len(fields)}")
        try:
            rows.append([int(f) for f in fields])
        except ValueError:
            raise MatrixFormatError(f"line {lineno}: {_entry_error(fields)}") from None
    return IntMatrix.from_rows(rows, col_count=c)


def _entry_error(fields: Sequence[str]) -> str:
    """Why the first field that ``int`` refuses is not a matrix entry."""
    for f in fields:
        try:
            int(f)
        except ValueError:
            digits = f.lstrip("+-")
            if digits.isdecimal() and len(digits) > sys.get_int_max_str_digits() > 0:
                return too_many_digits()
            break
    return "entries must be base-10 integers"


def format_matrix_text(a: IntMatrix) -> str:
    lines = [f"{a.row_count} {a.col_count}"]
    lines.extend(" ".join(map(int_text, row)) for row in a.rows)
    return "\n".join(lines) + "\n"
