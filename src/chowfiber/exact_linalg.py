"""Exact linear algebra over the integers.

This module is the arithmetic engine of the package: the Smith normal
form with its unimodular transformation matrices, integer kernels,
lattice membership tests, and cokernels as finitely generated abelian
groups.

``kernel_coordinates(row, targets)`` writes targets in a saturated basis
of the kernel of one integer row, reading both the basis and the
coordinates off a single Smith decomposition of that row.
``integer_kernel`` followed by ``solve_in_lattice`` gives the same
lattice with two decompositions and stays as the reference path.

Everything works on Python's native ``int``, which is arbitrary
precision.  That is not a convenience but a requirement: the
intermediate entries of a Smith reduction can exceed 64 bits even for
small inputs, so fixed-width arithmetic is never used here.

Three deliberately different routes to the invariant factors coexist:

* ``snf`` diagonalizes by unimodular row and column operations and
  returns the transforms with the diagonal.  It is the only route for
  anything that reads a transform, and its output is proved (below);
* ``invariant_factors_mod_minor`` works modulo a nonzero minor and
  keeps no transforms, so its entries stay below that minor.  It is
  trusted for the factors alone, where a verified ``snf`` also derives
  them: the quotient route of B(X)_0 against the kernel route, and
  ``chowfiber snf --check`` past the oracle's size limit;
* ``determinantal_divisors`` enumerates all k-by-k minors and takes
  gcds.  It is exponential and size-capped, but it shares no code with
  the reduction, which makes it a trustworthy independent oracle:
  invariant factor k equals ``d_k / d_{k-1}``.

One fraction-free (Bareiss) elimination, ``_rank_and_minor``, serves
``determinant``, the ``det v = ±1`` law below, the oracle's minors and
the modular route's minor.  It is part of neither reduction, and a test
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
from math import gcd, prod
from operator import add, mul
from typing import Iterable, Sequence

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


def xgcd(a: int, b: int) -> tuple[int, int, int]:
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
        """The constructor without its per-row length check.

        Only for rows of ``col_count`` ints that the caller built itself
        (``snf``, products, transposes, ``identity``, ``zeros`` and
        ``kernel_coordinates``); input from anywhere else goes through
        the checked constructor.
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
        data = tuple(tuple(int(x) for x in row) for row in rows)
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
        cols = [tuple(int(x) for x in c) for c in columns]
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

    @classmethod
    def identity(cls, n: int) -> IntMatrix:
        return cls._trusted(n, n, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @classmethod
    def zeros(cls, row_count: int, col_count: int) -> IntMatrix:
        return cls._trusted(row_count, col_count, ((0,) * col_count,) * row_count)

    # -- accessors ---------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return (self.row_count, self.col_count)

    def row(self, i: int) -> tuple[int, ...]:
        return self.rows[i]

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(row[j] for row in self.rows)

    def columns(self) -> list[tuple[int, ...]]:
        return [self.column(j) for j in range(self.col_count)]

    def transpose(self) -> IntMatrix:
        rows = tuple(zip(*self.rows)) if self.row_count else ((),) * self.col_count
        return IntMatrix._trusted(self.col_count, self.row_count, rows)

    def is_square(self) -> bool:
        return self.row_count == self.col_count

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

    def __init__(self, s: IntMatrix, u: IntMatrix, v: IntMatrix, u_inv: IntMatrix) -> None:
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "u_inv", u_inv)

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
        if rank < 0:
            raise ValueError("rank must be nonnegative")
        factors = tuple(int(f) for f in invariant_factors)
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

    def is_trivial(self) -> bool:
        return self.rank == 0 and not self.invariant_factors

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
    if not a.is_square():
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
    w = [list(row) + [1 if i == j else 0 for j in range(m)] for i, row in enumerate(a.rows)]
    w += [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    u_inv = [[1 if i == j else 0 for j in range(m)] for i in range(m)]

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

    # Every row is a full-length tuple of ints, so skip the checked constructors.
    result = SmithDecomposition(
        s=IntMatrix._trusted(m, n, tuple(tuple(row[:n]) for row in w[:m])),
        u=IntMatrix._trusted(m, m, tuple(tuple(row[n:]) for row in w[:m])),
        v=IntMatrix._trusted(n, n, tuple(map(tuple, w[m:]))),
        u_inv=IntMatrix._trusted(m, m, tuple(map(tuple, u_inv))),
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
    seen_zero = False
    for d in diag:
        if d < 0:
            raise SelfCheckError("Smith diagonal has a negative entry")
        if d == 0:
            seen_zero = True
        elif seen_zero:
            raise SelfCheckError("zero entries must come last on the Smith diagonal")
    for p, q in zip(diag, diag[1:]):
        if p != 0 and q != 0 and q % p != 0:
            raise SelfCheckError("Smith diagonal is not a divisibility chain")


# ----------------------------------------------------------------------
# invariant factors modulo a minor
# ----------------------------------------------------------------------


def invariant_factors_mod_minor(a: IntMatrix) -> tuple[int, ...]:
    """The nonzero invariant factors of ``a``, 1s included, built without transforms.

    Returns what ``snf(a).nonzero_diagonal()`` returns, by the
    determinant-modulus reduction (Domich, Kannan & Trotter 1987; Cohen,
    GTM 138, §2.4).  With ``r`` the rank and ``d`` the absolute value of
    a nonzero r-by-r minor from :func:`_rank_and_minor`, the invariant
    factors ``s_1 | … | s_r`` of ``a`` multiply to ``d_r(a)``, which
    divides ``d``.  Adding ``d`` times a unit vector is a column
    operation on ``[a | d·I]``, and row operations leave the columns of
    ``d·I`` spanning ``d·Z^m``, so the elimination below may reduce every
    entry modulo ``d`` to absolute value at most d/2 and still present
    the group of ``[a | d·I]``:
    invariant factors ``s_1 … s_r`` followed by ``d`` for each of the
    other ``m − r`` rows.

    The elimination picks the smallest entry of the remaining submatrix
    as pivot and clears its row and column by floor quotients until no
    remainder is left, as :func:`snf` does, but keeps no transforms.
    Each diagonal entry ``e`` stands for ``Z/gcd(e, d)``, a divisor of
    ``d``; gcd/lcm swaps put these in a divisibility chain, and the
    first ``r`` entries of the chain, padded by 1s in front and by ``d``
    behind to ``m`` entries, are the factors.  Their product must divide
    ``d``, or :class:`SelfCheckError` is raised.
    """
    r, minor = _rank_and_minor(a)
    if r == 0:
        return ()
    d = abs(minor)
    half = d // 2
    w = [[(e + half) % d - half for e in row] for row in a.rows]
    diagonal: list[int] = []
    while w and w[0]:
        best = min(filter(None, itertools.chain.from_iterable(w)), key=abs, default=0)
        if not best:
            break  # the rest of the matrix is zero modulo d
        i = next(i for i, row in enumerate(w) if best in row)
        w[0], w[i] = w[i], w[0]
        j = w[0].index(best)
        for row in w:
            row[0], row[j] = row[j], row[0]
        pivot_row = w[0]
        for k in range(1, len(w)):
            if f := w[k][0] // best:
                w[k] = [(e - f * q + half) % d - half for e, q in zip(w[k], pivot_row)]
        # Every column operation scales column 0, which only the pivot
        # row and rows left with a remainder hold.
        quotients = [0] + [e // best for e in pivot_row[1:]]
        for row in w:
            if c := row[0]:
                row[:] = [(e - f * c + half) % d - half for e, f in zip(row, quotients)]
        if any(row[0] for row in w[1:]) or any(pivot_row[1:]):
            continue
        diagonal.append(gcd(best, d))
        w = [row[1:] for row in w[1:]]

    torsion = [e for e in diagonal if e != 1]
    for i in range(len(torsion)):
        for j in range(i + 1, len(torsion)):
            g = gcd(torsion[i], torsion[j])
            torsion[i], torsion[j] = g, torsion[i] // g * torsion[j]
    chain = [1] * (len(diagonal) - len(torsion)) + torsion + [d] * (a.row_count - len(diagonal))
    factors = tuple(chain[:r])
    if d % prod(factors):
        raise SelfCheckError(
            f"invariant factors modulo {int_text(d)} do not divide that nonzero minor"
        )
    return factors


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


def kernel_coordinates(row: Sequence[int], targets: IntMatrix) -> IntMatrix:
    """Coordinates of every column of ``targets`` in a saturated basis of ``ker(row)``.

    One Smith decomposition of the column ``rowᵀ`` gives ``u @ rowᵀ``
    zero past its first ``r = rank`` entries, so rows ``r..`` of ``u`` are
    a saturated basis of the kernel.  Since ``uᵀ @ u_invᵀ == I``, a
    target ``t`` is ``uᵀ @ y`` with ``y = u_invᵀ @ t``; it lies in the
    kernel exactly when ``y[:r]`` vanishes, and then ``y[r:]`` are its
    coordinates.  ``snf`` already verified ``u @ u_inv == I``, so no
    further check is needed.  Raises :class:`NotInLattice` when some
    column pairs to nonzero against ``row``.
    """
    if targets.row_count != len(row):
        raise ValueError("targets row count does not match the row length")
    dec = snf(IntMatrix._trusted(len(row), 1, tuple((int(e),) for e in row)))
    r = dec.rank()
    y = dec.u_inv.transpose() @ targets
    if any(any(entries) for entries in y.rows[:r]):
        raise NotInLattice("target pairs to a nonzero value against the row")
    return IntMatrix._trusted(len(row) - r, targets.col_count, y.rows[r:])


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


def parse_matrix_text(text: str) -> IntMatrix:
    """Parse the plain matrix interchange format.

    The first significant line is ``R C`` (row and column counts); then
    R lines of C whitespace-separated base-10 integers.  Blank lines and
    lines starting with ``#`` are ignored.  Neither count may exceed
    :data:`MAX_MATRIX_DIM`.
    """
    significant: list[tuple[int, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
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
