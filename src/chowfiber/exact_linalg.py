"""Exact linear algebra over the integers.

This module is the arithmetic engine of the package: the Smith normal
form as a log of elementary operations, integer kernels, lattice
membership tests, and cokernels as finitely generated abelian groups.

``_bezout_vector(row)`` pairs one integer row to its gcd in O(n)
operations and makes no Smith decomposition.  With it, a quotient of
``ker(row)`` is a quotient of the whole lattice, which is how the
quotient route of B(X)_0 needs no kernel basis.  ``integer_kernel``
followed by ``solve_in_lattice`` writes the same quotient with two
decompositions and stays as the reference path.

Everything works on Python's native ``int``, which is arbitrary
precision.  That is not a convenience but a requirement: the
intermediate entries of a Smith reduction can exceed 64 bits even for
small inputs, so fixed-width arithmetic is never used here.

Three deliberately different routes to the invariant factors coexist:

* ``snf`` diagonalizes by unimodular row and column operations and logs
  them, the additions of one pass from one pivot line as one batch; a
  line addition touches only the nonzero entries of its source line.
  It is the only route for anything that reads a transform, which is
  rebuilt from the log on demand by the replay that proves it (below);
* ``local_invariant_factors`` builds the Smith form by one elimination
  modulo ``g²``, where ``g`` is a gcd of nonzero maximal minors that one
  Bareiss pass exposes, with 2-by-2 Bezout steps, no factoring and no
  transforms.  When ``g`` is 1 it eliminates nothing.  It is trusted
  for the factors alone, where a verified ``snf`` also derives them: the
  quotient route of B(X)_0 against the Smith diagonal, and ``chowfiber
  snf --check`` past the oracle's size limit;
* ``determinantal_divisors`` enumerates all k-by-k minors and takes
  gcds.  It is exponential and size-capped, but it shares no code with
  the reduction, which makes it a trustworthy independent oracle:
  invariant factor k equals ``d_k / d_{k-1}``.

One fraction-free (Bareiss) elimination, ``_rank_and_minor``, serves
``determinant``, the oracle's minors and the local route's minor gcd.
It is part of no reduction, and a test against cofactor expansion is
its reference.

``snf`` always re-verifies its own output and raises
:class:`SelfCheckError` if the verification fails, so a silently wrong
decomposition cannot propagate into downstream group computations.  The
proof replays the log on the input with its own code, which reads the
source line of each batch once and adds only its nonzero entries, and
checks every addition of a batch.  It requires ``s`` exactly,
with ``s`` diagonal, nonnegative, zeros last and a divisibility chain.
Every logged operation must be elementary over the integers, so the
transforms are unimodular and ``u @ a @ v == s`` holds with no product,
inverse or determinant to check (a certifying algorithm: McConnell,
Mehlhorn, Näher & Schweitzer 2011).
"""

from __future__ import annotations

import itertools
import sys
from collections.abc import Iterable, Sequence
from math import gcd, prod
from operator import index, mul

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
#: Smith elimination and the replay of its log are cubic on dense input,
#: so a short header must not be able to declare a huge matrix.
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
        self._store(row_count, col_count, rows)
        if any(len(row) != col_count for row in rows):
            raise ValueError("ragged input: a vector has the wrong number of entries")

    def _store(self, row_count: int, col_count: int, rows: tuple[tuple[int, ...], ...]) -> None:
        if row_count < 0 or col_count < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(rows) != row_count:
            raise ValueError("row count does not match the number of rows")
        Value.__init__(self, row_count, col_count, rows)

    # -- constructors ------------------------------------------------

    @classmethod
    def _trusted(cls, row_count: int, col_count: int, rows: tuple[tuple[int, ...], ...]) -> IntMatrix:
        """The constructor without its entry coercion and per-row length check.

        Only for a tuple of ``row_count`` tuples of ``col_count`` ints,
        each built by package code from the entries of checked matrices
        or from ints it computed; input from anywhere else goes through
        the checked constructor.
        """
        m = object.__new__(cls)
        m._store(row_count, col_count, rows)
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
                raise ValueError("the given vector length disagrees with the supplied vectors")
            return cls(len(data), width, data)
        if col_count is None:
            raise ValueError("a vector length is required when no vectors are given")
        return cls(0, col_count, ())

    @classmethod
    def from_columns(cls, columns: Iterable[Iterable[int]], row_count: int | None = None) -> IntMatrix:
        """The matrix whose columns are ``columns``: :meth:`from_rows` of them, transposed."""
        return cls.from_rows(columns, row_count).transpose()

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
        columns = other.transpose().rows
        rows = tuple(tuple(sum(map(mul, row, column)) for column in columns) for row in self.rows)
        return IntMatrix._trusted(self.row_count, other.col_count, rows)

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
    entry divides the next, and zero entries come last.  ``log`` holds
    the elementary operations that took ``a`` to ``s``, in order:
    ``("swap rows", i, j)``, ``("swap columns", i, j)``, ``("negate
    row", i)``, and the batches ``("add rows", src, ((dst, f), …))`` and
    ``("add columns", src, ((dst, f), …))`` for "line dst += f·line src"
    at each pair.  ``u``, ``u_inv`` and ``v`` are rebuilt on each read by
    :func:`_replay`, which refuses the log as the proof does: on ``[0 |
    I_m]`` for ``u``, ``[0 ; I_n]`` for ``v``, and for ``u_inv`` on ``[0
    | I_m]`` with the entries in reverse order and the row factors
    negated.
    """

    __slots__ = ("s", "log")
    s: IntMatrix
    log: tuple[tuple, ...]

    def rank(self) -> int:
        return sum(1 for d in self.s.diagonal_entries() if d != 0)

    def nonzero_diagonal(self) -> tuple[int, ...]:
        return tuple(d for d in self.s.diagonal_entries() if d != 0)

    @property
    def u(self) -> IntMatrix:
        return self._row_transform(self.log)

    @property
    def v(self) -> IntMatrix:
        m, n = self.s.shape  # only column operations reach the bottom block
        w = [[0] * n for _ in range(m)] + [[int(i == j) for j in range(n)] for i in range(n)]
        return IntMatrix._trusted(n, n, tuple(map(tuple, _replay(self.log, w, m, n)[m:])))

    @property
    def u_inv(self) -> IntMatrix:
        # Once the log passes, its inverse: the entries reversed and row factors negated (the
        # additions of a batch commute); swaps and negations undo themselves, and column
        # operations reach only the zero block.
        m, n = self.s.shape
        _replay(self.log, [[0] * n for _ in range(m)], m, n)
        inverse = [
            (*op[:2], tuple((j, -f) for j, f in op[2])) if op[0] == "add rows" else op
            for op in reversed(self.log)
        ]
        return self._row_transform(inverse)

    def _row_transform(self, log: Iterable[tuple]) -> IntMatrix:
        """``log`` replayed on ``[0 | I_m]``: only row operations reach the right block."""
        m, n = self.s.shape
        w = [[0] * n + [int(i == j) for j in range(m)] for i in range(m)]
        return IntMatrix._trusted(m, m, tuple(tuple(row[n:]) for row in _replay(log, w, m, n)))


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
        if any(f < 2 for f in factors):
            raise ValueError("invariant factors must be >= 2")
        if any(b % a for a, b in zip(factors, factors[1:])):
            raise ValueError("invariant factors must form a divisibility chain")
        Value.__init__(self, rank, factors)

    @classmethod
    def quotient(cls, ambient_rank: int, factors: Sequence[int]) -> FGAbelianGroup:
        """``Z^ambient_rank`` modulo a lattice whose nonzero invariant factors are ``factors``."""
        if any(f < 1 for f in factors):
            raise ValueError("nonzero invariant factors must be >= 1")
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
    rank, minor, _ = _rank_and_minor(a)
    return minor if rank == a.row_count else 0


def _rank_and_minor(a: IntMatrix) -> tuple[int, int, int]:
    """The rank ``r`` of ``a``, a nonzero r-by-r minor signed by the row swaps, and ``g``.

    Bareiss elimination, column by column: the first nonzero row at or
    below the current rank is the pivot row, and a column without one is
    skipped.  After k pivots each entry below the pivot rows and right of
    the last pivot column is a (k+1)-by-(k+1) minor of ``a``, so every
    division is exact.  The last pivot (1 at rank 0) times the sign of
    the row swaps is returned; on a square matrix of full rank it is the
    determinant.

    No later step reads a pivot column below its pivot, so none is
    cleared: the last pivot row from the last pivot column on and that
    column below the pivot hold r-by-r minors.  ``g`` is their gcd (1 at
    rank 0), a nonzero multiple of ``d_r(a)`` (Bareiss 1968).

    On a matrix of full row rank ``m`` whose ``g`` is not 1, ``g`` also
    takes in the minors that the pass held at rank ``m - 2``, when more
    than two columns were left from the next pivot column on.  By
    Sylvester's identity, each 2-by-2 minor of the two rows left there,
    from that column on, divided by the pivot before them (1 at rank 0),
    is the m-by-m minor of ``a`` on the first ``m - 2`` pivot columns
    and its own two columns.  So ``g`` stays a nonzero multiple of
    ``d_r(a)``, and it can only shrink, since the minors read before are
    among these.  A square matrix of full rank has just two columns
    left there, and keeps the pass alone.
    """
    m, n = a.shape
    w = [list(row) for row in a.rows]
    rank, sign, prev, last, kept = 0, 1, 1, 0, None
    for k in range(n):
        for i in range(rank, m):
            if w[i][k]:
                break
        else:
            continue  # no pivot in this column
        if rank == m - 2 and n - k > 2:
            kept = prev, w[rank][k:], w[rank + 1][k:]
        if i != rank:
            w[rank], w[i], sign = w[i], w[rank], -sign
        pivot_row, p = w[rank], w[rank][k]
        for row in itertools.islice(w, rank + 1, None):
            f = row[k]
            if f == 0 and p == prev:
                continue  # the update would give the row back unchanged
            for j in range(k + 1, n):
                row[j] = (row[j] * p - f * pivot_row[j]) // prev
        rank, prev, last = rank + 1, p, k
    g = gcd(*w[rank - 1][last:], *(row[last] for row in w[rank:])) if rank else 1
    if rank == m and g != 1 and kept:
        d, top, bottom = kept
        for (x, u), (y, v) in itertools.combinations(zip(top, bottom), 2):
            g = gcd(g, (x * v - y * u) // d)
            if g == 1:
                break
    return rank, sign * prev, g


# ----------------------------------------------------------------------
# Smith normal form
# ----------------------------------------------------------------------


def snf(a: IntMatrix) -> SmithDecomposition:
    """Smith normal form with its log of operations, self-verified before returning.

    Every round moves the first nonzero entry, in row order, of minimal
    absolute value in the remaining submatrix to ``(t, t)`` and reduces
    column ``t``, then row ``t``, by floor quotients.  A remainder left
    behind is smaller than the pivot, so the next round's pivot is
    strictly smaller; once the row and column are clear, adding a row
    the pivot does not divide leaves a remainder in the next round.  The
    pivot magnitude therefore shrinks to termination.  Re-picking the
    smallest entry every round, rather than promoting whichever
    remainder turns up first, is also what keeps the factors of the log
    polynomially sized.

    The operations run on a copy ``w`` of ``a`` alone and go into the
    log; no transform is built.  Row ``t`` and column ``t`` fix every
    quotient of a round and neither phase changes them, so the two
    phases commute.  The column phase runs first, on the rows that hold
    column ``t`` (rows before ``t`` are finished, zero off the
    diagonal), and leaves the pivot row its remainders; each row
    addition then touches only the nonzero entries of that sparse row.
    The log holds each phase as one batch in the same order, ``("add
    columns", t, …)`` before ``("add rows", t, …)``, and the step that
    adds a row the pivot does not divide as a batch of one addition.  A
    new round starts while column ``t`` keeps a nonzero entry below
    ``t`` or row ``t`` one right of ``t``.  A ±1 pivot ends its round at
    once: it leaves no remainder and divides everything.
    Before returning, :func:`_verify_snf` replays the log on ``a`` and
    proves the result.
    """
    m, n = a.shape
    w = [list(row) for row in a.rows]
    log: list[tuple] = []
    for t in range(min(m, n)):
        while True:
            pos, best = None, 0
            for i in range(t, m):
                row = w[i]
                for j in range(t, n):
                    if (e := row[j]) and (not best or abs(e) < best):
                        pos, best = (i, j), abs(e)
                if best == 1:
                    break
            if pos is None:
                break  # the remaining submatrix is zero
            i, j = pos
            if i != t:
                w[t], w[i] = w[i], w[t]
                log.append(("swap rows", t, i))
            if j != t:
                for row in itertools.islice(w, t, None):
                    row[t], row[j] = row[j], row[t]
                log.append(("swap columns", t, j))
            pivot_row = w[t]
            p = pivot_row[t]
            # The column phase runs first.  On the pivot row it leaves the
            # remainders, the support of every row addition of the round;
            # each row below that holds column t takes it, then its row
            # addition at that support alone.
            column_adds: list[tuple[int, int]] = []
            support = [(t, p)]
            for j in range(t + 1, n):
                if e := pivot_row[j]:
                    column_adds.append((j, -(e // p)))
                    if r := e % p:
                        support.append((j, r))
                    pivot_row[j] = r
            again = len(support) > 1
            row_adds: list[tuple[int, int]] = []
            for i in range(t + 1, m):
                row = w[i]
                if c := row[t]:
                    for j, f in column_adds:
                        row[j] += f * c
                    f = -(c // p)
                    for j, e in support:
                        row[j] += f * e
                    row_adds.append((i, f))
                    if row[t]:
                        again = True
            if column_adds:
                log.append(("add columns", t, tuple(column_adds)))
            if row_adds:
                log.append(("add rows", t, tuple(row_adds)))
            if p in (1, -1):
                break  # a unit leaves no remainder and divides everything
            if again:
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
            w[t] = [x + y for x, y in zip(pivot_row, w[offender])]
            log.append(("add rows", offender, ((t, 1),)))
        if pos is None:
            break

        if w[t][t] < 0:
            w[t] = [-e for e in w[t]]
            log.append(("negate row", t))

    # Every row of w is a full-length list of ints, so skip the checks.
    result = SmithDecomposition(IntMatrix._trusted(m, n, tuple(map(tuple, w))), tuple(log))
    _verify_snf(a, result)
    return result


def _replay(log: Iterable[tuple], w: list[list[int]], height: int, width: int) -> list[list[int]]:
    """Apply each logged operation to ``w``, in place; return ``w``.

    A batch ``("add rows", i, ((j, f), …))`` adds ``f`` times row ``i``
    to row ``j`` for each pair, ``("add columns", i, …)`` the same with
    columns.  No addition of a batch writes to its source line, so the
    additions commute and the source line is read once per batch: a row
    batch reads the nonzero entries of its source row, a column batch
    walks the rows that hold its source column.

    Row indices must lie below ``height`` and column indices below
    ``width``; extra rows of ``w`` move only under column operations and
    extra columns only under row operations.  Raises
    :class:`SelfCheckError` on an operation that is not elementary over
    the integers: an entry that is not a tuple or is of unknown kind or
    length, a batch that is not a nonempty tuple of pairs, a factor that
    is not an ``int``, an index that is not an ``int`` in bounds, or an
    add of a line to itself.  The message names the whole entry.
    """
    for op in log:
        kind = op[0] if type(op) is tuple and op else None
        if kind == "add rows" or kind == "add columns":
            if len(op) != 3 or type(adds := op[2]) is not tuple or not adds:
                raise SelfCheckError(f"Smith log holds an unknown operation {op!r}")
            i = op[1]
            span = height if kind == "add rows" else width
            if not (type(i) is int and 0 <= i < span):
                raise SelfCheckError(f"Smith log operation {op!r} indexes past the matrix")
            try:
                for j, f in adds:
                    if type(f) is not int:
                        raise TypeError
                    if not (type(j) is int and 0 <= j < span):
                        raise SelfCheckError(f"Smith log operation {op!r} indexes past the matrix")
                    if j == i:
                        raise SelfCheckError(f"Smith log operation {op!r} adds a line to itself")
            except (TypeError, ValueError):  # not a pair, or not an int factor
                raise SelfCheckError(f"Smith log holds an unknown operation {op!r}") from None
            if kind == "add rows":
                line = [(k, e) for k, e in enumerate(w[i]) if e]
                for j, f in adds:
                    row = w[j]
                    for k, e in line:
                        row[k] += f * e
            else:
                for row in w:
                    if c := row[i]:
                        for j, f in adds:
                            row[j] += f * c
        elif kind == "swap rows" or kind == "swap columns":
            if len(op) != 3:
                raise SelfCheckError(f"Smith log holds an unknown operation {op!r}")
            _, i, j = op
            span = height if kind == "swap rows" else width
            if not (type(i) is type(j) is int and 0 <= i < span and 0 <= j < span):
                raise SelfCheckError(f"Smith log operation {op!r} indexes past the matrix")
            if kind == "swap rows":
                w[i], w[j] = w[j], w[i]
            else:
                for row in w:
                    row[i], row[j] = row[j], row[i]
        elif kind == "negate row" and len(op) == 2:
            if not (type(i := op[1]) is int and 0 <= i < height):
                raise SelfCheckError(f"Smith log operation {op!r} indexes past the matrix")
            w[i] = [-e for e in w[i]]
        else:
            raise SelfCheckError(f"Smith log holds an unknown operation {op!r}")
    return w


def _verify_snf(a: IntMatrix, dec: SmithDecomposition) -> None:
    """Prove ``dec`` a Smith decomposition of ``a``, or raise :class:`SelfCheckError`.

    ``s`` must be diagonal of the shape of ``a``, equal entry by entry
    to the log replayed on ``a`` (:func:`_replay`), and keep the sign,
    order and divisibility laws of the diagonal.  That is complete: every
    logged operation is elementary, so ``u`` and ``v`` are unimodular with
    no determinant or inverse to check, and the replay is ``u @ a @ v``.
    """
    m, n = a.shape
    if dec.s.shape != (m, n):
        raise SelfCheckError("Smith decomposition has the wrong shape")
    diag = dec.s.diagonal_entries()
    for i, row in enumerate(dec.s.rows):
        if any(row[:i]) or any(row[i + 1 :]):
            raise SelfCheckError("Smith form is not diagonal")
    if tuple(map(tuple, _replay(dec.log, [list(row) for row in a.rows], m, n))) != dec.s.rows:
        raise SelfCheckError("Smith decomposition does not reproduce the input")
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


def local_invariant_factors(a: IntMatrix) -> tuple[int, ...]:
    """The nonzero invariant factors of ``a``, 1s included, built without transforms.

    Returns what ``snf(a).nonzero_diagonal()`` returns, from one
    elimination modulo ``q = g²`` and no factoring (modulo-determinant
    arithmetic: Domich, Kannan & Trotter, Math. Oper. Res. 12, 1987;
    Hafner & McCurley, SIAM J. Comput. 20, 1991).  With ``r`` the rank,
    the factors ``s_1 | … | s_r`` multiply to ``d_r(a)``, the gcd of all
    r-by-r minors, so each divides the gcd ``g`` of the r-by-r minors
    that the one Bareiss pass of :func:`_rank_and_minor` exposes, and the
    Smith form of ``a`` over ``Z/qZ`` is ``(s_1, …, s_r, q, …, q)``.
    Those minors are the ones on the last pivot row and column and, at
    full row rank with more than two columns left when the pass reaches
    rank ``r - 2``, the 2-by-2 minors of the two rows left there divided
    by the pivot before them, which Sylvester's identity makes maximal
    minors of ``a``.  Each is a multiple of ``d_r(a)``, and only that is
    used.
    When ``g`` is 1 (always at rank 0) every factor is 1.

    The pivot is the first unit modulo ``q``, scaled to 1, where there is
    one, else the first nonzero entry; a unit divides every entry, so its
    round takes no Bezout step and no transpose.  Row steps modulo ``q``
    clear the pivot's column: an entry ``b`` that the pivot ``p`` divides
    loses ``b/p`` times the pivot row, at the pivot row's nonzero entries
    alone; any other one is a Bezout step, which takes the two rows to
    ``[[x, y], [-b/d, p/d]]`` times them, with ``d = x·p + y·b = gcd(p,
    b)`` the new pivot.  A pivot that divides its row is done, since the
    column steps that would clear the row change no other.  Otherwise the
    row is cleared the same way on the transpose, which lowers the pivot.
    The pivot's row and its cleared column then leave the matrix.  A
    diagonal entry ``e`` over ``Z/qZ`` is a unit times ``gcd(e, q)``, a
    missing one is ``q``, and one pairwise (gcd, lcm) pass makes them a
    divisibility chain.

    The factors must multiply to a divisor of ``g``, or
    :class:`SelfCheckError` is raised.  Working modulo ``g²`` rather than
    ``g`` lets that check see a wrong ``g``: given 2 as the minor gcd of
    ``diag(1, 4)``, the factors read modulo 2 are ``(1, 2)``, which pass,
    and modulo 4 they are ``(1, 4)``, which do not.
    """
    r, _, g = _rank_and_minor(a)
    if g == 1:
        return (1,) * r
    q = g * g
    w = [[e % q for e in row] for row in a.rows]
    factors: list[int] = []
    while pivot := (
        next(((i, j) for i, row in enumerate(w) for j, e in enumerate(row) if gcd(e, q) == 1), None)
        or next(((i, j) for i, row in enumerate(w) for j, e in enumerate(row) if e), None)
    ):
        i, j = pivot
        if (e := w[i][j]) != 1 and gcd(e, q) == 1:
            inverse = pow(e, -1, q)
            w[i] = [t * inverse % q for t in w[i]]
        while True:
            pivot_row = w[i]
            support = [(k, t) for k, t in enumerate(pivot_row) if t]
            for row in w:
                if not (b := row[j]) or row is pivot_row:
                    continue
                p = pivot_row[j]
                if b % p:
                    d, x, y = _xgcd(p, b)
                    u, v = -b // d, p // d
                    pivot_row[:], row[:] = (
                        [(x * t + y * e) % q for t, e in zip(pivot_row, row)],
                        [(u * t + v * e) % q for t, e in zip(pivot_row, row)],
                    )
                    support = [(k, t) for k, t in enumerate(pivot_row) if t]
                else:
                    f = b // p
                    for k, t in support:
                        row[k] = (row[k] - f * t) % q
            p = pivot_row[j]
            if not any(t % p for t in pivot_row):
                break
            w, i, j = [list(line) for line in zip(*w)], j, i
        factors.append(gcd(p, q))
        del w[i]
        for row in w:
            del row[j]  # zero: the row steps cleared it
    for i in range(len(factors)):
        for j in range(i + 1, len(factors)):
            f = gcd(factors[i], factors[j])
            factors[i], factors[j] = f, factors[i] // f * factors[j]
    factors = (factors + [q] * r)[:r]  # every factor divides q
    if g % prod(factors):
        raise SelfCheckError(
            f"local invariant factors {factors} do not divide the minor gcd {int_text(g)}"
        )
    return tuple(factors)


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
    transform ``v``, rebuilt from the log, so it is automatically a
    direct summand of the ambient lattice.
    """
    dec = snf(a)
    r = dec.rank()
    return IntMatrix._trusted(a.col_count, a.col_count - r, tuple(row[r:] for row in dec.v.rows))


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """``(g, x, y)`` with ``g = gcd(a, b) >= 0`` and ``x*a + y*b == g``."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return (a, x0, y0) if a >= 0 else (-a, -x0, -y0)


def _bezout_vector(row: Sequence[int]) -> tuple[int, ...]:
    """A vector ``e`` with ``row · e == gcd(row)``, checked.

    One pass down the row takes the prefix gcds ``g_k = a_k·g_(k−1) +
    b_k·row[k]`` (``g_(−1) = 0``) with :func:`_xgcd`; one pass back up
    writes ``e_k = b_k·a_(k+1)···a_(n−1)``, carrying the product of the
    ``a``.  One O(n) certificate replaces a check per step: the last
    ``g`` must be nonnegative, divide every entry (all are zero when it
    is) and equal ``row · e``, which makes it the gcd; otherwise
    :class:`SelfCheckError` is raised.
    """
    g, steps = 0, []
    for w in row:
        g, a, b = _xgcd(g, w)
        steps.append((a, b))
    e, carry = [], 1
    for a, b in reversed(steps):
        e.append(b * carry)
        carry *= a
    e.reverse()
    if g < 0 or (any(w % g for w in row) if g else any(row)) or sum(map(mul, row, e)) != g:
        raise SelfCheckError("the Bézout vector does not pair the row to its gcd")
    return tuple(e)


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
        row: list[int] = []
        try:
            for field in fields:
                row.append(int(field))
        except ValueError:
            digits = field.lstrip("+-")  # the field ``int`` refused
            if digits.isdecimal() and len(digits) > sys.get_int_max_str_digits() > 0:
                raise MatrixFormatError(f"line {lineno}: {too_many_digits()}") from None
            raise MatrixFormatError(f"line {lineno}: entries must be base-10 integers") from None
        rows.append(row)
    return IntMatrix.from_rows(rows, col_count=c)


def format_matrix_text(a: IntMatrix) -> str:
    lines = [f"{a.row_count} {a.col_count}"]
    lines.extend(" ".join(map(int_text, row)) for row in a.rows)
    return "\n".join(lines) + "\n"
