"""From a fiber model to the zero-cycle class group.

The group of zero-cycles modulo rational equivalence on the generic
fiber is, under the hypotheses the user asserts on the model, isomorphic
to B(X): the quotient of the equivariant character lattice of the
special fiber by the column span of the specialization (degree) matrix.
This module computes B(X) as an explicit finitely generated abelian
group, the induced degree character on it, its kernel B(X)_0, and the
index (the positive generator of the image of the degree).

:func:`report` reads B(X) as the cokernel of the degree matrix, off the
diagonal of one verified Smith decomposition that it does not keep.
Whenever the input satisfies the validation laws, the degree character
maps B(X) onto index·Z, so B(X) ≅ Z ⊕ B(X)_0: B(X) already fixes
B(X)_0, one free generator fewer, the same torsion.  :func:`report`
checks that against the *quotient route* of :func:`compute_b0`.  A
Bézout vector ``e`` of the weight row ``w`` (``w · e = index``) splits
``Z^n = ker(w) ⊕ Z·e``, and the degree columns lie in ker(w), so B(X)_0
= ker(w) / (degree columns) is ``Z^n`` modulo the columns of ``[e |
degrees]``; the route takes the invariant factors of that matrix with
:func:`~chowfiber.exact_linalg.local_invariant_factors`, one elimination
modulo the square of a gcd of minors.  The two routes to B(X)_0, the
Smith diagonal and the quotient route, share no code.

A strict report thus makes one Smith decomposition and one call of the
local route, and refuses to hand out a report whose routes disagree.
The induced character ξ̄ = w @ u^{-1} of :func:`compute_xi_bar` is not
needed for any field: :func:`report` publishes its canonical form, which
the rank of B(X) and the index fix.

Everything here is a pure function of the model; reports are immutable
values.
"""

from __future__ import annotations

from collections.abc import Sequence
from operator import mul

from ._value import Value
from .exact_linalg import (
    FGAbelianGroup,
    IntMatrix,
    NotInLattice,
    SelfCheckError,
    SmithDecomposition,
    _bezout_vector,
    cokernel,
    local_invariant_factors,
)
from .fiber_model import (
    Diagnostic,
    ExpectedResult,
    FiberModel,
    Hypotheses,
    build_specialization_matrix,
    has_errors,
    validate,
)
from .galois import WeightVector, xi_weights

STRICT = "strict"
PERMISSIVE = "permissive"

#: Tag set when the whole geometric special fiber is a single component
#: of multiplicity one, in which case the degree map is an isomorphism
#: onto Z.
IRREDUCIBLE_FIBER = "irreducible-fiber"

#: Reported as the index when validation failed and the degree character
#: does not descend to the quotient.
INDEX_UNDEFINED = "undefined-under-invalid-input"


class InvalidModel(Exception):
    """The model fails validation and the requested computation needs it."""

    def __init__(self, diagnostics: Sequence[Diagnostic]):
        self.diagnostics = tuple(diagnostics)
        errors = [d for d in self.diagnostics if d.is_error()]
        super().__init__(
            f"model fails validation with {len(errors)} error(s): "
            + "; ".join(str(d) for d in errors)
        )


class ChowReport(Value):
    """Everything the pipeline knows about one model.

    ``b`` is always the formal cokernel of the degree matrix.  The
    fields ``b0``, ``xi_on_generators`` and ``index`` are present only
    when validation succeeded; reading ``b`` as a zero-cycle class group
    is conditional on the asserted hypotheses, and when ``formal_only``
    is set even that reading is unavailable.

    ``xi_on_generators`` is the induced degree character in canonical
    form: ``index`` at position ``r = n − b.rank`` (the rank of the
    degree matrix, by rank–nullity), zero elsewhere.  A unimodular
    change of the free generators of B(X) brings the row of
    :func:`compute_xi_bar` to it, so unlike that row it does not depend
    on the basis the Smith reduction picks.
    """

    __slots__ = (
        "model_name",
        "b",
        "b0",
        "xi_on_generators",
        "index",
        "diagnostics",
        "special_case",
        "hypotheses",
        "formal_only",
        "notes",
        "expected",
    )
    model_name: str
    b: FGAbelianGroup
    b0: FGAbelianGroup | None
    xi_on_generators: tuple[int, ...] | None
    index: int | None
    diagnostics: tuple[Diagnostic, ...]
    special_case: str | None
    hypotheses: Hypotheses
    formal_only: bool
    notes: str | None
    expected: ExpectedResult | None


def compute_xi_bar(weights: WeightVector, dec: SmithDecomposition) -> tuple[int, ...]:
    """The induced degree character on the generators of B(X) that ``snf`` picked.

    ``dec`` is the Smith decomposition of the degree matrix.  In the
    canonical coordinates ``y = u @ x`` the character ``x -> w . x``
    becomes ``y -> (w @ u^{-1}) . y``.  It is well defined on the
    quotient only when every degree column pairs to zero against the
    weights, which :func:`~chowfiber.fiber_model.validate` checks; then
    it vanishes on the ``rank`` relation coordinates and the gcd of the
    rest is the index.  The row depends on the elimination order;
    :func:`report` makes no Smith decomposition of its own and publishes
    the canonical form, which the rank of B(X) and the index fix.  This
    is the reference for that form: a product with ``u_inv``, and a
    ``w`` of the wrong length raises :class:`ValueError`.
    """
    return (IntMatrix.from_rows([weights.weights]) @ dec.u_inv).rows[0]


def compute_b0(weights: WeightVector, degrees: IntMatrix) -> FGAbelianGroup:
    """The degree-zero part of B(X) by the quotient route.

    ``degrees`` is the degree matrix of a validated model, one row per
    weight, or :class:`ValueError` is raised.  A vector ``e`` with
    ``w · e = index`` splits ``Z^n = ker(w) ⊕ Z·e``, and every valid
    degree column lies in ker(w), so B(X)_0, ker(w) modulo the degree
    columns, is ``Z^n`` modulo the columns of ``[e | degrees]``.  ``e``
    is the Bézout vector of the weights and goes first, which keeps the
    minor gcd of the local route tight.  Only the group is read, so no
    Smith decomposition and no transform is made.  On a column that
    leaves ker(w), which :func:`~chowfiber.fiber_model.validate`
    refuses, a direct call raises :class:`NotInLattice` on purpose: the
    input is at fault.  Past validation it is a fault of the package,
    and :func:`report` turns it into :class:`SelfCheckError`.
    """
    w = weights.weights
    if degrees.row_count != len(w):
        raise ValueError("the degree matrix row count does not match the weight count")
    for j, column in enumerate(zip(*degrees.rows)):
        if sum(map(mul, w, column)):
            raise NotInLattice(f"degree column {j} pairs to a nonzero value against the weights")
    e = _bezout_vector(w)
    section = IntMatrix._trusted(
        len(w), degrees.col_count + 1, tuple((x, *row) for x, row in zip(e, degrees.rows))
    )
    return FGAbelianGroup.quotient(len(w), local_invariant_factors(section))


def report(m: FiberModel, mode: str = STRICT) -> ChowReport:
    """Run the full pipeline and assemble a report.

    In strict mode a model with validation errors raises
    :class:`InvalidModel`.  In permissive mode the report is always
    produced: the cokernel is computed formally, the degree-dependent
    fields are absent, and ``formal_only`` is set.  B(X) is
    :func:`~chowfiber.exact_linalg.cokernel` of the degree matrix; every
    other field is read off B(X), the weight row and the quotient route.
    """
    if mode not in (STRICT, PERMISSIVE):
        raise ValueError(f"mode must be {STRICT!r} or {PERMISSIVE!r}, got {mode!r}")
    diagnostics = validate(m)
    errors = has_errors(diagnostics)
    if errors and mode == STRICT:
        raise InvalidModel(diagnostics)

    degrees = build_specialization_matrix(m)
    b = cokernel(degrees)
    b0 = xi_values = index = special_case = None
    if not errors:
        weights = xi_weights(m.orbits)
        index = weights.image_index()
        try:
            b0 = compute_b0(weights, degrees)
        except NotInLattice as e:
            raise SelfCheckError(f"a validated degree column leaves ker(w): {e}") from None
        # The degree character maps B(X) onto index·Z, so on valid input
        # B(X) ≅ Z ⊕ B(X)_0: the free rank drops by one, the torsion stays.
        if FGAbelianGroup(b0.rank + 1, b0.invariant_factors) != b:
            raise SelfCheckError(
                f"the two degree-zero routes disagree: B(X) = {b} from the Smith "
                f"diagonal, but the quotient route gives B(X)_0 = {b0}"
            )
        # The canonical form of the row compute_xi_bar gives; the rank of
        # the degree matrix is n − b.rank.
        r = len(m.orbits) - b.rank
        xi_values = (0,) * r + (index,) + (0,) * (b.rank - 1)
        special_case = IRREDUCIBLE_FIBER if weights.weights == (1,) else None

    # One positional value per field: the fast path of Value.__init__.
    return ChowReport(
        m.name,
        b,
        b0,
        xi_values,
        index,
        tuple(diagnostics),
        special_case,
        m.hypotheses,
        errors,
        m.notes,
        m.expected,
    )
