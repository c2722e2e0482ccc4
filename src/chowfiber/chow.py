"""From a fiber model to the zero-cycle class group.

The group of zero-cycles modulo rational equivalence on the generic
fiber is, under the hypotheses the user asserts on the model, isomorphic
to B(X): the quotient of the equivariant character lattice of the
special fiber by the column span of the specialization (degree) matrix.
This module computes B(X) as an explicit finitely generated abelian
group, the induced degree character on it, its kernel B(X)_0, and the
index (the positive generator of the image of the degree).

:func:`report` holds the degree matrix and its one verified Smith
decomposition, and every derived object reads them: B(X) is read off
the diagonal, the induced character off ``u_inv``, and B(X)_0 is
computed twice, by genuinely different routes:

* the *quotient route* rewrites every degree column in a saturated
  basis of the characters annihilating the fiber class and takes the
  quotient of that sublattice;
* the *kernel route* expresses the induced degree character in the
  canonical coordinates of B(X), where the relations are the columns of
  ``s``, and takes the kernel.

The quotient route writes the degree matrix in coordinates of the
kernel of the weight row with
:func:`~chowfiber.exact_linalg.kernel_coordinates`, from the gcd chain
of the row, and takes its invariant factors from
:func:`~chowfiber.exact_linalg.local_invariant_factors`, which works one
prime of a gcd of minors at a time and keeps no transforms.  The kernel
route makes no elimination: the relations are diagonal, so once the
character is checked to vanish on them, its kernel modulo them is read
off the Smith diagonal.  A strict report thus makes one Smith
decomposition (the degree matrix) and one call of the local route.  The
decomposition feeds B(X), the induced character and the kernel route;
the quotient route never reads it.

Whenever the input satisfies the validation laws, the degree character
maps B(X) onto index·Z, so B(X) ≅ Z ⊕ B(X)_0 and the verified Smith
diagonal already fixes B(X)_0: one free generator fewer, the same
torsion.  :func:`report` checks this law once, by asserting that both
routes give that group, which is the strongest cheap self-check
available, and refuses to hand out a report that fails it.  A wrong
answer of either route therefore never leaves :func:`report`.

Everything here is a pure function of the model; reports are immutable
values.
"""

from __future__ import annotations

from collections.abc import Sequence

from ._value import Value
from .exact_linalg import (
    FGAbelianGroup,
    IntMatrix,
    SelfCheckError,
    SmithDecomposition,
    kernel_coordinates,
    local_invariant_factors,
    snf,
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
    form: ``index`` at position ``r`` (the rank of the degree matrix),
    zero elsewhere.  A unimodular change of the free generators of B(X)
    brings the row of :func:`compute_xi_bar` to it, so unlike that row
    it does not depend on the basis the Smith reduction picks.
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

    ``dec`` is the Smith decomposition of the degree matrix that
    :func:`report` holds.  In the canonical coordinates ``y = u @ x``
    the character ``x -> w . x`` becomes ``y -> (w @ u^{-1}) . y``.  It
    is well defined on the quotient only when every degree column pairs
    to zero against the weights, which
    :func:`~chowfiber.fiber_model.validate` checks; then it vanishes on
    the ``rank`` relation coordinates and the gcd of the rest is the
    index.  The row depends on the elimination order; :func:`report`
    publishes a canonical form.
    """
    row = IntMatrix.from_rows([weights.weights])
    return (row @ dec.u_inv).rows[0]


def compute_b0(
    weights: WeightVector, degrees: IntMatrix, dec: SmithDecomposition
) -> tuple[FGAbelianGroup, FGAbelianGroup]:
    """The degree-zero part of B(X) as ``(quotient route, kernel route)``.

    ``degrees`` is the degree matrix of a validated model and ``dec``
    its Smith decomposition; the kernel route computes the induced
    character from it with :func:`compute_xi_bar`.  Neither route makes
    a Smith decomposition of its own, so ``dec`` is the only one a
    strict report makes.  Both groups must be the degree-zero part that
    B(X) fixes; :func:`report` checks that they are.  Raises
    :class:`SelfCheckError` if the induced character breaks a relation.
    """
    # Quotient route: every valid degree column annihilates the fiber
    # class, so it has integer coordinates in a saturated annihilator
    # basis; B(X)_0 is the quotient of that corank-one sublattice.  Only
    # its group is read, so no transforms are built for it.
    coords = kernel_coordinates(weights.weights, degrees)
    route_quotient = FGAbelianGroup.quotient(
        coords.row_count, local_invariant_factors(coords)
    )

    # Kernel route: in the canonical coordinates the relations are the
    # columns s_i·e_i of s, so the character row ξ̄ descends to B(X) only
    # if it vanishes on the first r coordinates.  Its kernel is then Z^r
    # plus the kernel on the rest, one rank short when ξ̄ is nonzero, and
    # the relations span s_i·Z in the Z^r: the nonzero Smith diagonal.
    xi_bar = compute_xi_bar(weights, dec)
    r = dec.rank()
    if any(xi_bar[:r]):
        raise SelfCheckError("the induced degree character does not vanish on the relations")
    route_kernel = FGAbelianGroup.quotient(
        len(xi_bar) - any(xi_bar[r:]), dec.nonzero_diagonal()
    )

    return route_quotient, route_kernel


def report(m: FiberModel, mode: str = STRICT) -> ChowReport:
    """Run the full pipeline and assemble a report.

    In strict mode a model with validation errors raises
    :class:`InvalidModel`.  In permissive mode the report is always
    produced: the cokernel is computed formally, the degree-dependent
    fields are absent, and ``formal_only`` is set.
    """
    if mode not in (STRICT, PERMISSIVE):
        raise ValueError(f"mode must be {STRICT!r} or {PERMISSIVE!r}, got {mode!r}")
    diagnostics = validate(m)
    errors = has_errors(diagnostics)
    if errors and mode == STRICT:
        raise InvalidModel(diagnostics)

    degrees = build_specialization_matrix(m)
    dec = snf(degrees)
    b = FGAbelianGroup.quotient(degrees.row_count, dec.nonzero_diagonal())

    if errors:
        b0 = None
        xi_values: tuple[int, ...] | None = None
        index: int | None = None
        special_case = None
        formal_only = True
    else:
        weights = xi_weights(m.orbits)
        index = weights.image_index()
        # The degree character maps B(X) onto index·Z, so on valid input
        # B(X) ≅ Z ⊕ B(X)_0: the free rank drops by one, the torsion stays.
        if b.rank < 1:
            raise SelfCheckError("validated model produced a torsion-only quotient")
        b0 = FGAbelianGroup(b.rank - 1, b.invariant_factors)
        route_quotient, route_kernel = compute_b0(weights, degrees, dec)
        if not route_quotient == route_kernel == b0:
            raise SelfCheckError(
                f"the two degree-zero routes disagree with B(X) = {b}, whose "
                f"degree-zero part is {b0}: quotient route {route_quotient}, "
                f"kernel route {route_kernel}"
            )
        formal_only = False
        # The canonical form of the row compute_xi_bar gives.
        r = dec.rank()
        xi_values = (0,) * r + (index,) + (0,) * (len(m.orbits) - r - 1)
        single = m.orbits[0]
        special_case = (
            IRREDUCIBLE_FIBER
            if len(m.orbits) == 1 and single.size == 1 and single.multiplicity == 1
            else None
        )

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
        formal_only,
        m.notes,
        m.expected,
    )
