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

Both routes have the same shape: write a target matrix in coordinates of
the kernel of one integer row, then take the quotient.
:func:`~chowfiber.exact_linalg.kernel_coordinates` does the first step
with one Smith decomposition of the row.  The kernel route takes its
quotient with a verified Smith decomposition; the quotient route reads
only the group, so it takes its invariant factors from
:func:`~chowfiber.exact_linalg.invariant_factors_mod_minor`, which works
modulo a nonzero minor and keeps no transforms.  A strict report thus
makes four Smith decompositions (the degree matrix, the row of each
route and the kernel route's quotient) and one modular reduction, and
the two routes share no elimination code.  The decomposition of the
degree matrix feeds B(X), the induced character and the kernel route;
the quotient route never reads it.

The two answers agree as abstract groups whenever the input satisfies
the validation laws; the pipeline asserts this agreement, which is the
strongest cheap self-check available, and refuses to hand out a report
that fails it.  A wrong modular answer therefore never leaves
:func:`report`: the verified kernel route derives the same group again.

Everything here is a pure function of the model; reports are immutable
values.
"""

from __future__ import annotations

from typing import Sequence

from ._value import Value
from .exact_linalg import (
    FGAbelianGroup,
    IntMatrix,
    SelfCheckError,
    SmithDecomposition,
    cokernel,
    invariant_factors_mod_minor,
    kernel_coordinates,
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

    def __init__(
        self,
        model_name: str,
        b: FGAbelianGroup,
        b0: FGAbelianGroup | None,
        xi_on_generators: tuple[int, ...] | None,
        index: int | None,
        diagnostics: tuple[Diagnostic, ...],
        special_case: str | None,
        hypotheses: Hypotheses,
        formal_only: bool,
        notes: str | None = None,
        expected: ExpectedResult | None = None,
    ) -> None:
        object.__setattr__(self, "model_name", model_name)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "b0", b0)
        object.__setattr__(self, "xi_on_generators", xi_on_generators)
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "diagnostics", diagnostics)
        object.__setattr__(self, "special_case", special_case)
        object.__setattr__(self, "hypotheses", hypotheses)
        object.__setattr__(self, "formal_only", formal_only)
        object.__setattr__(self, "notes", notes)
        object.__setattr__(self, "expected", expected)


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
    character from it with :func:`compute_xi_bar`.  The two groups must
    agree; :func:`report` checks that they do.
    """
    # Quotient route: every valid degree column annihilates the fiber
    # class, so it has integer coordinates in a saturated annihilator
    # basis; B(X)_0 is the quotient of that corank-one sublattice.  Only
    # its group is read, so no transforms are built for it.
    coords = kernel_coordinates(weights.weights, degrees)
    route_quotient = FGAbelianGroup.quotient(
        coords.row_count, invariant_factors_mod_minor(coords)
    )

    # Kernel route: in the canonical coordinates the relation lattice is
    # spanned by the columns of s, multiples of basis vectors; take the
    # kernel of the character row modulo those relations.
    route_kernel = cokernel(kernel_coordinates(compute_xi_bar(weights, dec), dec.s))

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
        route_quotient, route_kernel = compute_b0(weights, degrees, dec)
        if route_quotient != route_kernel:
            raise SelfCheckError(
                f"the two degree-zero routes disagree: quotient route "
                f"{route_quotient}, kernel route {route_kernel}"
            )
        b0 = route_quotient
        formal_only = False
        _check_validated_shape(m, b, b0)
        # The canonical form of the row compute_xi_bar gives.
        r = dec.rank()
        xi_values = (0,) * r + (index,) + (0,) * (len(m.orbits) - r - 1)
        single = m.orbits[0]
        special_case = (
            IRREDUCIBLE_FIBER
            if len(m.orbits) == 1 and single.size == 1 and single.multiplicity == 1
            else None
        )

    return ChowReport(
        model_name=m.name,
        b=b,
        b0=b0,
        xi_on_generators=xi_values,
        index=index,
        diagnostics=tuple(diagnostics),
        special_case=special_case,
        hypotheses=m.hypotheses,
        formal_only=formal_only,
        notes=m.notes,
        expected=m.expected,
    )


def _check_validated_shape(m: FiberModel, b: FGAbelianGroup, b0: FGAbelianGroup) -> None:
    # On validated input the degree character maps B(X) onto a nonzero
    # subgroup of Z, so the free rank drops by exactly one in the kernel
    # and the torsion is untouched.  A single orbit of multiplicity one
    # forces every column to vanish, so B(X) = Z and B(X)_0 = 0.
    if b.rank < 1:
        raise SelfCheckError("validated model produced a torsion-only quotient")
    if b0.rank != b.rank - 1 or b0.invariant_factors != b.invariant_factors:
        raise SelfCheckError(
            f"degree-zero part {b0} is not a corank-one subgroup of {b} "
            f"with the same torsion"
        )
    if len(m.orbits) == 1 and m.orbits[0].multiplicity == 1:
        if b != FGAbelianGroup(1) or not b0.is_trivial():
            raise SelfCheckError(
                "a single multiplicity-one orbit must give B(X) = Z and trivial B(X)_0"
            )
