"""Zero-cycle class groups of rational surfaces over p-adic fields.

The package turns combinatorial data of a regular model's special fiber
(Frobenius orbits of components, multiplicities, and restriction degrees
of chosen curve classes) into explicit finitely generated abelian
groups: the quotient B(X) presented by the specialization matrix, the
induced degree character, its kernel B(X)_0, and the index.

Layers, bottom up:

* :mod:`chowfiber.exact_linalg` — exact integer matrices, the Smith
  normal form as a checked log of operations, invariant factors from
  local Smith forms, kernels, cokernels, and the minor-enumeration oracle;
* :mod:`chowfiber.galois` — Frobenius orbits of fiber components and
  the weight vector of the fiber-class pairing;
* :mod:`chowfiber.fiber_model` — the JSON input schema, normalization,
  and validation diagnostics;
* :mod:`chowfiber.chow` — the pipeline assembling the report, with the
  degree-zero part read off the Smith diagonal and checked against a
  transform-free quotient route (``chowfiber`` exits 3 if they disagree);
* :mod:`chowfiber.cli` — the ``chowfiber`` command.
"""

from .exact_linalg import (
    FGAbelianGroup,
    IntMatrix,
    MatrixFormatError,
    NotInLattice,
    OracleSizeLimitError,
    SelfCheckError,
    SmithDecomposition,
    cokernel,
    determinant,
    determinantal_divisors,
    format_matrix_text,
    integer_kernel,
    invariant_factors_from_divisors,
    local_invariant_factors,
    parse_matrix_text,
    snf,
    solve_in_lattice,
)
from .galois import (
    ComponentOrbit,
    WeightVector,
    hom_T_basis,
    orbits,
    xi_weights,
)
from .fiber_model import (
    Diagnostic,
    ExpectedResult,
    FiberModel,
    GeometricSection,
    Hypotheses,
    ParseError,
    PicGenerator,
    SchemaError,
    build_specialization_matrix,
    has_errors,
    parse_model,
    validate,
)
from .chow import (
    ChowReport,
    InvalidModel,
    compute_b0,
    compute_xi_bar,
    report,
)

__version__ = "0.1.0"

__all__ = [
    "ChowReport",
    "ComponentOrbit",
    "Diagnostic",
    "ExpectedResult",
    "FGAbelianGroup",
    "FiberModel",
    "GeometricSection",
    "Hypotheses",
    "IntMatrix",
    "InvalidModel",
    "MatrixFormatError",
    "NotInLattice",
    "OracleSizeLimitError",
    "ParseError",
    "PicGenerator",
    "SchemaError",
    "SelfCheckError",
    "SmithDecomposition",
    "WeightVector",
    "build_specialization_matrix",
    "cokernel",
    "compute_b0",
    "compute_xi_bar",
    "determinant",
    "determinantal_divisors",
    "format_matrix_text",
    "has_errors",
    "hom_T_basis",
    "integer_kernel",
    "invariant_factors_from_divisors",
    "local_invariant_factors",
    "orbits",
    "parse_matrix_text",
    "parse_model",
    "report",
    "snf",
    "solve_in_lattice",
    "validate",
    "xi_weights",
]
