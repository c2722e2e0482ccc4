"""The seven-component fixture: real data with a transcription defect.

The bundled ``example31`` document describes a degeneration of an
intersection of two quadrics whose special fiber has seven components
(weights 2, 2, 1, 1, 2, 2, 4), with ten degree columns copied verbatim
from a published table.  Four of the columns pair nonzero against the
fiber class, which genuine degree data cannot do, so the printed table's
column alignment cannot be the original one.  The fixture ships the
transcription as-is: strict mode refuses it, permissive mode shows the
formal cokernel, and the published expected result rides along as a
recorded note rather than a target.
"""

from chowfiber import (
    InvalidModel,
    build_specialization_matrix,
    parse_model,
    report,
    validate,
    xi_weights,
)
from chowfiber.fixtures import fixture_path

model = parse_model(fixture_path("example31").read_text())
print("orbits:", ", ".join(o.name for o in model.orbits))
print("weights:", xi_weights(model.orbits).weights)
print("degree table:")
print(build_specialization_matrix(model))

print("\nvalidation diagnostics:")
for diagnostic in validate(model):
    print(" ", diagnostic)

print("\nstrict mode refuses to compute:")
try:
    report(model)
except InvalidModel as e:
    print("  InvalidModel:", str(e).split(":")[0])

print("\npermissive mode computes the formal cokernel instead:")
rep = report(model, mode="permissive")
print("  B(X) =", rep.b, "(formal only:", str(rep.formal_only) + ")")
print("  B(X)_0 and the index are undefined: the degree character does not")
print("  descend past columns that pair nonzero against the fiber class.")

print("\nthe recorded expectation (kept for reference, never asserted):")
print(f"  degree-zero part of rank {rep.expected.b0_rank} "
      f"with torsion {list(rep.expected.b0_torsion)}")
print("  source:", rep.expected.source)
