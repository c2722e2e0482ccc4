"""Input schema for a special fiber and its validation laws.

A model document describes the closed fiber of a regular projective
model of a surface over a p-adic field at the level of combinatorics:
the Frobenius orbits of geometric components (with multiplicities and
orbit sizes) and, for a chosen set of curve classes on the components,
the integer degrees obtained by restricting the line bundle of each
component to each curve.  Those degrees form the specialization matrix
whose cokernel the ``chow`` module turns into the zero-cycle class
group.

Document format (JSON object, strict: unknown top-level keys, and in
JSON text a key repeated within one object, are rejected)::

    {
      "name": "...",                       required
      "hypotheses": {                      optional, defaults to false/false
        "reduced_components_smooth": bool,
        "pic_unramified_descent": bool
      },
      "orbits": [                          required, non-empty
        {"name": "A", "multiplicity": 1, "size": 2}, ...
      ],
      "generators": [                      optional
        {"name": "c01", "host": "A", "degrees": {"A": -2, ...}}, ...
      ],
      "geometric": {                       optional raw component-level data
        "components": ["A1", "A2", ...],
        "frobenius":  ["A2", "A1", ...],   image list, same order
        "orbit_of":   {"A1": "A", ...},
        "degrees":    {"c01": {"A1": -2, "A2": -2, ...}, ...}
      },
      "notes": "...",                      optional free text
      "expected": {                        optional regression record
        "b0_rank": 0, "b0_torsion": [2], "source": "..."
      }
    }

An orbit's ``size`` is a count, held as a plain integer.  Components
have names only in the optional ``geometric`` section, whose Frobenius
cycles must realize the declared orbits and sizes exactly; the model
keeps those cycles, not the image list.

Degrees are maps from orbit names to integers; missing keys mean 0 and
are normalized to explicit zeros.  The hypotheses are assertions by the
user about the geometry (smoothness of the reduced components, and that
line bundle classes descend from the algebraic closure to the maximal
unramified extension); they are echoed in reports, never checked.

Validation (:func:`validate`) checks the laws the degree data must obey:
every generator column must pair to zero against the multiplicity
weights (``xi-orthogonality``), and component-level degrees, when given,
must be constant on each orbit and agree with the declared orbit-level
value (``orbit-constancy``).
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

from ._value import Value
from .exact_linalg import IntMatrix, int_text, too_many_digits
from .galois import ComponentOrbit, orbits, xi_weights


class ParseError(ValueError):
    """The document is not syntactically valid JSON."""


class SchemaError(ValueError):
    """The document does not conform to the model schema."""


SEVERITY_ERROR = "error"
SEVERITY_WARNING = "warning"

#: The fixed set of diagnostic codes emitted by :func:`validate`.
DIAGNOSTIC_CODES = frozenset(
    {"xi-orthogonality", "orbit-constancy", "no-generators", "multiplicity-gcd"}
)


class Diagnostic(Value):
    __slots__ = ("severity", "code", "subject", "message")
    severity: str
    code: str
    subject: str
    message: str

    def __init__(self, severity: str, code: str, subject: str, message: str) -> None:
        if severity not in (SEVERITY_ERROR, SEVERITY_WARNING):
            raise ValueError(f"unknown severity {severity!r}")
        if code not in DIAGNOSTIC_CODES:
            raise ValueError(f"unknown diagnostic code {code!r}")
        object.__setattr__(self, "severity", severity)
        object.__setattr__(self, "code", code)
        object.__setattr__(self, "subject", subject)
        object.__setattr__(self, "message", message)

    def is_error(self) -> bool:
        return self.severity == SEVERITY_ERROR

    def __str__(self) -> str:
        return f"{self.severity.upper()} {self.code} {self.subject}: {self.message}"


class Hypotheses(Value):
    """User-asserted geometric hypotheses, echoed verbatim in reports."""

    __slots__ = ("reduced_components_smooth", "pic_unramified_descent")
    _defaults = {"reduced_components_smooth": False, "pic_unramified_descent": False}
    reduced_components_smooth: bool
    pic_unramified_descent: bool


class ExpectedResult(Value):
    """A recorded expected result for fixture regression; never a pass target."""

    __slots__ = ("b0_rank", "b0_torsion", "source")
    b0_rank: int
    b0_torsion: tuple[int, ...]
    source: str


class PicGenerator(Value):
    """A chosen curve class on a component, with its degree against every orbit.

    ``degrees`` is total after normalization: every orbit of the model
    has an entry (zeros explicit).
    """

    __slots__ = ("name", "host", "degrees")
    __hash__ = None  # type: ignore[assignment]
    name: str
    host: str
    degrees: Mapping[str, int]


class GeometricSection(Value):
    """Raw component-level data: each orbit's components in Frobenius cycle
    order (the image list itself is not kept), and per-component degrees."""

    __slots__ = ("members", "degrees")
    __hash__ = None  # type: ignore[assignment]
    members: Mapping[str, tuple[str, ...]]
    degrees: Mapping[str, Mapping[str, int]]


class FiberModel(Value):
    __slots__ = (
        "name", "orbits", "generators", "hypotheses", "geometric", "notes", "expected"
    )
    __hash__ = None  # type: ignore[assignment]
    # The default hypotheses are one shared value; it is immutable.
    _defaults = {"hypotheses": Hypotheses(), "geometric": None, "notes": None, "expected": None}
    name: str
    orbits: tuple[ComponentOrbit, ...]
    generators: tuple[PicGenerator, ...]
    hypotheses: Hypotheses
    geometric: GeometricSection | None
    notes: str | None
    expected: ExpectedResult | None


# ----------------------------------------------------------------------
# schema helpers
# ----------------------------------------------------------------------


_LABELS = {
    str: "a string", int: "an integer", bool: "a boolean", dict: "an object", list: "an array"
}


def _expect(value, kind: type, where: str):
    """``value`` when it is a JSON value of type ``kind``, else :class:`SchemaError`."""
    # bool is a subclass of int; keep the two apart.
    if isinstance(value, bool) and kind is not bool:
        raise SchemaError(f"{where}: expected {_LABELS[kind]}, got a boolean")
    if not isinstance(value, kind):
        raise SchemaError(f"{where}: expected {_LABELS[kind]}, got {type(value).__name__}")
    if kind is str:
        # JSON escapes can spell lone surrogates, which no output can encode.
        try:
            value.encode("utf-8")
        except UnicodeEncodeError:
            raise SchemaError(f"{where}: string holds a lone surrogate") from None
    return value


def _check_keys(
    obj: dict, where: str, required: Sequence[str], optional: Sequence[str] = ()
) -> None:
    unknown = sorted(set(obj).difference(required, optional))
    if unknown:
        raise SchemaError(f"{where}: unknown keys {', '.join(unknown)}")
    missing = [k for k in required if k not in obj]
    if missing:
        raise SchemaError(f"{where}: missing required keys {', '.join(missing)}")


# ----------------------------------------------------------------------
# parsing
# ----------------------------------------------------------------------


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """The object of a JSON document, refusing a key that appears twice in it."""
    obj = dict(pairs)
    if len(obj) != len(pairs):
        seen: set[str] = set()
        for key, _ in pairs:
            if key in seen:
                raise SchemaError(f"key {key!r} appears more than once in one object")
            seen.add(key)
    return obj


def parse_model(document: str | Mapping) -> FiberModel:
    """Parse and normalize a model document (JSON text or a parsed object).

    Raises :class:`ParseError` for malformed JSON and :class:`SchemaError`
    for structural problems (unknown or repeated keys, unknown orbit
    references, duplicate names, multiplicity below 1, an empty orbit
    list, or a geometric section whose Frobenius cycles do not match the
    declared orbits).
    """
    if isinstance(document, str):
        import json  # here, so processes that read only matrices never load it
        try:
            raw = json.loads(document, object_pairs_hook=_unique_keys)
        except json.JSONDecodeError as e:
            raise ParseError(f"line {e.lineno}, column {e.colno}: {e.msg}") from None
        except RecursionError:
            raise ParseError("document is nested too deeply") from None
        except SchemaError:
            raise
        except ValueError:
            # The one other refusal: an integer literal past the digit limit.
            raise ParseError(too_many_digits()) from None
    else:
        raw = dict(document)
    top = _expect(raw, dict, "document")
    _check_keys(
        top,
        "document",
        ("name", "orbits"),
        ("hypotheses", "generators", "geometric", "notes", "expected"),
    )

    name = _expect(top["name"], str, "name")
    hypotheses = Hypotheses()
    if "hypotheses" in top:
        hypotheses = _parse_hypotheses(top["hypotheses"])
    orbit_tuple = _parse_orbits(top["orbits"])
    orbit_names = [o.name for o in orbit_tuple]

    generators = _parse_generators(top.get("generators", []), orbit_names)

    geometric = None
    if "geometric" in top:
        geometric = _parse_geometric(
            top["geometric"], orbit_tuple, [g.name for g in generators]
        )

    notes = None
    if "notes" in top:
        notes = _expect(top["notes"], str, "notes")
    expected = None
    if "expected" in top:
        expected = _parse_expected(top["expected"])

    return FiberModel(name, orbit_tuple, generators, hypotheses, geometric, notes, expected)


def _parse_hypotheses(raw: object) -> Hypotheses:
    obj = _expect(raw, dict, "hypotheses")
    keys = ("reduced_components_smooth", "pic_unramified_descent")
    _check_keys(obj, "hypotheses", (), keys)
    return Hypotheses(*(_expect(obj.get(k, False), bool, f"hypotheses.{k}") for k in keys))


def _parse_orbits(raw: object) -> tuple[ComponentOrbit, ...]:
    arr = _expect(raw, list, "orbits")
    if not arr:
        raise SchemaError("orbits: the orbit list must not be empty")
    specs: list[ComponentOrbit] = []
    seen: set[str] = set()
    for idx, item in enumerate(arr):
        where = f"orbits[{idx}]"
        obj = _expect(item, dict, where)
        _check_keys(obj, where, ("name", "multiplicity", "size"))
        oname = _expect(obj["name"], str, f"{where}.name")
        mult = _expect(obj["multiplicity"], int, f"{where}.multiplicity")
        size = _expect(obj["size"], int, f"{where}.size")
        if oname in seen:
            raise SchemaError(f"{where}: duplicate orbit name {oname!r}")
        seen.add(oname)
        try:
            specs.append(ComponentOrbit(name=oname, size=size, multiplicity=mult))
        except ValueError as e:
            raise SchemaError(f"{where}: {e}") from None
    return tuple(specs)


def _parse_generators(raw: object, orbit_names: Sequence[str]) -> tuple[PicGenerator, ...]:
    arr = _expect(raw, list, "generators")
    known = set(orbit_names)
    generators: list[PicGenerator] = []
    seen: set[str] = set()
    for idx, item in enumerate(arr):
        where = f"generators[{idx}]"
        obj = _expect(item, dict, where)
        _check_keys(obj, where, ("name", "host"), ("degrees",))
        gname = _expect(obj["name"], str, f"{where}.name")
        host = _expect(obj["host"], str, f"{where}.host")
        if gname in seen:
            raise SchemaError(f"{where}: duplicate generator name {gname!r}")
        seen.add(gname)
        if host not in known:
            raise SchemaError(f"{where}: host references unknown orbit {host!r}")
        degrees_raw = _expect(obj.get("degrees", {}), dict, f"{where}.degrees")
        for key in degrees_raw:
            if key not in known:
                raise SchemaError(f"{where}.degrees: unknown orbit {key!r}")
        degrees = {oname: degrees_raw.get(oname, 0) for oname in orbit_names}
        for oname, value in degrees.items():
            # Spell the label only for a value that is not a plain int.
            if type(value) is not int:
                _expect(value, int, f"{where}.degrees.{oname}")
        generators.append(PicGenerator(gname, host, degrees))
    return tuple(generators)


def _parse_geometric(
    raw: object,
    declared_orbits: Sequence[ComponentOrbit],
    generator_names: Sequence[str],
) -> GeometricSection:
    obj = _expect(raw, dict, "geometric")
    _check_keys(obj, "geometric", ("components", "frobenius", "orbit_of"), ("degrees",))

    components = [
        _expect(x, str, f"geometric.components[{i}]")
        for i, x in enumerate(_expect(obj["components"], list, "geometric.components"))
    ]
    images = [
        _expect(x, str, f"geometric.frobenius[{i}]")
        for i, x in enumerate(_expect(obj["frobenius"], list, "geometric.frobenius"))
    ]
    try:
        cycles = orbits(components, images)
    except ValueError as e:
        raise SchemaError(f"geometric: {e}") from None

    known = set(components)
    orbit_of_raw = _expect(obj["orbit_of"], dict, "geometric.orbit_of")
    declared = {o.name: o.size for o in declared_orbits}
    orbit_of: dict[str, str] = {}
    for comp in components:
        if comp not in orbit_of_raw:
            raise SchemaError(f"geometric.orbit_of: missing component {comp!r}")
    for comp, oname in orbit_of_raw.items():
        if comp not in known:
            raise SchemaError(f"geometric.orbit_of: unknown component {comp!r}")
        oname = _expect(oname, str, f"geometric.orbit_of.{comp}")
        if oname not in declared:
            raise SchemaError(f"geometric.orbit_of: unknown orbit {oname!r}")
        orbit_of[comp] = oname

    # The cycle decomposition of Frobenius must reproduce the declared
    # orbit partition exactly (one cycle per orbit, of the declared size).
    members: dict[str, tuple[str, ...]] = {}
    for cycle in cycles:
        targets = {orbit_of[c] for c in cycle}
        if len(targets) != 1:
            raise SchemaError(
                f"geometric: cycle {cycle} maps to several orbits {sorted(targets)}"
            )
        oname = targets.pop()
        if oname in members:
            raise SchemaError(f"geometric: orbit {oname!r} is hit by more than one cycle")
        if len(cycle) != declared[oname]:
            raise SchemaError(
                f"geometric: orbit {oname!r} has declared size {int_text(declared[oname])} "
                f"but its cycle has {len(cycle)} components"
            )
        members[oname] = tuple(cycle)
    missing = [oname for oname in declared if oname not in members]
    if missing:
        raise SchemaError(f"geometric: no cycle realizes orbits {', '.join(missing)}")

    degrees_raw = _expect(obj.get("degrees", {}), dict, "geometric.degrees")
    degrees: dict[str, dict[str, int]] = {}
    for gname, comp_map_raw in degrees_raw.items():
        if gname not in generator_names:
            raise SchemaError(f"geometric.degrees: unknown generator {gname!r}")
        comp_map = _expect(comp_map_raw, dict, f"geometric.degrees.{gname}")
        for comp in comp_map:
            if comp not in known:
                raise SchemaError(f"geometric.degrees.{gname}: unknown component {comp!r}")
        degrees[gname] = {
            comp: _expect(comp_map.get(comp, 0), int, f"geometric.degrees.{gname}.{comp}")
            for comp in components
        }

    return GeometricSection(members=members, degrees=degrees)


def _parse_expected(raw: object) -> ExpectedResult:
    obj = _expect(raw, dict, "expected")
    _check_keys(obj, "expected", ("b0_rank", "b0_torsion", "source"))
    torsion = tuple(
        _expect(x, int, f"expected.b0_torsion[{i}]")
        for i, x in enumerate(_expect(obj["b0_torsion"], list, "expected.b0_torsion"))
    )
    return ExpectedResult(
        b0_rank=_expect(obj["b0_rank"], int, "expected.b0_rank"),
        b0_torsion=torsion,
        source=_expect(obj["source"], str, "expected.source"),
    )


# ----------------------------------------------------------------------
# the specialization matrix and the validation laws
# ----------------------------------------------------------------------


def build_specialization_matrix(m: FiberModel) -> IntMatrix:
    """Degrees as a matrix: rows are orbits, columns are generators, model order."""
    return IntMatrix.from_rows(
        [[g.degrees[o.name] for g in m.generators] for o in m.orbits],
        col_count=len(m.generators),
    )


def validate(m: FiberModel) -> list[Diagnostic]:
    """Check the degree data against the laws it must satisfy.

    Emits, in a fixed order:

    * ``no-generators`` (warning) for a multi-orbit model with no
      generators — the cokernel is then the full character lattice,
      which is rarely what the user meant;
    * ``xi-orthogonality`` (error) for every generator whose degree
      column pairs to a nonzero value against the multiplicity weights.
      Restricting the ideal sheaf of the whole fiber to a curve gives
      the zero bundle, so the weighted sum of any true degree column
      vanishes; a violation means the data cannot come from a fiber;
    * ``orbit-constancy`` (error) when component-level degrees vary
      inside an orbit or disagree with the declared orbit-level value;
    * ``multiplicity-gcd`` (warning) when the gcd of the weights exceeds
      1: the degree character then lands in a proper subgroup of Z.
    """
    diagnostics: list[Diagnostic] = []
    weights = xi_weights(m.orbits)

    if len(m.orbits) > 1 and not m.generators:
        diagnostics.append(
            Diagnostic(
                SEVERITY_WARNING,
                "no-generators",
                m.name,
                "multi-orbit model with an empty generator list; "
                "the quotient is the full character lattice",
            )
        )

    for g in m.generators:
        pairing = sum(w * g.degrees[o.name] for w, o in zip(weights.weights, m.orbits))
        if pairing != 0:
            diagnostics.append(
                Diagnostic(
                    SEVERITY_ERROR,
                    "xi-orthogonality",
                    g.name,
                    f"weighted degree sum against the fiber class is {int_text(pairing)}, "
                    "expected 0",
                )
            )

    if m.geometric is not None:
        for g in m.generators:
            comp_degrees = m.geometric.degrees.get(g.name)
            if comp_degrees is None:
                continue
            for o in m.orbits:
                values = [comp_degrees[c] for c in m.geometric.members[o.name]]
                if len(set(values)) > 1:
                    diagnostics.append(
                        Diagnostic(
                            SEVERITY_ERROR,
                            "orbit-constancy",
                            g.name,
                            f"degrees on orbit {o.name!r} differ across conjugate "
                            f"components: [{', '.join(map(int_text, values))}]",
                        )
                    )
                elif values[0] != g.degrees[o.name]:
                    diagnostics.append(
                        Diagnostic(
                            SEVERITY_ERROR,
                            "orbit-constancy",
                            g.name,
                            f"component-level degree {int_text(values[0])} on orbit "
                            f"{o.name!r} disagrees with the declared value "
                            f"{int_text(g.degrees[o.name])}",
                        )
                    )

    g = weights.image_index()
    if g > 1:
        diagnostics.append(
            Diagnostic(
                SEVERITY_WARNING,
                "multiplicity-gcd",
                m.name,
                f"gcd of the multiplicity weights is {int_text(g)}; "
                f"the degree character lands in {int_text(g)}Z",
            )
        )

    return diagnostics


def has_errors(diagnostics: Sequence[Diagnostic]) -> bool:
    return any(d.is_error() for d in diagnostics)
