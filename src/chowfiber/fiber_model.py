"""Input schema for a special fiber and its validation laws.

A model document describes the closed fiber of a regular projective
model of a surface over a p-adic field at the level of combinatorics:
the Frobenius orbits of geometric components (with multiplicities and
orbit sizes) and, for a chosen set of curve classes on the components,
the integer degrees obtained by restricting the line bundle of each
component to each curve.  Those degrees form the specialization matrix
whose cokernel the ``chow`` module turns into the zero-cycle class
group.

Document format (a JSON object; every string in it must be printable)::

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
      "expected": {                        optional regression record, a group
        "b0_rank": 0, "b0_torsion": [2], "source": "..."
      }
    }

The schema is strict, and one table per kind of entry states its keys
and exact JSON types; one walk over the entries tests each law once and
names the first fault where it finds it.  An unknown or missing required
key, a key given twice in one object of JSON text, a boolean for an
integer and a null for an absent key are refused.  So is any string that
fails ``str.isprintable`` (a control character, an escape, a line
separator), which could forge or restyle a line of output, and an
``expected`` record that is no group (a negative rank, or torsion factors
that are not each at least 2 and a divisor of the next).

JSON text is read by json's C scanner, the one ``json.loads`` runs, with
the same settings.  Text it does not read whole (a BOM, no value, data
after the value, a literal past the digit limit, nesting past the
recursion limit) goes to ``json.loads`` itself, which words the refusal;
so reading a well-formed document never loads the ``json`` package.

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
from operator import mul

from ._value import Value
from .exact_linalg import FGAbelianGroup, IntMatrix, int_text, too_many_digits
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
        Value.__init__(self, severity, code, subject, message)

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
# schema tables
# ----------------------------------------------------------------------


class _Table:
    """One kind of entry: each field with its exact JSON type in check order,
    the fields an entry must hold, and ``where``, naming the entry at an index."""

    __slots__ = ("where", "required", "kinds")

    def __init__(self, where: str, required: str, **kinds: type) -> None:
        self.where, self.required, self.kinds = where, frozenset(required.split()), kinds


_DOCUMENT = _Table(
    "document", "name orbits", name=str, hypotheses=dict, orbits=list, generators=list,
    geometric=dict, notes=str, expected=dict,
)
_HYPOTHESES = _Table("hypotheses", "", reduced_components_smooth=bool, pic_unramified_descent=bool)
_ORBIT = _Table("orbits[{0}]", "name multiplicity size", name=str, multiplicity=int, size=int)
_GENERATOR = _Table("generators[{0}]", "name host", name=str, host=str, degrees=dict)
_GEOMETRIC = _Table(
    "geometric", "components frobenius orbit_of",
    components=list, frobenius=list, orbit_of=dict, degrees=dict,
)
_EXPECTED = _Table(
    "expected", "b0_rank b0_torsion source", b0_rank=int, b0_torsion=list, source=str
)

_LABELS = {
    str: "a string", int: "an integer", bool: "a boolean", dict: "an object", list: "an array"
}


def _check(entries: list, table: _Table) -> None:
    """Refuse the first of ``entries`` that breaks ``table``, naming its first fault.

    One walk tests each law once per entry, in fault order: an object, keys
    that are strings naming fields, the required fields, then each value of
    its field's exact type (so none is null), in table order, each string
    printable.  Only a failed test calls :func:`_check_keys` or :func:`_expect`,
    which name the fault (and accept subclasses of the exact types).
    """
    kinds, required = table.kinds, table.required
    field = "{1}" if table is _DOCUMENT else table.where + ".{1}"  # the document's fields are bare
    for idx, entry in enumerate(entries):
        if type(entry) is not dict:
            _expect(entry, dict, table.where, idx)
        for key in entry:
            if type(key) is not str or key not in kinds:
                _check_keys(entry, table.where.format(idx), table)
        if not entry.keys() >= required:
            _check_keys(entry, table.where.format(idx), table)
        for key, kind in kinds.items():
            if key in entry:
                value = entry[key]
                if type(value) is not kind or kind is str and not value.isprintable():
                    _expect(value, kind, field, idx, key)


def _expect(value, kind: type, where: str, *args):
    """``value`` when it is a JSON value of type ``kind``, else a :class:`SchemaError`
    naming ``where.format(*args)``, a location formatted only on that path."""
    if type(value) is kind and (kind is not str or value.isprintable()):
        return value
    where = where.format(*args)
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
        # Every string may be echoed; none may move the cursor or forge a line.
        if not value.isprintable():
            char = next(c for c in value if not c.isprintable())
            raise SchemaError(f"{where}: string holds the non-printable character {char!r}")
    return value


def _check_keys(obj: dict, where: str, table: _Table) -> None:
    """Name the first key fault of ``obj``: a key that is no string, then the
    unknown keys, sorted, then the missing required ones, in table order."""
    for key in obj:
        if not isinstance(key, str):
            raise SchemaError(f"{where}: key {key!r} is not a string")
    unknown = sorted(set(obj).difference(table.kinds))
    if unknown:
        names = ", ".join(key if key.isprintable() else repr(key) for key in unknown)
        raise SchemaError(f"{where}: unknown keys {names}")
    missing = [k for k in table.kinds if k in table.required and k not in obj]
    if missing:
        raise SchemaError(f"{where}: missing required keys {', '.join(missing)}")


def _completed(maps: list[dict], zeros: dict, noun: str, where: str, labels: Sequence) -> list:
    """Each map of integers, with a 0 for each key of ``zeros``, which holds all its keys;
    a map's first unknown key (map order) is named before its first non-integer (key order)."""
    completed = []
    for label, raw in zip(labels, maps):
        full = {**zeros, **raw}
        if len(full) != len(zeros):
            key = next(key for key in raw if key not in zeros)
            raise SchemaError(f"{where.format(label)}: unknown {noun} {key!r}")
        for key, value in full.items():
            if type(value) is not int:
                _expect(value, int, where + ".{}", label, key)
        completed.append(full)
    return completed


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


_JSON_SPACE = " \t\n\r"  # what json.loads skips before and after the value


class _ScannerContext:
    """The settings ``json.loads(text, object_pairs_hook=_unique_keys)`` gives its C scanner."""

    strict, object_hook, object_pairs_hook = True, None, staticmethod(_unique_keys)
    parse_float, parse_int = float, int
    constants = {"-Infinity": float("-inf"), "Infinity": float("inf"), "NaN": float("nan")}
    parse_constant = constants.__getitem__


_scanner = None  # built on the first text read, so matrix commands never load _json


def _read_json(document: str) -> object:
    """The value of JSON text ``document``, as ``json.loads(document)`` reads it.

    Text the C scanner does not read whole (a BOM, no value, data after it,
    any fault but a :class:`SchemaError`, no ``_json``) goes to ``json.loads``.
    """
    global _scanner
    try:
        if _scanner is None:
            from _json import make_scanner

            _scanner = make_scanner(_ScannerContext)
        value, end = _scanner(document, len(document) - len(document.lstrip(_JSON_SPACE)))
        if end == len(document.rstrip(_JSON_SPACE)):  # no value ends in whitespace
            return value
    except SchemaError:
        raise
    except Exception:
        pass  # json.loads meets the same fault and words it
    import json  # only here, so a well-formed document never loads it

    try:
        return json.loads(document, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as e:
        raise ParseError(f"line {e.lineno}, column {e.colno}: {e.msg}") from None
    except RecursionError:
        raise ParseError("document is nested too deeply") from None
    except SchemaError:
        raise
    except ValueError:
        # The one other refusal: an integer literal past the digit limit.
        raise ParseError(too_many_digits()) from None


def parse_model(document: str | Mapping) -> FiberModel:
    """Parse and normalize a model document (JSON text or a parsed object).

    json's C scanner reads JSON text; ``json.loads`` words each refusal of
    it as a :class:`ParseError` (see :func:`_read_json`).  A document that
    breaks a law of the schema (see the module docstring) raises
    :class:`SchemaError`: each entry is checked against its table by
    :func:`_check`, then the laws that span fields are checked in document
    order.
    """
    raw = _read_json(document) if isinstance(document, str) else dict(document)
    _check([raw], _DOCUMENT)
    hypotheses = FiberModel._defaults["hypotheses"]
    if "hypotheses" in raw:
        _check([raw["hypotheses"]], _HYPOTHESES)
        hypotheses = Hypotheses(**raw["hypotheses"])  # an absent one is not asserted
    orbit_tuple = _parse_orbits(raw["orbits"])
    generators = _parse_generators(raw.get("generators", []), orbit_tuple)
    geometric = expected = None
    if "geometric" in raw:
        geometric = _parse_geometric(raw["geometric"], orbit_tuple, generators)
    if "expected" in raw:
        expected = _parse_expected(raw["expected"])
    return FiberModel(
        raw["name"], orbit_tuple, generators, hypotheses, geometric, raw.get("notes"), expected
    )


def _parse_orbits(arr: list) -> tuple[ComponentOrbit, ...]:
    if not arr:
        raise SchemaError("orbits: the orbit list must not be empty")
    _check(arr, _ORBIT)
    specs: list[ComponentOrbit] = []
    seen: set[str] = set()
    for idx, item in enumerate(arr):
        oname = item["name"]
        if oname in seen:
            raise SchemaError(f"orbits[{idx}]: duplicate orbit name {oname!r}")
        seen.add(oname)
        try:
            specs.append(ComponentOrbit(oname, item["size"], item["multiplicity"]))
        except ValueError as e:
            raise SchemaError(f"orbits[{idx}]: {e}") from None
    return tuple(specs)


def _parse_generators(arr: list, declared: Sequence[ComponentOrbit]) -> tuple[PicGenerator, ...]:
    _check(arr, _GENERATOR)
    zeros = dict.fromkeys([o.name for o in declared], 0)
    seen: set[str] = set()
    for idx, item in enumerate(arr):
        gname, host = item["name"], item["host"]
        if gname in seen:
            raise SchemaError(f"generators[{idx}]: duplicate generator name {gname!r}")
        if host not in zeros:
            raise SchemaError(f"generators[{idx}]: host references unknown orbit {host!r}")
        seen.add(gname)
    degrees = [item.get("degrees", {}) for item in arr]
    degrees = _completed(degrees, zeros, "orbit", "generators[{}].degrees", range(len(arr)))
    return tuple(PicGenerator(g["name"], g["host"], d) for g, d in zip(arr, degrees))


def _parse_geometric(
    raw: dict, declared_orbits: Sequence[ComponentOrbit], generators: Sequence[PicGenerator]
) -> GeometricSection:
    _check([raw], _GEOMETRIC)
    components = [
        _expect(x, str, "geometric.components[{}]", i) for i, x in enumerate(raw["components"])
    ]
    images = [_expect(x, str, "geometric.frobenius[{}]", i) for i, x in enumerate(raw["frobenius"])]
    try:
        cycles = orbits(components, images)
    except ValueError as e:
        raise SchemaError(f"geometric: {e}") from None

    zeros = dict.fromkeys(components, 0)
    orbit_of = raw["orbit_of"]
    declared = {o.name: o.size for o in declared_orbits}
    for comp in components:
        if comp not in orbit_of:
            raise SchemaError(f"geometric.orbit_of: missing component {comp!r}")
    for comp, oname in orbit_of.items():
        if comp not in zeros:
            raise SchemaError(f"geometric.orbit_of: unknown component {comp!r}")
        if _expect(oname, str, "geometric.orbit_of.{}", comp) not in declared:
            raise SchemaError(f"geometric.orbit_of: unknown orbit {oname!r}")

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

    degrees_raw = raw.get("degrees", {})
    generator_names = {g.name for g in generators}
    for gname, comp_map in degrees_raw.items():
        if gname not in generator_names:
            raise SchemaError(f"geometric.degrees: unknown generator {gname!r}")
        _expect(comp_map, dict, "geometric.degrees.{}", gname)
    maps = _completed(
        list(degrees_raw.values()), zeros, "component", "geometric.degrees.{}", list(degrees_raw)
    )
    return GeometricSection(members=members, degrees=dict(zip(degrees_raw, maps)))


def _parse_expected(raw: dict) -> ExpectedResult:
    _check([raw], _EXPECTED)
    for i, x in enumerate(raw["b0_torsion"]):
        _expect(x, int, "expected.b0_torsion[{}]", i)
    try:
        group = FGAbelianGroup(raw["b0_rank"], raw["b0_torsion"])  # it states what a group is
    except ValueError as e:
        raise SchemaError(f"expected: {e}") from None
    return ExpectedResult(group.rank, group.invariant_factors, raw["source"])


# ----------------------------------------------------------------------
# the specialization matrix and the validation laws
# ----------------------------------------------------------------------


def build_specialization_matrix(m: FiberModel) -> IntMatrix:
    """Degrees as a matrix: rows are orbits, columns are generators, model order."""
    names = [o.name for o in m.orbits]
    columns = [map(g.degrees.__getitem__, names) for g in m.generators]
    return IntMatrix.from_rows(zip(*columns) if columns else [()] * len(names), len(columns))


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

    names = [o.name for o in m.orbits]
    for g in m.generators:
        pairing = sum(map(mul, weights.weights, map(g.degrees.__getitem__, names)))
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
