import json
import sys
import tracemalloc

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from chowfiber import fiber_model
from chowfiber.chow import InvalidModel
from chowfiber.exact_linalg import IntMatrix, solve_in_lattice, too_many_digits
from chowfiber.fiber_model import (
    Diagnostic,
    FiberModel,
    ParseError,
    PicGenerator,
    SchemaError,
    build_specialization_matrix,
    has_errors,
    parse_model,
    validate,
)
from chowfiber.fixtures import fixture_names, fixture_path
from chowfiber.galois import hom_T_basis, xi_weights

ORBIT = {"name": "Y", "multiplicity": 1, "size": 1}
MINIMAL = {"name": "minimal", "orbits": [ORBIT]}


class _Str(str):
    pass


class _EqualToAll:
    """A key that compares equal to every value, known key names included."""

    __hash__ = object.__hash__

    def __eq__(self, other):
        return True

    def __repr__(self):
        return "<equal to all>"


class _PosingAs:
    """A key that hashes like a given string and compares equal to it."""

    def __init__(self, text):
        self.text = text

    def __hash__(self):
        return hash(self.text)

    def __eq__(self, other):
        return other == self.text

    def __repr__(self):
        return f"<posing as {self.text}>"


def _fixture_model(name):
    return parse_model(fixture_path(name).read_text())


def _four_orbits():
    """A valid document with four orbits A..D and five generators g0..g4."""
    return {
        "name": "later",
        "orbits": [{"name": n, "multiplicity": 1, "size": 1} for n in "ABCD"],
        "generators": [
            {"name": f"g{i}", "host": "ABCD"[i % 4], "degrees": {"A": 1, "B": -1}}
            for i in range(5)
        ],
    }


class TestParse:
    def test_minimal_document(self):
        m = parse_model(MINIMAL)
        assert len(m.orbits) == 1
        assert m.generators == ()
        assert m.hypotheses.reduced_components_smooth is False
        assert m.hypotheses.pic_unramified_descent is False

    def test_non_ascii_names_parse(self):
        generator = {"name": "é", "host": "Ö"}
        m = parse_model({"name": "Ö", "orbits": [{**ORBIT, "name": "Ö"}], "generators": [generator]})
        assert (m.name, m.orbits[0].name, m.generators[0].name) == ("Ö", "Ö", "é")
        assert m.generators[0].degrees == {"Ö": 0}
        assert parse_model({**MINIMAL, "name": _Str("Ö")}).name == "Ö"

    def test_accepts_json_text(self):
        m = parse_model(json.dumps(MINIMAL))
        assert m.name == "minimal"

    def test_malformed_json_reports_location(self):
        with pytest.raises(ParseError, match=r"line \d+"):
            parse_model("{ not json }")

    def test_over_long_literal_says_so(self):
        with pytest.raises(ParseError) as info:
            parse_model('{"name": "x", "orbits": ' + "7" * 5000 + "}")
        assert str(info.value) == "integer literal has more than 4,300 digits"

    def test_seven_component_fixture(self):
        m = _fixture_model("example31")
        assert len(m.orbits) == 7
        assert len(m.generators) == 10
        assert tuple(o.name for o in m.orbits) == ("A", "B", "C", "D", "R", "S", "M")

    def test_absent_degrees_become_zero(self):
        m = _fixture_model("example31")
        c01 = m.generators[0]
        assert c01.degrees == {
            "A": -2, "B": 0, "C": 0, "D": 0, "R": 0, "S": 0, "M": 0,
        }

    def test_synthesized_members_match_size(self):
        # Without a geometric section the size stays a number: no
        # component names are made up for it.
        m = _fixture_model("example31")
        by_name = {o.name: o for o in m.orbits}
        assert by_name["A"].size == 2
        assert m.geometric is None
        assert not hasattr(by_name["A"], "members")

    def test_geometric_members_used_verbatim(self):
        m = _fixture_model("split-orbit")
        assert m.orbits[0].size == 2
        assert m.geometric.members["Y"] == ("Y1", "Y2")
        assert not hasattr(m.geometric, "orbit_of")

    def test_huge_declared_size_allocates_nothing(self):
        doc = json.dumps(
            {"name": "wide", "orbits": [{"name": "Y", "multiplicity": 1, "size": 10**6}]}
        )
        tracemalloc.start()
        try:
            m = parse_model(doc)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert m.orbits[0].size == 10**6
        assert peak < 1_000_000


def _json_loads_outcome(text):
    """``json.loads`` on ``text``, with the wording a model command gives each refusal."""
    try:
        return "value", repr(json.loads(text, object_pairs_hook=fiber_model._unique_keys))
    except json.JSONDecodeError as e:
        return "ParseError", f"line {e.lineno}, column {e.colno}: {e.msg}"
    except RecursionError:
        return "ParseError", "document is nested too deeply"
    except SchemaError as e:
        return "SchemaError", str(e)
    except ValueError:
        return "ParseError", too_many_digits()


def _refuse_json_loads(*args, **kwargs):
    raise AssertionError("json.loads ran on a document the scanner reads whole")


def _assert_read_as_json_loads_reads(text):
    """The read path gives what ``json.loads`` gives; a value comes from the scanner alone."""
    expected = _json_loads_outcome(text)
    with pytest.MonkeyPatch.context() as mp:
        if expected[0] == "value":
            mp.setattr(json, "loads", _refuse_json_loads)
        try:
            outcome = "value", repr(fiber_model._read_json(text))
        except (ParseError, SchemaError) as e:
            outcome = type(e).__name__, str(e)
    assert outcome == expected


def _golden_model_inputs():
    from test_cli_golden import ERROR_INPUTS

    texts = []
    for name, data in ERROR_INPUTS.items():
        if name.endswith(".json"):
            try:
                texts.append(data.decode("utf-8"))
            except UnicodeDecodeError:
                continue  # refused before any JSON is read
    return texts


_MINIMAL_TEXT = json.dumps(MINIMAL)

#: Documents every path of the reader must word as ``json.loads`` does.
MUTANTS = [
    "\ufeff" + _MINIMAL_TEXT,
    "\ufeff",
    _MINIMAL_TEXT + " x",
    _MINIMAL_TEXT + "{}",
    _MINIMAL_TEXT + "\n\t\r ",
    " \t\r\n" + _MINIMAL_TEXT,
    "",
    " \n\t\r",
    "\x0b" + _MINIMAL_TEXT,
    _MINIMAL_TEXT + "\xa0",
    "NaN",
    "-Infinity",
    '{"name": "x", "orbits": [NaN, Infinity, -Infinity, 1e400, -0.0]}',
    '{"name": "x", "orbits": ' + "7" * 5000 + "}",
    "-" + "7" * 5000,
    "[" * 200000,
    "[" * 200000 + "]" * 200000,
    '{"name": "a", "name": "b"}',
    '{"name": "a", "orbits": [{"size": 1, "size": 2}]}',
    '{"name": "a", "orbits": [1, 2,]}',
    '{"name": "\\u00e9\\n\\t\\"\\\\\\/", "orbits": []}',
    '{"name": "\\ud800", "orbits": []}',
    '{"name": "\\udc00\\ud800", "orbits": []}',
    '{"name": "\\ud83d\\ude00", "orbits": []}',
    '{"name": "\\x41"}',
    '{"name": "\\u12"}',
    '{"name": "\x01"}',
    '{"name": "abc',
    "{",
    '{"name" 1}',
    "tru",
    "01",
]


def _render(value, data):
    """JSON text of ``value`` (pairs lists are objects) with drawn whitespace between tokens."""
    space = st.text(alphabet=" \t\n\r", max_size=3)
    if isinstance(value, list):
        inner = ",".join(data.draw(space) + _render(v, data) + data.draw(space) for v in value)
        return "[" + inner + data.draw(space) + "]"
    if isinstance(value, tuple):
        inner = ",".join(
            data.draw(space) + json.dumps(k, ensure_ascii=data.draw(st.booleans()))
            + data.draw(space) + ":" + data.draw(space) + _render(v, data) + data.draw(space)
            for k, v in value
        )
        return "{" + inner + data.draw(space) + "}"
    return json.dumps(value, ensure_ascii=data.draw(st.booleans()))


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda children: st.lists(children, max_size=4)
    | st.lists(st.tuples(st.sampled_from(["name", "orbits", "a", "é", "\ud800"]), children),
               max_size=4).map(tuple),
    max_leaves=16,
)


class TestReadPath:
    """JSON text is read by json's C scanner, and anything it does not read
    whole by ``json.loads``: both give the same value or the same refusal."""

    @pytest.mark.parametrize("name", fixture_names())
    def test_fixtures(self, name):
        _assert_read_as_json_loads_reads(fixture_path(name).read_text())

    def test_golden_inputs(self):
        for text in _golden_model_inputs():
            _assert_read_as_json_loads_reads(text)

    @pytest.mark.parametrize("text", MUTANTS, ids=range(len(MUTANTS)))
    def test_mutants(self, text):
        _assert_read_as_json_loads_reads(text)

    @settings(max_examples=150, deadline=None)
    @given(_JSON_VALUES, st.data())
    def test_generated_documents(self, value, data):
        text = data.draw(st.text(alphabet=" \t\n\r", max_size=3)) + _render(value, data)
        text += data.draw(st.text(alphabet=" \t\n\r", max_size=3))
        _assert_read_as_json_loads_reads(text)
        cut = data.draw(st.integers(0, len(text)))
        _assert_read_as_json_loads_reads(text[:cut])
        _assert_read_as_json_loads_reads(text[:cut] + data.draw(st.characters()) + text[cut:])

    def test_without_the_c_scanner(self, monkeypatch):
        expected = {name: _fixture_model(name) for name in fixture_names()}
        monkeypatch.setitem(sys.modules, "_json", None)
        monkeypatch.setattr(fiber_model, "_scanner", None)
        for name in fixture_names():
            assert _fixture_model(name) == expected[name]
        assert fiber_model._scanner is None
        with pytest.raises(ParseError, match=r"^line 1, column 2: "):
            parse_model("{")


class TestSchemaErrors:
    def test_unknown_top_level_key(self):
        with pytest.raises(SchemaError, match="unknown keys"):
            parse_model({**MINIMAL, "color": "blue"})
        # A mapping built in Python can hold keys no JSON text can; each
        # is a schema error that names the key, not a TypeError.
        orbit = {"name": "A", "multiplicity": 1, "size": 1, 2: 3}
        for document, message in [
            ({1: 2, "name": "x", "orbits": []}, "document: key 1 is not a string"),
            ({"name": "x", "orbits": [orbit]}, "orbits[0]: key 2 is not a string"),
            ({1: 2, "b": 3, **MINIMAL}, "document: key 1 is not a string"),
            ({**MINIMAL, "hypotheses": {None: True}}, "hypotheses: key None is not a string"),
        ]:
            with pytest.raises(SchemaError) as caught:
                parse_model(document)
            assert str(caught.value) == message

    @pytest.mark.parametrize(
        "text, key",
        [
            pytest.param(
                '{"name": "t", "name": "u", "orbits": [{"name": "A", "multiplicity": 1, "size": 1}]}',
                "name",
                id="top-level",
            ),
            pytest.param(
                '{"name": "t", "orbits": [{"name": "A", "multiplicity": 1, "size": 1}, '
                '{"name": "B", "multiplicity": 1, "size": 1}], "generators": [{"name": "g", '
                '"host": "A", "degrees": {"A": 3, "B": -2, "A": 2}}]}',
                "A",
                id="in-degrees",
            ),
        ],
    )
    def test_repeated_key_in_json_text(self, text, key):
        # json.loads would keep the last value of a repeated key silently.
        with pytest.raises(SchemaError, match=f"key '{key}' appears more than once"):
            parse_model(text)

    @pytest.mark.parametrize(
        "path, message",
        [
            (("hypotheses",), "hypotheses: expected an object"),
            (("notes",), "notes: expected a string"),
            (("generators",), "generators: expected an array"),
            (("geometric",), "geometric: expected an object"),
            (("expected",), "expected: expected an object"),
            (("generators", 0, "degrees"), "generators[0].degrees: expected an object"),
            (("geometric", "degrees"), "geometric.degrees: expected an object"),
        ],
        ids=[
            "hypotheses",
            "notes",
            "generators",
            "geometric",
            "expected",
            "generator-degrees",
            "geometric-degrees",
        ],
    )
    def test_null_optional_key_is_refused(self, path, message):
        # A null is not an absent key: every optional key refuses it.
        doc = json.loads(fixture_path("split-orbit").read_text())
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = None
        with pytest.raises(SchemaError) as info:
            parse_model(doc)
        assert str(info.value) == f"{message}, got NoneType"

    def test_empty_orbit_list(self):
        with pytest.raises(SchemaError, match="must not be empty"):
            parse_model({"name": "x", "orbits": []})

    def test_duplicate_orbit_names(self):
        with pytest.raises(SchemaError, match="duplicate orbit name"):
            parse_model(
                {
                    "name": "x",
                    "orbits": [
                        {"name": "Y", "multiplicity": 1, "size": 1},
                        {"name": "Y", "multiplicity": 1, "size": 1},
                    ],
                }
            )

    def test_multiplicity_below_one(self):
        with pytest.raises(SchemaError, match="multiplicity"):
            parse_model(
                {"name": "x", "orbits": [{"name": "Y", "multiplicity": 0, "size": 1}]}
            )

    @pytest.mark.parametrize(
        "multiplicity, size, message",
        [
            (1, -3, "size must be >= 1, got -3"),
            (0, 0, "multiplicity must be >= 1, got 0"),
        ],
    )
    def test_orbit_law_messages(self, multiplicity, size, message):
        orbits = [
            {"name": "X", "multiplicity": 1, "size": 1},
            {"name": "Y", "multiplicity": multiplicity, "size": size},
        ]
        with pytest.raises(SchemaError) as info:
            parse_model({"name": "x", "orbits": orbits})
        assert str(info.value) == f"orbits[1]: {message}"

    def test_unknown_orbit_in_degrees(self):
        with pytest.raises(SchemaError, match="unknown orbit 'Q'"):
            parse_model(
                {
                    **MINIMAL,
                    "generators": [{"name": "g", "host": "Y", "degrees": {"Q": 1}}],
                }
            )

    def test_unknown_host(self):
        with pytest.raises(SchemaError, match="unknown orbit"):
            parse_model(
                {**MINIMAL, "generators": [{"name": "g", "host": "Q", "degrees": {}}]}
            )

    def test_duplicate_generator_names(self):
        with pytest.raises(SchemaError, match="duplicate generator name"):
            parse_model(
                {
                    **MINIMAL,
                    "generators": [
                        {"name": "g", "host": "Y", "degrees": {}},
                        {"name": "g", "host": "Y", "degrees": {}},
                    ],
                }
            )

    @pytest.mark.parametrize(
        "document, message",
        [
            pytest.param(
                {"name": _Str("a\ud800"), "orbits": [ORBIT]},
                "name: string holds a lone surrogate",
                id="str-subclass-value",
            ),
            pytest.param(
                {**MINIMAL, _Str("color"): 1},
                "document: unknown keys color",
                id="str-subclass-key",
            ),
            pytest.param(
                {**MINIMAL, _EqualToAll(): 1},
                "document: key <equal to all> is not a string",
                id="non-string-key",
            ),
            pytest.param(
                {"name": "x", "orbits": [{**ORBIT, "name": "Y\ud83d"}]},
                "orbits[0].name: string holds a lone surrogate",
                id="lone-surrogate",
            ),
            pytest.param(
                {"name": "x", "color": 1, "shape": 2},
                "document: unknown keys color, shape",
                id="unknown-and-missing-keys",
            ),
            pytest.param(
                {"name": "x", "orbits": [{"name": "Y"}]},
                "orbits[0]: missing required keys multiplicity, size",
                id="missing-keys",
            ),
        ],
    )
    def test_values_that_are_not_plain_keep_their_messages(self, document, message):
        # A plain value passes the schema checks at once; these do not.
        with pytest.raises(SchemaError) as caught:
            parse_model(document)
        assert str(caught.value) == message

    def test_boolean_is_not_an_integer(self):
        with pytest.raises(SchemaError) as caught:
            parse_model({"name": "x", "orbits": [{**ORBIT, "multiplicity": True}]})
        assert str(caught.value) == "orbits[0].multiplicity: expected an integer, got a boolean"

    @pytest.mark.parametrize(
        "part, index, change, message",
        [
            ("orbits", 2, {"multiplicity": True},
             "orbits[2].multiplicity: expected an integer, got a boolean"),
            ("orbits", 2, {"size": False}, "orbits[2].size: expected an integer, got a boolean"),
            ("orbits", 2, {"multiplicity": "1"},
             "orbits[2].multiplicity: expected an integer, got str"),
            ("orbits", 2, {"multiplicity": 0}, "orbits[2]: multiplicity must be >= 1, got 0"),
            ("orbits", 2, {"name": "C\udc80"}, "orbits[2].name: string holds a lone surrogate"),
            ("orbits", 2, {"size": None}, "orbits[2]: missing required keys size"),
            ("orbits", 2, {"color": "red"}, "orbits[2]: unknown keys color"),
            ("orbits", 2, {"name": "A"}, "orbits[2]: duplicate orbit name 'A'"),
            ("generators", 3, {"degrees": {"A": 1, "B": True}},
             "generators[3].degrees.B: expected an integer, got a boolean"),
            ("generators", 3, {"degrees": {"A": 1.0}},
             "generators[3].degrees.A: expected an integer, got float"),
            ("generators", 3, {"name": "g\ud800"},
             "generators[3].name: string holds a lone surrogate"),
            ("generators", 3, {"host": "A\ud800"},
             "generators[3].host: string holds a lone surrogate"),
            ("generators", 3, {"degrees": {"A": 1, "E": 2}},
             "generators[3].degrees: unknown orbit 'E'"),
            ("generators", 3, {"degrees": {1: 2}}, "generators[3].degrees: unknown orbit 1"),
            ("generators", 3, {"host": None}, "generators[3]: missing required keys host"),
            ("generators", 3, {"host": "E"}, "generators[3]: host references unknown orbit 'E'"),
            ("generators", 3, {"color": "red"}, "generators[3]: unknown keys color"),
            ("generators", 3, {1: 2}, "generators[3]: key 1 is not a string"),
            ("generators", 3, {"name": "g0"}, "generators[3]: duplicate generator name 'g0'"),
            ("generators", 3, {"degrees": None},
             "generators[3].degrees: expected an object, got NoneType"),
            ("generators", 3, {"degrees": [1, 2]},
             "generators[3].degrees: expected an object, got list"),
        ],
    )
    def test_a_fault_after_valid_entries_keeps_its_message(self, part, index, change, message):
        # Valid entries pass as a whole; the first faulty one is named field by field.
        doc = _four_orbits()
        entry = doc[part][index]
        for key, value in change.items():
            if value is None and key != "degrees":
                del entry[key]
            else:
                entry[key] = value
        with pytest.raises(SchemaError) as caught:
            parse_model(doc)
        assert str(caught.value) == message

    def test_a_wrong_typed_field_is_named_in_table_order(self):
        # The entry holds size before name; the table checks name first.
        doc = {"name": "x", "orbits": [{"size": "2", "name": 5, "multiplicity": 1}]}
        with pytest.raises(SchemaError) as caught:
            parse_model(doc)
        assert str(caught.value) == "orbits[0].name: expected a string, got int"

    def test_a_wrong_typed_degree_is_named_in_orbit_order(self):
        # The map holds B before A; the orbits are declared A first.
        doc = _four_orbits()
        doc["generators"][0]["degrees"] = {"B": "x", "A": True}
        with pytest.raises(SchemaError) as caught:
            parse_model(doc)
        assert str(caught.value) == "generators[0].degrees.A: expected an integer, got a boolean"

    @pytest.mark.parametrize("part, index", [("orbits", 2), ("generators", 3)])
    def test_a_key_that_only_poses_as_a_string_is_refused(self, part, index):
        doc = _four_orbits()
        entry = doc[part][index]
        entry[_PosingAs("name")] = entry.pop("name")
        with pytest.raises(SchemaError) as caught:
            parse_model(doc)
        assert str(caught.value) == f"{part}[{index}]: key <posing as name> is not a string"

    @pytest.mark.parametrize("part, index", [("orbits", 2), ("generators", 3)])
    def test_an_entry_that_is_not_an_object_keeps_its_message(self, part, index):
        doc = _four_orbits()
        doc[part][index] = ["C", 1, 1]
        with pytest.raises(SchemaError) as caught:
            parse_model(doc)
        assert str(caught.value) == f"{part}[{index}]: expected an object, got list"

    def test_entries_that_are_not_plain_still_parse(self):
        # Non-ASCII names and str subclasses fail the whole-entry test but
        # are valid; the per-field checks accept them as before.
        doc = _four_orbits()
        doc["orbits"][2]["name"] = "Ç"
        doc["generators"][2]["host"] = "Ç"
        doc["generators"][3] = {"name": "γ3", "host": "Ç", "degrees": {"Ç": 2, "A": -2}}
        doc["generators"][4] = {"name": _Str("g4"), "host": "D", "degrees": {_Str("A"): 1}}
        m = parse_model(doc)
        assert m.orbits[2].name == "Ç"
        assert m.generators[3].degrees == {"A": -2, "B": 0, "Ç": 2, "D": 0}
        assert list(m.generators[3].degrees) == ["A", "B", "Ç", "D"]
        assert type(m.generators[4].name) is _Str
        assert m.generators[4].degrees == {"A": 1, "B": 0, "Ç": 0, "D": 0}
        assert [type(k) for k in m.generators[4].degrees] == [str] * 4

    def test_geometric_must_match_declared_orbits(self):
        bad = {
            "name": "x",
            "orbits": [{"name": "Y", "multiplicity": 1, "size": 2}],
            "geometric": {
                "components": ["Y1", "Y2"],
                "frobenius": ["Y1", "Y2"],
                "orbit_of": {"Y1": "Y", "Y2": "Y"},
            },
        }
        # Identity action: two singleton cycles both claiming orbit Y.
        with pytest.raises(SchemaError, match="more than one cycle|declared size"):
            parse_model(bad)

    def test_geometric_size_mismatch(self):
        bad = {
            "name": "x",
            "orbits": [{"name": "Y", "multiplicity": 1, "size": 3}],
            "geometric": {
                "components": ["Y1", "Y2"],
                "frobenius": ["Y2", "Y1"],
                "orbit_of": {"Y1": "Y", "Y2": "Y"},
            },
        }
        with pytest.raises(SchemaError, match="declared size"):
            parse_model(bad)

    def test_geometric_frobenius_not_bijective(self):
        bad = {
            "name": "x",
            "orbits": [{"name": "Y", "multiplicity": 1, "size": 2}],
            "geometric": {
                "components": ["Y1", "Y2"],
                "frobenius": ["Y1", "Y1"],
                "orbit_of": {"Y1": "Y", "Y2": "Y"},
            },
        }
        with pytest.raises(SchemaError, match="bijection"):
            parse_model(bad)

    @pytest.mark.parametrize(
        "components, frobenius, message",
        [
            ([], [], "ground set must be non-empty"),
            (["Y1", "Y1"], ["Y1", "Y1"], "ground set identifiers must be distinct"),
            (["Y1", "Y2"], ["Y2"], "frobenius image list must match the ground set length"),
            (["Y1", "Y2"], ["Y1", "Y3"], "frobenius must be a bijection of the ground set"),
        ],
        ids=["empty", "duplicate", "length", "bijection"],
    )
    def test_geometric_permutation_messages(self, components, frobenius, message):
        bad = {
            "name": "x",
            "orbits": [{"name": "Y", "multiplicity": 1, "size": 2}],
            "geometric": {
                "components": components,
                "frobenius": frobenius,
                "orbit_of": {"Y1": "Y", "Y2": "Y"},
            },
        }
        with pytest.raises(SchemaError) as info:
            parse_model(bad)
        assert str(info.value) == f"geometric: {message}"


    @pytest.mark.parametrize(
        "change, message",
        [
            pytest.param({"orbit_of": {"Y1": "Y", "Y2": "Y", "Z1": "Z"}},
                         "geometric.orbit_of: missing component 'Z2'", id="missing-component"),
            pytest.param({"orbit_of": {"Y1": "Y", "Y2": "Y", "Z1": "Z", "Z2": "Z", "W1": "Z"}},
                         "geometric.orbit_of: unknown component 'W1'", id="unknown-component"),
            pytest.param({"orbit_of": {"Y1": "Y", "Y2": "Y", "Z1": "Z", "Z2": "W"}},
                         "geometric.orbit_of: unknown orbit 'W'", id="unknown-orbit"),
            pytest.param({"orbit_of": {"Y1": "Y", "Y2": "Z", "Z1": "Z", "Z2": "Z"}},
                         "geometric: cycle ['Y1', 'Y2'] maps to several orbits ['Y', 'Z']",
                         id="several-orbits"),
            pytest.param({"orbit_of": {"Y1": "Y", "Y2": "Y", "Z1": "Y", "Z2": "Y"}},
                         "geometric: orbit 'Y' is hit by more than one cycle",
                         id="more-than-one-cycle"),
            pytest.param({"components": ["Y1", "Y2"], "frobenius": ["Y2", "Y1"],
                          "orbit_of": {"Y1": "Y", "Y2": "Y"}},
                         "geometric: no cycle realizes orbits Z", id="unrealized-orbit"),
            pytest.param({"degrees": {"g": {"Y1": 1}, "h": {"Y1": 1}}},
                         "geometric.degrees: unknown generator 'h'", id="unknown-generator"),
        ],
    )
    def test_geometric_cross_reference_messages(self, change, message):
        # Two orbits of size 2, each one 2-cycle of Frobenius.
        doc = {
            "name": "x",
            "orbits": [
                {"name": "Y", "multiplicity": 1, "size": 2},
                {"name": "Z", "multiplicity": 1, "size": 2},
            ],
            "generators": [{"name": "g", "host": "Y"}],
            "geometric": {
                "components": ["Y1", "Y2", "Z1", "Z2"],
                "frobenius": ["Y2", "Y1", "Z2", "Z1"],
                "orbit_of": {"Y1": "Y", "Y2": "Y", "Z1": "Z", "Z2": "Z"},
                **change,
            },
        }
        with pytest.raises(SchemaError) as caught:
            parse_model(doc)
        assert str(caught.value) == message


# A valid document that holds every kind of entry.
FULL = {
    "name": "full",
    "hypotheses": {"reduced_components_smooth": True, "pic_unramified_descent": False},
    "orbits": [
        {"name": "A", "multiplicity": 1, "size": 2},
        {"name": "B", "multiplicity": 2, "size": 1},
    ],
    "generators": [{"name": "g", "host": "A", "degrees": {"A": 1, "B": -1}}],
    "geometric": {
        "components": ["A1", "A2", "B1"],
        "frobenius": ["A2", "A1", "B1"],
        "orbit_of": {"A1": "A", "A2": "A", "B1": "B"},
        "degrees": {"g": {"A1": 1, "A2": 1, "B1": -1}},
    },
    "notes": "free text",
    "expected": {"b0_rank": 0, "b0_torsion": [2], "source": "a test"},
}
# Every kind of entry, as the module's schema tables state it: the path to
# one such entry in FULL, the entry's name in messages (the top level's
# fields are named bare), and each field with its exact type and whether
# it is required, in check order.
TABLES = [
    ((), "document", [
        ("name", str, True), ("hypotheses", dict, False), ("orbits", list, True),
        ("generators", list, False), ("geometric", dict, False), ("notes", str, False),
        ("expected", dict, False),
    ]),
    (("hypotheses",), "hypotheses", [
        ("reduced_components_smooth", bool, False), ("pic_unramified_descent", bool, False),
    ]),
    (("orbits", 1), "orbits[1]", [
        ("name", str, True), ("multiplicity", int, True), ("size", int, True),
    ]),
    (("generators", 0), "generators[0]", [
        ("name", str, True), ("host", str, True), ("degrees", dict, False),
    ]),
    (("geometric",), "geometric", [
        ("components", list, True), ("frobenius", list, True), ("orbit_of", dict, True),
        ("degrees", dict, False),
    ]),
    (("expected",), "expected", [
        ("b0_rank", int, True), ("b0_torsion", list, True), ("source", str, True),
    ]),
]
LABELS = {
    str: "a string", int: "an integer", bool: "a boolean", dict: "an object", list: "an array"
}


def _row_faults():
    """Each fault that applies to a row: the entry's path, the change to the
    entry (None deletes a key) and the message that must name the fault."""
    for path, where, rows in TABLES:
        for key, kind, required in rows:
            field = f"{where}.{key}" if path else key
            expected = f"{field}: expected {LABELS[kind]}"
            control_key = key + "\n"
            faults = [
                ("unknown", {key + "2": 1}, f"{where}: unknown keys {key}2"),
                ("control-key", {control_key: 1}, f"{where}: unknown keys {control_key!r}"),
            ]
            if required:
                faults.append(("missing", {key: None}, f"{where}: missing required keys {key}"))
            if kind is bool:
                faults.append(("int", {key: 1}, f"{expected}, got int"))
            else:
                faults.append(("bool", {key: True}, f"{expected}, got a boolean"))
            if kind is str:
                faults += [
                    ("surrogate", {key: "a\ud800"}, f"{field}: string holds a lone surrogate"),
                    ("control", {key: "a\x1b[2J"},
                     f"{field}: string holds the non-printable character '\\x1b'"),
                ]
            else:
                faults.append(("str-subclass", {key: _Str("1")}, f"{expected}, got _Str"))
            for name, change, message in faults:
                yield pytest.param(path, change, message, id=f"{where}-{key}-{name}")


class TestSchemaTables:
    @pytest.mark.parametrize("path, change, message", _row_faults())
    def test_every_row_names_each_fault(self, path, change, message):
        doc = json.loads(json.dumps(FULL))
        entry = doc
        for step in path:
            entry = entry[step]
        for key, value in change.items():
            if value is None:
                del entry[key]
            else:
                entry[key] = value
        with pytest.raises(SchemaError) as caught:
            parse_model(doc)
        assert str(caught.value) == message

    def test_the_walk_covers_every_table(self):
        from chowfiber import fiber_model

        tables = [
            fiber_model._DOCUMENT, fiber_model._HYPOTHESES, fiber_model._ORBIT,
            fiber_model._GENERATOR, fiber_model._GEOMETRIC, fiber_model._EXPECTED,
        ]
        for table, (path, where, rows) in zip(tables, TABLES, strict=True):
            assert table.where.format(path[1] if len(path) == 2 else 0) == where
            assert list(table.kinds.items()) == [(key, kind) for key, kind, _ in rows]
            assert table.required == {key for key, _, required in rows if required}

    def test_the_full_document_parses(self):
        m = parse_model(FULL)
        assert m.hypotheses.reduced_components_smooth is True
        assert m.geometric.degrees == {"g": {"A1": 1, "A2": 1, "B1": -1}}
        assert (m.notes, m.expected.b0_torsion) == ("free text", (2,))


class TestPrintableStrings:
    @pytest.mark.parametrize(
        "change, message",
        [
            pytest.param({"name": "m\nB(X)   = Z/7"},
                         "name: string holds the non-printable character '\\n'", id="newline"),
            pytest.param({"notes": "a\u2028b"},
                         "notes: string holds the non-printable character '\\u2028'",
                         id="line-separator"),
            pytest.param({"notes": "tab\there"},
                         "notes: string holds the non-printable character '\\t'", id="tab"),
            pytest.param({"name": "\u202egnp.exe"},
                         "name: string holds the non-printable character '\\u202e'",
                         id="bidi-override"),
        ],
    )
    def test_a_string_that_is_not_printable_is_refused(self, change, message):
        with pytest.raises(SchemaError) as caught:
            parse_model({**MINIMAL, **change})
        assert str(caught.value) == message

    def test_a_generator_name_cannot_carry_an_escape_sequence(self):
        doc = _four_orbits()
        doc["generators"][2]["name"] = "g\x1b]0;pwned\x07"
        with pytest.raises(SchemaError) as caught:
            parse_model(doc)
        assert str(caught.value) == (
            "generators[2].name: string holds the non-printable character '\\x1b'"
        )

    def test_strings_deeper_in_the_document_are_checked(self):
        doc = json.loads(json.dumps(FULL))
        doc["geometric"]["components"][1] = "A\x7f"
        with pytest.raises(SchemaError) as caught:
            parse_model(doc)
        assert str(caught.value) == (
            "geometric.components[1]: string holds the non-printable character '\\x7f'"
        )

    def test_an_unknown_key_is_named_escaped_only_when_it_is_not_printable(self):
        with pytest.raises(SchemaError) as caught:
            parse_model({**MINIMAL, "colour": 1, "co\x1b[0mlor": 2, "b\ud800": 3})
        assert str(caught.value) == "document: unknown keys 'b\\ud800', 'co\\x1b[0mlor', colour"

    def test_printable_strings_beyond_ascii_still_parse(self):
        m = parse_model({**MINIMAL, "name": "Ω → Z/2", "notes": "naïve, 中文"})
        assert (m.name, m.notes) == ("Ω → Z/2", "naïve, 中文")


class TestExpectedGroup:
    @pytest.mark.parametrize(
        "rank, torsion, message",
        [
            (-1, [0, -2], "expected: rank must be nonnegative"),
            (0, [0, -2], "expected: invariant factors must be >= 2"),
            (0, [1], "expected: invariant factors must be >= 2"),
            (1, [2, 3], "expected: invariant factors must form a divisibility chain"),
        ],
    )
    def test_an_expectation_that_is_no_group_is_refused(self, rank, torsion, message):
        expected = {"b0_rank": rank, "b0_torsion": torsion, "source": "s"}
        with pytest.raises(SchemaError) as caught:
            parse_model({**MINIMAL, "expected": expected})
        assert str(caught.value) == message

    def test_a_group_is_kept_as_written(self):
        expected = {"b0_rank": 2, "b0_torsion": [2, 6, 6], "source": "s"}
        m = parse_model({**MINIMAL, "expected": expected})
        assert (m.expected.b0_rank, m.expected.b0_torsion) == (2, (2, 6, 6))


class TestSpecializationMatrix:
    def test_dimensions(self):
        m = _fixture_model("example31")
        a = build_specialization_matrix(m)
        assert a.shape == (7, 10)

    def test_no_generators(self):
        a = build_specialization_matrix(parse_model(MINIMAL))
        assert a.shape == (1, 0)

    def test_single_zero_generator(self):
        m = parse_model(
            {**MINIMAL, "generators": [{"name": "g", "host": "Y", "degrees": {}}]}
        )
        assert build_specialization_matrix(m) == IntMatrix.from_rows([[0]])

    def test_transcribed_column(self):
        # Third column: -1 against A, +1 against R, 0 elsewhere.
        m = _fixture_model("example31")
        a = build_specialization_matrix(m)
        assert a.transpose().rows[2] == (-1, 0, 0, 0, 1, 0, 0)


class TestDiagnostic:
    @pytest.mark.parametrize(
        "severity, code, fault",
        [
            ("info", "no-generators", "unknown severity 'info'"),
            ("error", "no-such-law", "unknown diagnostic code 'no-such-law'"),
        ],
        ids=["severity", "code"],
    )
    def test_refuses_what_validate_never_emits(self, severity, code, fault):
        with pytest.raises(ValueError, match=fault):
            Diagnostic(severity, code, "Y", "text")


class TestValidate:
    def test_clean_model_has_no_errors(self):
        for name in ("trivial", "irreducible", "synthetic-z2"):
            assert validate(_fixture_model(name)) == []

    def test_split_orbit_reports_weight_gcd(self):
        diags = validate(_fixture_model("split-orbit"))
        assert [(d.severity, d.code) for d in diags] == [("warning", "multiplicity-gcd")]

    def test_seven_component_orthogonality_failures(self):
        diags = validate(_fixture_model("example31"))
        errors = [d for d in diags if d.is_error()]
        assert [d.code for d in errors] == ["xi-orthogonality"] * 4
        assert [d.subject for d in errors] == ["c01", "c02", "c04", "c05"]
        sums = [int(d.message.split(" is ")[1].split(",")[0]) for d in errors]
        assert sums == [-4, 2, -2, 4]

    def test_single_orbit_nonzero_degree(self):
        m = parse_model(
            {
                "name": "x",
                "orbits": [{"name": "Y", "multiplicity": 3, "size": 1}],
                "generators": [{"name": "g", "host": "Y", "degrees": {"Y": 2}}],
            }
        )
        diags = validate(m)
        assert has_errors(diags)
        assert "6" in diags[0].message  # weight 3 times degree 2

    def test_no_generators_warning_needs_multiple_orbits(self):
        multi = parse_model(
            {
                "name": "x",
                "orbits": [
                    {"name": "A", "multiplicity": 1, "size": 1},
                    {"name": "B", "multiplicity": 1, "size": 1},
                ],
            }
        )
        assert [d.code for d in validate(multi)] == ["no-generators"]
        assert validate(parse_model(MINIMAL)) == []

    def test_orbit_constancy_variation(self):
        m = parse_model(
            {
                "name": "x",
                "orbits": [{"name": "Y", "multiplicity": 1, "size": 2}],
                "generators": [{"name": "g", "host": "Y", "degrees": {"Y": 0}}],
                "geometric": {
                    "components": ["Y1", "Y2"],
                    "frobenius": ["Y2", "Y1"],
                    "orbit_of": {"Y1": "Y", "Y2": "Y"},
                    "degrees": {"g": {"Y1": 1, "Y2": -1}},
                },
            }
        )
        diags = validate(m)
        assert any(d.code == "orbit-constancy" and "differ" in d.message for d in diags)

    def test_orbit_constancy_disagreement_with_declared(self):
        m = parse_model(
            {
                "name": "x",
                "orbits": [{"name": "Y", "multiplicity": 1, "size": 2}],
                "generators": [{"name": "g", "host": "Y", "degrees": {"Y": 0}}],
                "geometric": {
                    "components": ["Y1", "Y2"],
                    "frobenius": ["Y2", "Y1"],
                    "orbit_of": {"Y1": "Y", "Y2": "Y"},
                    "degrees": {"g": {"Y1": 3, "Y2": 3}},
                },
            }
        )
        diags = validate(m)
        assert any(
            d.code == "orbit-constancy" and "disagrees" in d.message for d in diags
        )

    def test_orbit_constancy_lists_values_in_cycle_order(self):
        # Frobenius sends Y1 -> Y3 -> Y2 -> Y1, so the cycle order is
        # Y1, Y3, Y2 and differs from the ground-set order.
        m = parse_model(
            {
                "name": "x",
                "orbits": [{"name": "Y", "multiplicity": 1, "size": 3}],
                "generators": [{"name": "g", "host": "Y", "degrees": {"Y": 0}}],
                "geometric": {
                    "components": ["Y1", "Y2", "Y3"],
                    "frobenius": ["Y3", "Y1", "Y2"],
                    "orbit_of": {"Y1": "Y", "Y2": "Y", "Y3": "Y"},
                    "degrees": {"g": {"Y1": 1, "Y2": 2, "Y3": 3}},
                },
            }
        )
        assert m.geometric.members["Y"] == ("Y1", "Y3", "Y2")
        assert [str(d) for d in validate(m) if d.is_error()] == [
            "ERROR orbit-constancy g: degrees on orbit 'Y' differ across "
            "conjugate components: [1, 3, 2]"
        ]

    def test_results_past_the_digit_limit_give_diagnostics(self):
        # Exact values of any length are rendered in full, with the
        # interpreter's digit limit left in force.
        big = 10**4000
        m = parse_model(
            {"name": "big", "orbits": [{"name": "A", "multiplicity": big, "size": big}]}
        )
        (diag,) = validate(m)
        assert diag.code == "multiplicity-gcd"
        digits = "1" + "0" * 8000
        assert diag.message == (
            f"gcd of the multiplicity weights is {digits}; the degree character lands in {digits}Z"
        )
        bad = parse_model(
            {
                "name": "bad",
                "orbits": [{"name": "A", "multiplicity": 1, "size": 1}],
                "generators": [{"name": "g", "host": "A", "degrees": {"A": big}}],
            }
        )
        (error,) = validate(bad)
        assert error.message.endswith(f"is 1{'0' * 4000}, expected 0")
        assert f"1{'0' * 4000}" in str(InvalidModel([error]))

    def test_degree_maps_built_by_hand_are_read_by_orbit_name(self):
        # A model built without parse_model may list its degrees in any
        # order; one whose map lacks an orbit is refused with KeyError.
        m = _fixture_model("example31")
        reordered = FiberModel(
            m.name,
            m.orbits,
            tuple(
                PicGenerator(g.name, g.host, dict(reversed(list(g.degrees.items()))))
                for g in m.generators
            ),
            m.hypotheses,
            m.geometric,
        )
        assert list(reordered.generators[0].degrees) != list(m.generators[0].degrees)
        assert validate(reordered) == validate(m)
        assert build_specialization_matrix(reordered) == build_specialization_matrix(m)
        first = m.generators[0]
        short = {k: v for k, v in first.degrees.items() if k != m.orbits[-1].name}
        lacking = FiberModel(
            m.name, m.orbits, (PicGenerator(first.name, first.host, short), *m.generators[1:])
        )
        with pytest.raises(KeyError):
            validate(lacking)
        with pytest.raises(KeyError):
            build_specialization_matrix(lacking)

    def test_validate_is_deterministic(self):
        m = _fixture_model("example31")
        assert validate(m) == validate(m)

    def test_valid_columns_lie_in_annihilator_lattice(self):
        # Passing validation means every column is an integer combination
        # of the characters killing the fiber class.
        for name in ("irreducible", "split-orbit", "synthetic-z2"):
            m = _fixture_model(name)
            assert not has_errors(validate(m))
            basis = hom_T_basis(xi_weights(m.orbits))
            a = build_specialization_matrix(m)
            assert basis @ solve_in_lattice(basis, a) == a
