import json
import tracemalloc

import pytest

from chowfiber.chow import InvalidModel
from chowfiber.exact_linalg import IntMatrix, solve_in_lattice
from chowfiber.fiber_model import (
    ParseError,
    SchemaError,
    build_specialization_matrix,
    has_errors,
    parse_model,
    validate,
)
from chowfiber.fixtures import fixture_path
from chowfiber.galois import hom_T_basis, xi_weights

MINIMAL = {"name": "minimal", "orbits": [{"name": "Y", "multiplicity": 1, "size": 1}]}


def _fixture_model(name):
    return parse_model(fixture_path(name).read_text())


class TestParse:
    def test_minimal_document(self):
        m = parse_model(MINIMAL)
        assert len(m.orbits) == 1
        assert m.generators == ()
        assert m.hypotheses.reduced_components_smooth is False
        assert m.hypotheses.pic_unramified_descent is False

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


class TestSchemaErrors:
    def test_unknown_top_level_key(self):
        with pytest.raises(SchemaError, match="unknown keys"):
            parse_model({**MINIMAL, "color": "blue"})

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

    def test_boolean_is_not_an_integer(self):
        with pytest.raises(SchemaError, match="boolean"):
            parse_model(
                {"name": "x", "orbits": [{"name": "Y", "multiplicity": True, "size": 1}]}
            )

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
        assert a.column(2) == (-1, 0, 0, 0, 1, 0, 0)


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
