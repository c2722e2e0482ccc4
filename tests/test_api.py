import copy
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import chowfiber
from chowfiber import (
    ChowReport,
    ComponentOrbit,
    Diagnostic,
    ExpectedResult,
    FGAbelianGroup,
    FiberModel,
    GeometricSection,
    Hypotheses,
    IntMatrix,
    PicGenerator,
    SmithDecomposition,
    WeightVector,
)


def test_export_list_is_sorted_unique_and_resolves():
    names = chowfiber.__all__
    assert len(names) == 39
    assert list(names) == sorted(set(names))
    for name in names:
        assert hasattr(chowfiber, name), name


def test_cli_run_leaves_argparse_typing_and_dataclasses_out(tmp_path):
    # -S keeps site-packages .pth hooks, which import modules of their
    # own, out of the child.
    src = str(Path(chowfiber.__file__).resolve().parents[1])
    matrix = tmp_path / "m.txt"
    matrix.write_text("2 2\n2 4\n6 8\n")
    child = (
        f"import sys; sys.path.insert(0, {src!r}); import chowfiber.cli; "
        f"code = chowfiber.cli.main(['snf', {str(matrix)!r}]); "
        "print(code); print(chowfiber.cli.__file__); print(' '.join(sorted(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", child], capture_output=True, text=True, check=True
    ).stdout
    printed, code, cli_file, modules = out.splitlines()
    assert printed == "rank 2; invariant factors: 2 4"
    assert code == "0"
    assert Path(cli_file).resolve().parents[1] == Path(src)
    loaded = set(modules.split())
    assert not loaded & {"argparse", "gettext", "locale", "dataclasses", "typing", "json"}


G = FGAbelianGroup
ONE = IntMatrix.from_rows([[1]])
ZERO = IntMatrix.from_rows([[0]])
WARN = ("warning", "no-generators", "m", "text")
ORBIT = ComponentOrbit("A", 1, 1)

# (class, fields, variants): each variant changes one field of ``fields``.
VALUE_CASES = [
    (IntMatrix, (1, 2, ((1, 2),)), [(1, 2, ((1, 3),))]),
    (IntMatrix, (0, 2, ()), [(0, 3, ())]),
    (SmithDecomposition, (ONE, ()), [(ZERO, ()), (ONE, (("negate row", 0),))]),
    (FGAbelianGroup, (1, (2,)), [(2, (2,)), (1, (3,))]),
    (FGAbelianGroup, (0, ()), [(1, ()), (0, (2,))]),
    (ComponentOrbit, ("A", 2, 3), [("B", 2, 3), ("A", 1, 3), ("A", 2, 1)]),
    (WeightVector, ((2, 3),), [((2, 4),)]),
    (Diagnostic, WARN,
     [("error",) + WARN[1:], WARN[:1] + ("multiplicity-gcd",) + WARN[2:],
      WARN[:2] + ("n", "text"), WARN[:3] + ("other",)]),
    (Hypotheses, (False, True), [(True, True), (False, False)]),
    (ExpectedResult, (0, (2,), "s"), [(1, (2,), "s"), (0, (4,), "s"), (0, (2,), "t")]),
    (PicGenerator, ("g", "A", {"A": 0}), [("h", "A", {"A": 0}), ("g", "B", {"A": 0}),
                                          ("g", "A", {"A": 1})]),
    (GeometricSection, ({"A": ("a", "b")}, {"g": {"a": 0}}),
     [({"A": ("b", "a")}, {"g": {"a": 0}}), ({"A": ("a", "b")}, {"g": {"a": 1}})]),
    (FiberModel, ("m", (ORBIT,), (), Hypotheses(), None, None, None),
     [("n", (ORBIT,), (), Hypotheses(), None, None, None),
      ("m", (ComponentOrbit("B", 1, 1),), (), Hypotheses(), None, None, None),
      ("m", (ORBIT,), (PicGenerator("g", "A", {"A": 0}),), Hypotheses(), None, None, None),
      ("m", (ORBIT,), (), Hypotheses(True), None, None, None),
      ("m", (ORBIT,), (), Hypotheses(), GeometricSection({}, {}), None, None),
      ("m", (ORBIT,), (), Hypotheses(), None, "notes", None),
      ("m", (ORBIT,), (), Hypotheses(), None, None, ExpectedResult(0, (), "s"))]),
    (ChowReport, ("m", G(1), G(0), (1,), 1, (), None, Hypotheses(), False, None, None),
     [("n", G(1), G(0), (1,), 1, (), None, Hypotheses(), False, None, None),
      ("m", G(2), G(0), (1,), 1, (), None, Hypotheses(), False, None, None),
      ("m", G(1), G(1), (1,), 1, (), None, Hypotheses(), False, None, None),
      ("m", G(1), G(0), (2,), 1, (), None, Hypotheses(), False, None, None),
      ("m", G(1), G(0), (1,), 2, (), None, Hypotheses(), False, None, None),
      ("m", G(1), G(0), (1,), 1, (Diagnostic(*WARN),), None, Hypotheses(), False, None, None),
      ("m", G(1), G(0), (1,), 1, (), "irreducible-fiber", Hypotheses(), False, None, None),
      ("m", G(1), G(0), (1,), 1, (), None, Hypotheses(True), False, None, None),
      ("m", G(1), G(0), (1,), 1, (), None, Hypotheses(), True, None, None),
      ("m", G(1), G(0), (1,), 1, (), None, Hypotheses(), False, "notes", None),
      ("m", G(1), G(0), (1,), 1, (), None, Hypotheses(), False, None,
       ExpectedResult(0, (), "s"))]),
]
UNHASHABLE = (PicGenerator, GeometricSection, FiberModel)


def test_every_value_class_has_a_case():
    classes = {cls for cls, _, _ in VALUE_CASES}
    assert len(classes) == 12
    for cls, fields, variants in VALUE_CASES:
        assert len(cls.__slots__) == len(fields)
        for variant in variants:
            assert sum(a != b for a, b in zip(fields, variant)) == 1


@pytest.mark.parametrize("cls, fields, variants", VALUE_CASES)
class TestValueSemantics:
    def test_fields_are_read_only(self, cls, fields, variants):
        value = cls(*fields)
        for name in (*cls.__slots__, "extra"):
            with pytest.raises(AttributeError):
                setattr(value, name, None)
            with pytest.raises(AttributeError):
                delattr(value, name)
        assert tuple(getattr(value, name) for name in cls.__slots__) == fields

    def test_equal_fields_are_equal_values(self, cls, fields, variants):
        a, b = cls(*fields), cls(**dict(zip(cls.__slots__, fields)))
        assert a == b and not a != b
        if cls in UNHASHABLE:
            with pytest.raises(TypeError):
                hash(a)
        else:
            assert hash(a) == hash(b)

    def test_one_changed_field_gives_a_different_value(self, cls, fields, variants):
        for variant in variants:
            assert cls(*fields) != cls(*variant)
            assert not cls(*fields) == cls(*variant)

    def test_never_equals_a_tuple_of_its_fields(self, cls, fields, variants):
        value = cls(*fields)
        assert value != fields and fields != value
        assert value != list(fields)

    def test_repr_names_every_field(self, cls, fields, variants):
        shown = ", ".join(f"{name}={field!r}" for name, field in zip(cls.__slots__, fields))
        assert repr(cls(*fields)) == f"{cls.__qualname__}({shown})"

    def test_copies_and_pickles_are_equal(self, cls, fields, variants):
        value = cls(*fields)
        assert copy.copy(value) == value
        assert copy.deepcopy(value) == value
        assert pickle.loads(pickle.dumps(value)) == value


#: The value classes that only store their fields: they take Value's constructor.
STORING = (
    SmithDecomposition, Hypotheses, ExpectedResult, PicGenerator, GeometricSection, FiberModel,
    ChowReport,
)
STORING_CASES = [(cls, fields) for cls, fields, _ in VALUE_CASES if cls in STORING]


def test_storing_classes_write_no_constructor():
    assert {cls for cls, _ in STORING_CASES} == set(STORING)
    for cls in STORING:
        assert "__init__" not in vars(cls), cls


@pytest.mark.parametrize("cls, fields", STORING_CASES)
class TestValueConstructor:
    def test_positional_keyword_and_mixed_calls_agree(self, cls, fields):
        named = dict(zip(cls.__slots__, fields))
        value = cls(*fields)
        assert cls(**named) == value
        for split in range(len(fields) + 1):
            rest = dict(list(named.items())[split:])
            assert cls(*fields[:split], **rest) == value
        assert cls(**dict(reversed(named.items()))) == value

    def test_missing_field(self, cls, fields):
        # Every field without a default; Hypotheses has none.
        for name in cls.__slots__:
            if name not in cls._defaults:
                named = dict(zip(cls.__slots__, fields))
                del named[name]
                with pytest.raises(TypeError, match=f"missing field {name!r}"):
                    cls(**named)

    def test_unknown_field(self, cls, fields):
        with pytest.raises(TypeError, match="unknown field 'bogus'"):
            cls(*fields, bogus=1)
        with pytest.raises(TypeError, match="unknown field 'bogus'"):
            cls(bogus=1, **dict(zip(cls.__slots__, fields)))

    def test_repeated_field(self, cls, fields):
        name = cls.__slots__[0]
        with pytest.raises(TypeError, match=f"two values for field {name!r}"):
            cls(*fields, **{name: fields[0]})

    def test_surplus_field(self, cls, fields):
        with pytest.raises(TypeError, match=f"takes {len(fields)} fields but"):
            cls(*fields, None)


def test_defaults_fill_the_fields_left_out():
    assert Hypotheses(True) == Hypotheses(True, False)
    assert Hypotheses(pic_unramified_descent=True) == Hypotheses(False, True)
    assert Hypotheses() == Hypotheses(False, False)
    model = FiberModel("m", (ORBIT,), ())
    assert model == FiberModel("m", (ORBIT,), (), Hypotheses(), None, None, None)
    assert FiberModel("m", (ORBIT,), (), notes="n").notes == "n"


def test_report_fields_have_no_defaults():
    with pytest.raises(TypeError, match="missing field 'notes'"):
        ChowReport("m", G(1), G(0), (1,), 1, (), None, Hypotheses(), False)


def test_model_default_hypotheses_is_one_shared_value():
    a = FiberModel("a", (ORBIT,), ())
    b = FiberModel("b", (ORBIT,), ())
    assert a.hypotheses is b.hypotheses
    assert a.hypotheses == Hypotheses(False, False)


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda: FGAbelianGroup(0, [2.5]), id="group-factor"),
        pytest.param(lambda: FGAbelianGroup(1.5), id="group-rank"),
        pytest.param(lambda: WeightVector((1.5, 2)), id="weights"),
        pytest.param(lambda: IntMatrix(1, 1, ((2.5,),)), id="matrix"),
        pytest.param(lambda: IntMatrix.from_rows([[1.5]]), id="from-rows"),
        pytest.param(lambda: IntMatrix.from_rows([["3"]]), id="from-rows-text"),
        pytest.param(lambda: IntMatrix.from_columns([[2.7, 1]]), id="from-columns"),
        pytest.param(lambda: ComponentOrbit("A", 1.5, 1), id="orbit-size"),
        pytest.param(lambda: ComponentOrbit("A", 1, 1.5), id="orbit-multiplicity"),
    ],
)
def test_constructors_refuse_non_integers(build):
    with pytest.raises(TypeError):
        build()


def test_matrix_entries_are_plain_ints():
    a = IntMatrix(2, 2, ((True, 2), (3, 4)))
    assert [type(e) for row in a.rows for e in row] == [int] * 4
    assert type(chowfiber.snf(a).s.rows[0][0]) is int


def test_group_equality_decides_isomorphism():
    assert FGAbelianGroup(1, [2, 4]) == FGAbelianGroup.quotient(4, (1, 2, 4))
    assert hash(FGAbelianGroup(1, [2, 4])) == hash(FGAbelianGroup(1, (2, 4)))
    assert FGAbelianGroup(0, (2,)) != FGAbelianGroup(0, (4,))


def test_fixture_path_resolves_every_bundled_name_with_or_without_suffix():
    from chowfiber.fixtures import fixture_names, fixture_path

    for name in fixture_names():
        path = fixture_path(name)
        assert path.is_file() and path.name == f"{name}.json"
        assert fixture_path(f"{name}.json") == path


@pytest.mark.parametrize(
    "name",
    [
        pytest.param("absolute", id="absolute-path"),
        pytest.param("../fixtures/trivial", id="relative-path"),
        pytest.param("missing", id="unknown-name"),
    ],
)
def test_fixture_path_refuses_names_outside_the_bundle(tmp_path, name):
    from chowfiber.fixtures import fixture_path

    if name == "absolute":
        outside = tmp_path / "model.json"
        outside.write_text("{}")
        name = str(outside)
    with pytest.raises(FileNotFoundError, match="no bundled fixture"):
        fixture_path(name)
