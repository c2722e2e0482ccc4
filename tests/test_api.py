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
    PermutationAction,
    PicGenerator,
    SmithDecomposition,
    WeightVector,
)


def test_export_list_is_sorted_unique_and_resolves():
    names = chowfiber.__all__
    assert list(names) == sorted(set(names))
    for name in names:
        assert hasattr(chowfiber, name), name


def test_cli_import_leaves_dataclasses_out():
    # -S keeps site-packages .pth hooks, which import modules of their
    # own, out of the child.
    src = str(Path(chowfiber.__file__).resolve().parents[1])
    child = (
        f"import sys; sys.path.insert(0, {src!r}); import chowfiber.cli; "
        "print(chowfiber.cli.__file__); print(' '.join(sorted(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", child], capture_output=True, text=True, check=True
    ).stdout
    cli_file, modules = out.splitlines()
    assert Path(cli_file).resolve().parents[1] == Path(src)
    assert "dataclasses" not in modules.split()


G = FGAbelianGroup
M = IntMatrix
ACTION = PermutationAction(("a", "b"), ("b", "a"))
WARN = ("warning", "no-generators", "m", "text")
ORBIT = ComponentOrbit("A", 1, 1)

# (class, fields, variants): each variant changes one field of ``fields``.
VALUE_CASES = [
    (IntMatrix, (1, 2, ((1, 2),)), [(1, 2, ((1, 3),))]),
    (IntMatrix, (0, 2, ()), [(0, 3, ())]),
    (SmithDecomposition, (M.identity(1), M.identity(1), M.identity(1), M.identity(1)),
     [(M.zeros(1, 1), M.identity(1), M.identity(1), M.identity(1)),
      (M.identity(1), M.zeros(1, 1), M.identity(1), M.identity(1)),
      (M.identity(1), M.identity(1), M.zeros(1, 1), M.identity(1)),
      (M.identity(1), M.identity(1), M.identity(1), M.zeros(1, 1))]),
    (FGAbelianGroup, (1, (2,)), [(2, (2,)), (1, (3,))]),
    (PermutationAction, (("a", "b"), ("b", "a")), [(("b", "a"), ("b", "a")),
                                                    (("a", "b"), ("a", "b"))]),
    (ComponentOrbit, ("A", 2, 3), [("B", 2, 3), ("A", 1, 3), ("A", 2, 1)]),
    (WeightVector, ((2, 3),), [((2, 4),)]),
    (Diagnostic, WARN,
     [("error",) + WARN[1:], WARN[:1] + ("multiplicity-gcd",) + WARN[2:],
      WARN[:2] + ("n", "text"), WARN[:3] + ("other",)]),
    (Hypotheses, (False, True), [(True, True), (False, False)]),
    (ExpectedResult, (0, (2,), "s"), [(1, (2,), "s"), (0, (4,), "s"), (0, (2,), "t")]),
    (PicGenerator, ("g", "A", {"A": 0}), [("h", "A", {"A": 0}), ("g", "B", {"A": 0}),
                                          ("g", "A", {"A": 1})]),
    (GeometricSection, (ACTION, {"A": ("a", "b")}, {"g": {"a": 0}}),
     [(PermutationAction(("a", "b"), ("a", "b")), {"A": ("a", "b")}, {"g": {"a": 0}}),
      (ACTION, {"A": ("b", "a")}, {"g": {"a": 0}}),
      (ACTION, {"A": ("a", "b")}, {"g": {"a": 1}})]),
    (FiberModel, ("m", (ORBIT,), (), Hypotheses(), None, None, None),
     [("n", (ORBIT,), (), Hypotheses(), None, None, None),
      ("m", (ComponentOrbit("B", 1, 1),), (), Hypotheses(), None, None, None),
      ("m", (ORBIT,), (PicGenerator("g", "A", {"A": 0}),), Hypotheses(), None, None, None),
      ("m", (ORBIT,), (), Hypotheses(True), None, None, None),
      ("m", (ORBIT,), (), Hypotheses(), GeometricSection(ACTION, {}, {}), None, None),
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
    assert len(classes) == 13
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

    def test_copies_and_pickles_are_equal(self, cls, fields, variants):
        value = cls(*fields)
        assert copy.copy(value) == value
        assert copy.deepcopy(value) == value
        assert pickle.loads(pickle.dumps(value)) == value


def test_model_default_hypotheses_is_one_shared_value():
    a = FiberModel("a", (ORBIT,), ())
    b = FiberModel("b", (ORBIT,), ())
    assert a.hypotheses is b.hypotheses
    assert a.hypotheses == Hypotheses(False, False)


def test_group_equality_decides_isomorphism():
    assert FGAbelianGroup(1, [2, 4]) == FGAbelianGroup.quotient(4, (1, 2, 4))
    assert hash(FGAbelianGroup(1, [2, 4])) == hash(FGAbelianGroup(1, (2, 4)))
    assert FGAbelianGroup(0, (2,)) != FGAbelianGroup(0, (4,))
