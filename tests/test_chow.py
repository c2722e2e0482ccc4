import hashlib
import json
import random
import sys
import time
from collections import defaultdict
from math import gcd

import hypothesis.strategies as st
import pytest
from conftest import (
    ABC_DOCUMENT,
    halve_the_minor_gcd,
    known_answer_model_document,
    load_bench_module,
    misbatched_neighbours,
    random_valid_model_document,
    row_first_log,
)
from hypothesis import given, settings

from chowfiber import exact_linalg, fiber_model
from chowfiber.chow import (
    IRREDUCIBLE_FIBER,
    PERMISSIVE,
    InvalidModel,
    compute_b0,
    compute_xi_bar,
    report,
)
from chowfiber.exact_linalg import (
    FGAbelianGroup,
    IntMatrix,
    NotInLattice,
    SelfCheckError,
    cokernel,
    determinantal_divisors,
    integer_kernel,
    invariant_factors_from_divisors,
    snf,
    solve_in_lattice,
)
from chowfiber.cli import report_as_json
from chowfiber.fiber_model import build_specialization_matrix, parse_model
from chowfiber.fixtures import fixture_path
from chowfiber.galois import WeightVector, hom_T_basis, xi_weights

Z = FGAbelianGroup(1)
TRIVIAL = FGAbelianGroup(0)


def _model(document):
    return parse_model(document)


def _fixture_model(name):
    return parse_model(fixture_path(name).read_text())


def _single_orbit(multiplicity=1, size=1, degree=None):
    doc = {
        "name": "single",
        "orbits": [{"name": "Y", "multiplicity": multiplicity, "size": size}],
    }
    if degree is not None:
        doc["generators"] = [{"name": "g", "host": "Y", "degrees": {"Y": degree}}]
    return _model(doc)


def _present(m):
    return snf(build_specialization_matrix(m))


def _b0(m):
    return compute_b0(xi_weights(m.orbits), build_specialization_matrix(m))


def _record_calls(monkeypatch, *functions):
    """Record the result of every call to ``functions``, by function name.

    The modules bind each other's functions with from-imports, so each
    chowfiber namespace holding the function gets the recording wrapper.
    """
    results = defaultdict(list)

    def recording(fn):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            results[fn.__name__].append(result)
            return result

        return wrapper

    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "chowfiber"]
    for fn in functions:
        wrapper = recording(fn)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, key, wrapper)
    return results


def _two_orbits(degrees=None):
    doc = {
        "name": "pair",
        "orbits": [
            {"name": "A", "multiplicity": 1, "size": 1},
            {"name": "B", "multiplicity": 1, "size": 1},
        ],
    }
    if degrees is not None:
        doc["generators"] = [
            {"name": "g", "host": "A", "degrees": {"A": degrees[0], "B": degrees[1]}}
        ]
    return _model(doc)


class TestComputeB:
    """B(X): the cokernel of the degree matrix, as the pipeline presents it."""

    def test_single_orbit_no_generators(self):
        assert report(_single_orbit()).b == Z

    def test_degree_one_column_kills_a_factor(self):
        # Cokernel of the column (1, -1): divisor oracle gives d1 = 1,
        # so the quotient is free of rank 1.
        assert report(_two_orbits((1, -1))).b == Z

    def test_strict_rejects_invalid(self, monkeypatch):
        calls = _record_calls(monkeypatch, exact_linalg.snf)
        with pytest.raises(InvalidModel):
            report(_fixture_model("example31"))
        assert len(calls["snf"]) == 0

    def test_permissive_formal_cokernel(self, monkeypatch):
        calls = _record_calls(monkeypatch, exact_linalg.snf)
        rep = report(_fixture_model("example31"), mode=PERMISSIVE)
        assert rep.b == FGAbelianGroup(0, (2, 2))
        assert len(calls["snf"]) == 1


class TestComputeXiBar:
    def test_identity_on_irreducible_fiber(self):
        m = _single_orbit()
        assert compute_xi_bar(xi_weights(m.orbits), _present(m)) == (1,)
        assert report(m).index == 1

    def test_index_is_weight_gcd(self):
        m = _model(
            {
                "name": "weights-2-4",
                "orbits": [
                    {"name": "A", "multiplicity": 1, "size": 2},
                    {"name": "B", "multiplicity": 2, "size": 2},
                ],
            }
        )
        assert report(m).index == 2

    def test_character_descends_from_the_weights(self):
        # Composing the induced character with the projection recovers
        # the weight of every orbit basis vector.
        for name in ("irreducible", "split-orbit", "synthetic-z2"):
            m = _fixture_model(name)
            pres = _present(m)
            w = xi_weights(m.orbits)
            values = compute_xi_bar(w, pres)
            for y, projected in enumerate(pres.u.transpose().rows):
                assert sum(a * b for a, b in zip(values, projected)) == w.weights[y]

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32), st.integers(1, 9), st.integers(0, 11))
    def test_raw_row_vanishes_on_relations_and_has_the_index_as_gcd(
        self, seed, orbit_count, generator_count
    ):
        # The shape that lets report() publish (0, ..., 0, index, 0, ..., 0).
        m = _model(
            random_valid_model_document(
                random.Random(seed), orbit_count=orbit_count, generator_count=generator_count
            )
        )
        pres = _present(m)
        w = xi_weights(m.orbits)
        values = compute_xi_bar(w, pres)
        r = pres.rank()
        assert values[:r] == (0,) * r
        assert gcd(*values[r:]) == w.image_index()

    @pytest.mark.parametrize("weights", [(1, 2, 99), (1,)])
    def test_a_weight_row_of_the_wrong_length_is_refused(self, weights):
        # One weight per row of the degree matrix: an extra entry must not
        # be carried through, nor a missing one read past the end.
        dec = snf(IntMatrix.from_rows([[0, 2], [3, 0]]))
        assert compute_xi_bar(WeightVector((1, 2)), dec) == (4, -1)
        with pytest.raises(ValueError):
            compute_xi_bar(WeightVector(weights), dec)


def _one_free_generator_more(group):
    return FGAbelianGroup(group.rank + 1, group.invariant_factors)


class TestComputeB0:
    def test_irreducible_fiber_is_trivial(self):
        m = _single_orbit()
        assert _b0(m) == TRIVIAL
        assert _one_free_generator_more(_b0(m)) == report(m).b

    def test_doubled_column_gives_two_torsion(self):
        m = _two_orbits((2, -2))
        assert _b0(m) == FGAbelianGroup(0, (2,))
        assert _one_free_generator_more(_b0(m)) == report(m).b

    def test_no_generators_leaves_free_rank(self):
        m = _two_orbits()
        assert _b0(m) == Z
        assert _one_free_generator_more(_b0(m)) == report(m).b

    def test_invalid_model_rejected(self):
        # Law-breaking columns leave the annihilator lattice, so a direct
        # call refuses them as input at fault.
        with pytest.raises(NotInLattice):
            _b0(_fixture_model("example31"))

    def test_a_column_off_the_kernel_is_not_in_lattice(self):
        # Without the check, w = (1, 1) and the column (1, 1) would give Z
        # by both routes.
        with pytest.raises(NotInLattice, match="degree column 0"):
            compute_b0(WeightVector((1, 2)), IntMatrix.from_columns([(1, 0)]))
        with pytest.raises(NotInLattice, match="degree column 1"):
            compute_b0(WeightVector((1, 2)), IntMatrix.from_columns([(2, -1), (0, 1)]))
        with pytest.raises(NotInLattice):
            compute_b0(WeightVector((1, 1)), IntMatrix.from_columns([(1, 1)]))

    def test_a_degree_matrix_of_the_wrong_row_count_is_refused(self):
        # A bare zip of the weights with the rows would drop the third row.
        degrees = IntMatrix.from_columns([(1, -1, 5)])
        with pytest.raises(ValueError, match="row count"):
            compute_b0(WeightVector((1, 1)), degrees)
        with pytest.raises(ValueError, match="row count"):
            compute_b0(WeightVector((1, 1, 1)), IntMatrix.from_columns([(1, -1)]))

    def test_an_empty_weight_row_gives_the_trivial_group(self):
        assert compute_b0(WeightVector(()), IntMatrix.from_rows([], col_count=2)) == TRIVIAL

    def test_zero_columns_and_no_columns_leave_the_kernel(self):
        zero_column = IntMatrix.from_columns([(0, 0, 0)])
        assert compute_b0(WeightVector((3, 5, 7)), zero_column) == FGAbelianGroup(2)
        no_columns = IntMatrix.from_rows([[], [], []], col_count=0)
        assert compute_b0(WeightVector((3, 5, 7)), no_columns) == FGAbelianGroup(2)

    def test_length_one_row(self):
        assert compute_b0(WeightVector((4,)), IntMatrix.from_rows([[0, 0]])) == TRIVIAL
        with pytest.raises(NotInLattice):
            compute_b0(WeightVector((4,)), IntMatrix.from_columns([(1,)]))

    def test_long_row_makes_no_smith_decomposition(self, monkeypatch):
        # A gate on work, not on wall time: the Bézout vector comes from
        # one pass down the weights and one back up, so a 4,000-entry row
        # decomposes nothing.
        def no_snf(a):
            raise AssertionError("compute_b0 made a Smith decomposition")

        monkeypatch.setattr(exact_linalg, "snf", no_snf)
        n = 4000
        weights = WeightVector(range(6, n + 6))
        # 7·e_0 − 6·e_1 and 8·e_1 − 7·e_2, whose 2-by-2 minors have gcd 7.
        degrees = IntMatrix.from_columns(
            [(7, -6) + (0,) * (n - 2), (0, 8, -7) + (0,) * (n - 3)]
        )
        assert compute_b0(weights, degrees) == FGAbelianGroup(n - 3, (7,))

    def test_the_bezout_vector_first_keeps_the_minor_gcd_tight(self, monkeypatch):
        # A gate on work, not on wall time: with e first, the Bareiss pass
        # finds minor gcd 1 on the section matrix of 152 of the 240 seeded
        # models, so the local route eliminates nothing on them.  The last
        # pivot row and column alone give 1 on 97; the minors of the two
        # rows left at rank m - 2 give the rest.  With e last it finds 1
        # on 97 models.
        from chowfiber import chow

        minor_gcds = []

        def recorded(a):
            minor_gcds.append(exact_linalg._rank_and_minor(a)[2])
            return exact_linalg.local_invariant_factors(a)

        monkeypatch.setattr(chow, "local_invariant_factors", recorded)
        for m in _seeded_models():
            _b0(m)
        assert len(minor_gcds) == 240
        assert minor_gcds.count(1) >= 152

    def test_routes_agree_on_random_valid_models(self):
        # The quotient route against B(X) from a Smith decomposition of
        # its own: one free generator fewer, the same torsion.
        rng = random.Random(1729)
        for _ in range(25):
            m = _model(random_valid_model_document(rng))
            b = cokernel(build_specialization_matrix(m))
            assert _one_free_generator_more(_b0(m)) == b


class TestReport:
    def test_irreducible_fiber_tagged(self):
        rep = report(_fixture_model("irreducible"))
        assert rep.b == Z
        assert rep.b0 == TRIVIAL
        assert rep.index == 1
        assert rep.special_case == IRREDUCIBLE_FIBER
        assert not rep.formal_only

    @pytest.mark.parametrize("multiplicity, size", [(1, 2), (2, 1)])
    def test_split_orbit_boundary_untagged(self, multiplicity, size):
        # One orbit of weight 2: still B(X) = Z with trivial degree-zero
        # part, but the geometric fiber is reducible (size 2) or not
        # reduced (multiplicity 2), so the index is 2 and the
        # special-case tag stays unset.
        rep = report(_single_orbit(multiplicity=multiplicity, size=size, degree=0))
        assert rep.b == Z
        assert rep.b0 == TRIVIAL
        assert rep.index == 2
        assert rep.special_case is None

    def test_strict_raises_on_invalid(self):
        with pytest.raises(InvalidModel):
            report(_fixture_model("example31"))

    def test_permissive_report_on_invalid(self):
        rep = report(_fixture_model("example31"), mode=PERMISSIVE)
        assert rep.formal_only
        assert rep.b == FGAbelianGroup(0, (2, 2))
        assert rep.b0 is None
        assert rep.xi_on_generators is None
        assert rep.index is None
        assert [d.subject for d in rep.diagnostics if d.is_error()] == [
            "c01",
            "c02",
            "c04",
            "c05",
        ]
        assert rep.expected is not None
        assert rep.expected.b0_rank == 0
        assert rep.expected.b0_torsion == (2,)

    def test_permissive_on_valid_model_is_not_formal(self):
        rep = report(_fixture_model("synthetic-z2"), mode=PERMISSIVE)
        assert not rep.formal_only
        assert rep.b0 == FGAbelianGroup(0, (2,))

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            report(_fixture_model("trivial"), mode="lenient")

    def test_hypotheses_echoed(self):
        rep = report(_fixture_model("irreducible"))
        assert rep.hypotheses.reduced_components_smooth
        assert rep.hypotheses.pic_unramified_descent
        rep = report(_fixture_model("trivial"))
        assert not rep.hypotheses.reduced_components_smooth

    def test_single_multiplicity_one_orbit_forces_z(self):
        # Any validating generator on a single multiplicity-one orbit
        # has degree zero, so the quotient is Z and its degree-zero part
        # vanishes, whatever the orbit size.
        for size in (1, 2, 3):
            rep = report(_single_orbit(size=size, degree=0))
            assert rep.b == Z
            assert rep.b0 == TRIVIAL

    def test_single_orbit_nonzero_degree_cannot_validate(self):
        with pytest.raises(InvalidModel):
            report(_single_orbit(degree=1))

    def test_negating_all_degrees_changes_nothing(self):
        rng = random.Random(4104)
        for _ in range(10):
            doc = random_valid_model_document(rng)
            rep = report(_model(doc))
            negated = dict(doc)
            negated["generators"] = [
                {**g, "degrees": {k: -v for k, v in g["degrees"].items()}}
                for g in doc["generators"]
            ]
            rep_neg = report(_model(negated))
            assert rep_neg.b == rep.b
            assert rep_neg.b0 == rep.b0
            assert rep_neg.index == rep.index

    def test_rank_bookkeeping_on_random_models(self):
        rng = random.Random(31415)
        for _ in range(15):
            m = _model(random_valid_model_document(rng))
            rep = report(m)
            a = build_specialization_matrix(m)
            assert rep.b.rank == len(m.orbits) - snf(a).rank()
            assert rep.b.rank == rep.b0.rank + 1
            assert rep.b.rank >= 1

    def test_one_pass(self, monkeypatch):
        # One validation, one degree matrix, one cokernel with its one
        # Smith decomposition and one local route, however many orbits
        # the model has: only the degree matrix is decomposed; the
        # quotient route reads a Bézout vector off the weights and its
        # quotient off local Smith forms.
        snf_calls = []
        local_calls = []
        cokernel_calls = []
        for orbit_count in (3, 9):
            rng = random.Random(2003 + orbit_count)
            m = _model(
                random_valid_model_document(
                    rng, orbit_count=orbit_count, generator_count=orbit_count + 2
                )
            )
            with monkeypatch.context() as patch:
                calls = _record_calls(
                    patch,
                    exact_linalg.snf,
                    exact_linalg.cokernel,
                    exact_linalg.local_invariant_factors,
                    fiber_model.validate,
                    fiber_model.build_specialization_matrix,
                )
                report(m)
            assert len(calls["validate"]) == 1
            assert len(calls["build_specialization_matrix"]) == 1
            snf_calls.append(len(calls["snf"]))
            local_calls.append(len(calls["local_invariant_factors"]))
            cokernel_calls.append(len(calls["cokernel"]))
        assert snf_calls == [1, 1]
        assert local_calls == [1, 1]
        assert cokernel_calls == [1, 1]

    @pytest.mark.parametrize("orbit_count", [1000, 2000])
    def test_wide_model_makes_one_smith_decomposition(self, monkeypatch, orbit_count):
        # A gate on work, not on wall time: one generator on many
        # single-component orbits.  The quotient route's weight row is
        # not decomposed, however long it is.
        orbits = [{"name": f"O{i}", "multiplicity": 1, "size": 1} for i in range(orbit_count)]
        generator = {"name": "g", "host": "O0", "degrees": {"O0": 1, "O1": -1}}
        m = _model({"name": "wide", "orbits": orbits, "generators": [generator]})
        calls = _record_calls(monkeypatch, exact_linalg.snf, exact_linalg.local_invariant_factors)
        rep = report(m)
        assert len(calls["snf"]) == 1
        assert len(calls["local_invariant_factors"]) == 1
        assert rep.b0 == FGAbelianGroup(orbit_count - 2)

    @pytest.mark.parametrize(
        "fault",
        [
            pytest.param(lambda f: f[:-1] + (2 * f[-1],), id="last-factor-doubled"),
            pytest.param(lambda f: f[:-1], id="one-factor-fewer"),
        ],
    )
    def test_wrong_local_factors_never_leave_report(self, monkeypatch, fault):
        # The quotient route takes its factors from the local route alone;
        # B(X) from the verified Smith diagonal must catch a wrong answer.
        from chowfiber import chow

        honest = chow.local_invariant_factors
        monkeypatch.setattr(chow, "local_invariant_factors", lambda a: fault(honest(a)))
        rng = random.Random(2003)
        m = _model(random_valid_model_document(rng, orbit_count=6, generator_count=8))
        with pytest.raises(SelfCheckError, match="the two degree-zero routes disagree"):
            report(m)

    @pytest.mark.parametrize(
        "fault",
        [
            pytest.param(lambda d: 2 * d, id="last-entry-doubled"),
            pytest.param(lambda d: 0, id="last-entry-zeroed"),
        ],
    )
    def test_a_wrong_smith_diagonal_past_the_proof_exits_3(self, monkeypatch, capsys, fault):
        # A fault the proof of snf cannot see: the honest log with a wrong
        # last nonzero diagonal entry.  The quotient route shares no code
        # with snf, so B(X)_0 from the diagonal disagrees with it.
        from chowfiber import cli

        honest = exact_linalg.snf

        def planted(a):
            dec = honest(a)
            rows = [list(row) for row in dec.s.rows]
            last = dec.rank() - 1
            if last >= 0:
                rows[last][last] = fault(rows[last][last])
            s = exact_linalg.IntMatrix.from_rows(rows, dec.s.col_count)
            return exact_linalg.SmithDecomposition(s, dec.log)

        models = [_model(random_valid_model_document(random.Random(k))) for k in range(49)]
        # A zero degree matrix has no nonzero diagonal entry to break.
        faulty = [m for m in models if snf(build_specialization_matrix(m)).rank()]
        assert len(faulty) > len(models) // 2
        # cokernel looks snf up in exact_linalg, where report's B(X) is read.
        monkeypatch.setattr(exact_linalg, "snf", planted)
        for m in faulty:
            with pytest.raises(SelfCheckError, match="the two degree-zero routes disagree"):
                report(m)
        assert cli.main(["compute", str(fixture_path("synthetic-z2"))]) == 3
        err = capsys.readouterr().err
        assert err.startswith("internal check failed: the two degree-zero routes disagree")

    def test_a_degree_column_off_the_kernel_exits_3(self, monkeypatch, capsys, tmp_path):
        # With validation bypassed, a column that pairs to 1 against the
        # weights reaches the quotient route, whose solve refuses it.
        from chowfiber import chow, cli

        doc = json.loads(fixture_path("synthetic-z2").read_text())
        doc["generators"][0]["degrees"]["A"] += 1
        path = tmp_path / "off-kernel.json"
        path.write_text(json.dumps(doc))
        monkeypatch.setattr(chow, "validate", lambda m: [])
        with pytest.raises(SelfCheckError, match="leaves ker"):
            report(_model(doc))
        assert cli.main(["compute", str(path)]) == 3
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("internal check failed: ")

    @pytest.mark.parametrize(
        "wrong",
        [
            pytest.param(FGAbelianGroup(0), id="last-factor-dropped"),
            pytest.param(FGAbelianGroup(1, (2,)), id="rank-plus-one"),
        ],
    )
    def test_routes_that_agree_but_miss_b_never_leave_report(self, monkeypatch, wrong):
        # synthetic-z2 has B(X) = Z + Z/2, so B(X)_0 must be Z/2; only
        # the law that B(X) fixes B(X)_0 can catch a wrong group.
        from chowfiber import chow

        m = _fixture_model("synthetic-z2")
        assert report(m).b == FGAbelianGroup(1, (2,))
        monkeypatch.setattr(chow, "compute_b0", lambda weights, degrees: wrong)
        with pytest.raises(SelfCheckError):
            report(m)

    def test_a_local_route_given_a_wrong_minor_gcd_never_leaves_report(self, monkeypatch):
        # A local route whose factors do not divide the minor gcd it was
        # given is a self-check failure, not a wrong group.
        m = _model(ABC_DOCUMENT)
        assert report(m).b == FGAbelianGroup(1, (2, 6))
        halve_the_minor_gcd(monkeypatch)
        with pytest.raises(SelfCheckError, match="do not divide the minor gcd 6"):
            report(m)

    def test_large_trivial_model_costs_what_its_transforms_hold(self):
        # 300 orbits, 2 generators: the Smith transforms of the degree
        # matrix are 300x300 and nearly the identity, so a strict report
        # must not pay for dense cubic products to check them.
        orbits = [{"name": f"O{i}", "multiplicity": 1, "size": 1} for i in range(300)]
        generators = [
            {"name": f"g{k}", "host": f"O{k}", "degrees": {f"O{k}": 1, f"O{k + 1}": -1}}
            for k in range(2)
        ]
        m = _model({"name": "wide", "orbits": orbits, "generators": generators})
        started = time.perf_counter()
        rep = report(m)
        assert time.perf_counter() - started < 1.0
        assert rep.b == FGAbelianGroup(298)
        assert rep.b0 == FGAbelianGroup(297)

    @pytest.mark.parametrize("orbit_count", [12, 24, 48, 64])
    def test_smith_transforms_stay_small(self, monkeypatch, orbit_count):
        # A gate on growth, not on wall time: no factor in the log of any
        # Smith decomposition of a report exceeds orbit_count**2 bits, and
        # at 12 and 24 orbits neither does any entry of the rebuilt u,
        # u_inv or v.  (The transforms are not bounded past 24: u reaches
        # about 8,800 bits at 64 orbits, more than 64**2.)  The degree
        # entries of these models have at most 7 bits.
        for k in range(5):
            rng = random.Random(4000 + 100 * orbit_count + k)
            m = _model(
                random_valid_model_document(
                    rng, orbit_count=orbit_count, generator_count=orbit_count + 2
                )
            )
            with monkeypatch.context() as patch:
                calls = _record_calls(patch, exact_linalg.snf)
                report(m)
            for dec in calls["snf"]:
                factors = [f for op in dec.log if op[0].startswith("add") for _, f in op[2]]
                assert max((abs(f).bit_length() for f in factors), default=0) <= orbit_count**2
                if orbit_count <= 24:
                    largest = max(
                        abs(e).bit_length()
                        for transform in (dec.u, dec.u_inv, dec.v)
                        for row in transform.rows
                        for e in row
                    )
                    assert largest <= orbit_count**2

    def test_wide_trivial_model_logs_a_handful_of_operations(self, monkeypatch):
        # 2,000 single-component orbits and one generator of degrees 1 and
        # -1: the 2,000x1 degree matrix needs one row add, so its log must
        # not grow with the orbit count.  Work is counted, not timed: each
        # addition of a batch is one operation.
        orbits = [{"name": f"O{i}", "multiplicity": 1, "size": 1} for i in range(2000)]
        generator = {"name": "g", "host": "O0", "degrees": {"O0": 1, "O1": -1}}
        m = _model({"name": "wide", "orbits": orbits, "generators": [generator]})
        calls = _record_calls(monkeypatch, exact_linalg.snf)
        rep = report(m)
        assert rep.b == FGAbelianGroup(1999)
        [dec] = calls["snf"]
        assert len(row_first_log(dec.log)) <= 3

    def test_report_reads_no_dense_transform(self, monkeypatch):
        # report() reads the Smith diagonal and the log, never u, u_inv
        # or v, so it calls no compute_xi_bar either, which reads u_inv:
        # with the three patched to raise it still succeeds.  The seeded
        # models are built first, since their generator reads v.
        fixtures = [
            parse_model(path.read_text())
            for path in sorted(fixture_path("trivial").parent.glob("*.json"))
        ]
        models = []
        for k in range(20):
            rng = random.Random(7000 + k)
            count = rng.randint(1, 12)
            document = random_valid_model_document(rng, orbit_count=count, generator_count=count + 2)
            models.append(_model(document))

        def refuse(dec):
            raise AssertionError("report() read a dense Smith transform")

        for name in ("u", "u_inv", "v"):
            monkeypatch.setattr(exact_linalg.SmithDecomposition, name, property(refuse))
        assert len(fixtures) == 5
        for m in fixtures:
            report(m, PERMISSIVE)
        for m in models:
            assert report(m).b0 is not None

    @pytest.mark.parametrize("orbit_count", [10, 11, 16, 24])
    def test_routes_match_the_lattice_solve_past_the_oracle_limit(self, orbit_count):
        # Past ORACLE_SIZE_LIMIT the minor oracle cannot check B(X)_0, so
        # it is recomputed through explicit kernel bases of w and of ξ̄ and
        # a separate lattice solve, sharing no decomposition with report().
        groups = set()
        for generator_count in sorted({9, orbit_count - 1, orbit_count + 2}):
            for k in range(3):
                rng = random.Random(1000 * orbit_count + 10 * generator_count + k)
                m = _model(
                    random_valid_model_document(
                        rng, orbit_count=orbit_count, generator_count=generator_count
                    )
                )
                rep = report(m)
                a = build_specialization_matrix(m)
                assert min(a.shape) > exact_linalg.ORACLE_SIZE_LIMIT
                dec = snf(a)
                weights = xi_weights(m.orbits)
                basis = hom_T_basis(weights)
                quotient = cokernel(solve_in_lattice(basis, a))
                kernel_basis = integer_kernel(
                    exact_linalg.IntMatrix.from_rows([compute_xi_bar(weights, dec)])
                )
                kernel = cokernel(solve_in_lattice(kernel_basis, dec.s))
                assert rep.b0 == quotient == kernel
                groups.add(rep.b0)
        # Torsion occurs, so agreement is not vacuous.
        assert any(g.invariant_factors for g in groups)

    def test_json_report_is_invariant_under_orbit_and_generator_order(self):
        # The published character must not depend on which free basis of
        # B(X) the elimination order happens to pick.
        for orbit_count in range(4, 12):
            for k in range(5):
                rng = random.Random(1000 * orbit_count + k)
                doc = random_valid_model_document(
                    rng, orbit_count=orbit_count, generator_count=orbit_count + 2
                )
                shuffled = dict(
                    doc,
                    orbits=rng.sample(doc["orbits"], orbit_count),
                    generators=rng.sample(doc["generators"], orbit_count + 2),
                )
                rep = report(_model(doc))
                r = orbit_count - rep.b.rank
                canonical = (0,) * r + (rep.index,) + (0,) * (rep.b.rank - 1)
                assert rep.xi_on_generators == canonical
                assert report_as_json(report(_model(shuffled))) == report_as_json(rep)


#: SHA-256 over ``json.dumps(report_as_json(report(m)), sort_keys=True)``
#: of the 240 seeded valid models below, concatenated in order.  The
#: outputs of ``report()`` must not move when its algorithms change.
SEEDED_REPORTS_SHA256 = "b80d4c3a2024ac09ac86dfddf0a19fa731945ba04d388f617045c72bd53cc1cd"


def _seeded_documents():
    # n = 4..11 orbits with n + 2 generators, 30 seeds each.
    for orbit_count in range(4, 12):
        for k in range(30):
            rng = random.Random(1000 * orbit_count + k)
            yield random_valid_model_document(
                rng, orbit_count=orbit_count, generator_count=orbit_count + 2
            )


def _seeded_models():
    return map(_model, _seeded_documents())


#: SHA-256 over ``json.dumps(doc, sort_keys=True)`` of the 240 seeded
#: documents above, in order, and then over the document texts of the
#: benchmark's report-scale pool at seed 1.  Both draw their degree
#: columns from ``hom_T_basis``, which reads the ``v`` of a Smith
#: decomposition, so a change to ``snf`` can move the inputs; the pins
#: on outputs below would then hash the outputs of other models.
SEEDED_DOCUMENTS_SHA256 = "4ce61b7fb73770cd06c0d4cd5c220c0fe4135fbd92220ab867eaa2154e86a871"


def test_seeded_documents_are_pinned(monkeypatch, tmp_path):
    digest = hashlib.sha256()
    for doc in _seeded_documents():
        digest.update(json.dumps(doc, sort_keys=True).encode())
    workloads = load_bench_module(monkeypatch, "workloads")
    for case in workloads.make_cases("report-scale", 1, tmp_path):
        digest.update(case.text.encode())
    assert digest.hexdigest() == SEEDED_DOCUMENTS_SHA256


def test_seeded_reports_are_pinned():
    digest = hashlib.sha256()
    for m in _seeded_models():
        digest.update(json.dumps(report_as_json(report(m)), sort_keys=True).encode())
    assert digest.hexdigest() == SEEDED_REPORTS_SHA256


#: SHA-256 over ``repr(row_first_log(snf(degrees).log))`` and then
#: ``repr(row_first_log(snf(weight row).log))`` of each of the 240 seeded
#: models, in order.  ``hom_T_basis``, the benchmark's seeded documents
#: and demo 01 read these logs, so a faster elimination must log the same
#: operations.
SEEDED_SMITH_LOGS_SHA256 = "890e6570f85c15d2c392d4ca278fbff73231306fa4414b3f7453971694695112"


def test_seeded_smith_logs_are_pinned():
    digest = hashlib.sha256()
    for m in _seeded_models():
        weight_row = IntMatrix.from_rows([xi_weights(m.orbits).weights])
        for a in (build_specialization_matrix(m), weight_row):
            log = snf(a).log
            assert not misbatched_neighbours(log)
            digest.update(repr(row_first_log(log)).encode())
    assert digest.hexdigest() == SEEDED_SMITH_LOGS_SHA256


#: SHA-256 over ``repr((dec.u.rows, dec.v.rows, dec.u_inv.rows,
#: compute_xi_bar(w, dec)))`` with ``dec = snf(degrees)`` of each of the
#: 240 seeded models, in order, and then ``repr(snf(weight row).v.rows)``.
#: The transforms are read off the log; a new reader must give the same.
SEEDED_TRANSFORMS_SHA256 = "8b06c53def21bb6ae0cbfff68a2507969b6524980dbfd3c714b0d54de406d408"


def test_seeded_transforms_are_pinned():
    digest = hashlib.sha256()
    for m in _seeded_models():
        dec = snf(build_specialization_matrix(m))
        w = xi_weights(m.orbits)
        transforms = (dec.u.rows, dec.v.rows, dec.u_inv.rows, compute_xi_bar(w, dec))
        digest.update(repr(transforms).encode())
        digest.update(repr(snf(IntMatrix.from_rows([w.weights])).v.rows).encode())
    assert digest.hexdigest() == SEEDED_TRANSFORMS_SHA256


@pytest.mark.parametrize("orbit_count", range(3, 9))
def test_known_answer_models_agree_with_the_minor_oracle(orbit_count):
    # The construction itself, checked where the oracle reaches.
    rng = random.Random(orbit_count)
    diagonal = (1,) * (orbit_count - 3) + (2, 6)
    doc, (b, b0, _xi) = known_answer_model_document(rng, orbit_count, 3, diagonal)
    model = _model(doc)
    degrees = build_specialization_matrix(model)
    factors = invariant_factors_from_divisors(determinantal_divisors(degrees))
    assert FGAbelianGroup.quotient(degrees.row_count, factors) == b
    assert xi_weights(model.orbits).image_index() == 3


def _xi_bar_kernel_is_b0(m):
    # In the canonical coordinates the relations are the columns of s, so
    # writing s in a kernel basis of ξ̄ and taking the quotient by snf
    # gives B(X)_0, as report() publishes it.
    dec = snf(build_specialization_matrix(m))
    xi_bar = compute_xi_bar(xi_weights(m.orbits), dec)
    kernel_basis = integer_kernel(IntMatrix.from_rows([xi_bar]))
    assert cokernel(solve_in_lattice(kernel_basis, dec.s)) == report(m).b0


def test_xi_bar_kernel_is_b0_on_seeded_models():
    for m in _seeded_models():
        _xi_bar_kernel_is_b0(m)


@pytest.mark.parametrize(
    "orbit_count, index, diagonal",
    [
        pytest.param(32, 1, (1,) * 26 + (2, 6, 6 * 10**10, 6 * 10**20, 6 * 10**30), id="n32"),
        pytest.param(32, 7, (1,) * 26 + (2, 6 * 10**30), id="n32-free-b0"),
        pytest.param(48, 12, (1,) * 43 + (3, 6, 6 * 10**15, 6 * 10**30), id="n48"),
    ],
)
def test_report_on_known_answer_models_past_the_oracle(orbit_count, index, diagonal):
    rng = random.Random(f"known:{orbit_count}:{index}")
    doc, (b, b0, xi) = known_answer_model_document(rng, orbit_count, index, diagonal)
    m = _model(doc)
    rep = report(m)
    assert (rep.b, rep.b0, rep.xi_on_generators, rep.index) == (b, b0, xi, index)
    _xi_bar_kernel_is_b0(m)
