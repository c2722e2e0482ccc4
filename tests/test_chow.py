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
    known_answer_model_document,
    random_valid_model_document,
    reverse_local_valuations_at_3,
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
    NotInLattice,
    SelfCheckError,
    cokernel,
    determinantal_divisors,
    integer_kernel,
    invariant_factors_from_divisors,
    kernel_coordinates,
    snf,
    solve_in_lattice,
)
from chowfiber.cli import report_as_json
from chowfiber.fiber_model import build_specialization_matrix, parse_model
from chowfiber.fixtures import fixture_path
from chowfiber.galois import hom_T_basis, xi_weights

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
    weights = xi_weights(m.orbits)
    a = build_specialization_matrix(m)
    return compute_b0(weights, a, snf(a))


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
            for y in range(len(m.orbits)):
                projected = pres.u.column(y)
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


class TestComputeB0:
    def test_irreducible_fiber_is_trivial(self):
        route_quotient, route_kernel = _b0(_single_orbit())
        assert route_quotient == TRIVIAL
        assert route_kernel == TRIVIAL

    def test_doubled_column_gives_two_torsion(self):
        route_quotient, route_kernel = _b0(_two_orbits((2, -2)))
        assert route_quotient == FGAbelianGroup(0, (2,))
        assert route_kernel == FGAbelianGroup(0, (2,))

    def test_no_generators_leaves_free_rank(self):
        route_quotient, route_kernel = _b0(_two_orbits())
        assert route_quotient == Z
        assert route_kernel == Z

    def test_invalid_model_rejected(self):
        # Law-breaking columns have no coordinates in the annihilator
        # lattice, so the quotient route refuses them.
        with pytest.raises(NotInLattice):
            _b0(_fixture_model("example31"))

    def test_routes_agree_on_random_valid_models(self):
        rng = random.Random(1729)
        for _ in range(25):
            m = _model(random_valid_model_document(rng))
            route_quotient, route_kernel = _b0(m)
            assert route_quotient == route_kernel
            b = cokernel(build_specialization_matrix(m))
            assert b.rank == route_quotient.rank + 1
            assert b.invariant_factors == route_quotient.invariant_factors


class TestReport:
    def test_irreducible_fiber_tagged(self):
        rep = report(_fixture_model("irreducible"))
        assert rep.b == Z
        assert rep.b0 == TRIVIAL
        assert rep.index == 1
        assert rep.special_case == IRREDUCIBLE_FIBER
        assert not rep.formal_only

    def test_split_orbit_boundary_untagged(self):
        # One orbit, multiplicity 1, size 2: still B(X) = Z with trivial
        # degree-zero part, but the geometric fiber is reducible, so the
        # index is 2 and the special-case tag stays unset.
        rep = report(_single_orbit(multiplicity=1, size=2, degree=0))
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
        # One validation, one degree matrix, one Smith decomposition and
        # one local route, however many orbits the model has: only the
        # degree matrix is decomposed; the quotient route's kernel row is
        # read off its gcd chain and its quotient off local Smith forms,
        # and the kernel route reads the Smith diagonal.
        snf_calls = []
        local_calls = []
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
                    exact_linalg.local_invariant_factors,
                    fiber_model.validate,
                    fiber_model.build_specialization_matrix,
                )
                report(m)
            assert len(calls["validate"]) == 1
            assert len(calls["build_specialization_matrix"]) == 1
            snf_calls.append(len(calls["snf"]))
            local_calls.append(len(calls["local_invariant_factors"]))
        assert snf_calls == [1, 1]
        assert local_calls == [1, 1]

    @pytest.mark.parametrize("orbit_count", [1000, 2000])
    def test_wide_model_makes_one_smith_decomposition(self, monkeypatch, orbit_count):
        # A gate on work, not on wall time: one generator on many
        # single-component orbits.  The quotient route's kernel row is
        # not decomposed, however long it is, and the kernel route makes
        # no elimination at all.
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
        # the verified kernel route must catch a wrong answer.
        from chowfiber import chow

        honest = chow.local_invariant_factors
        monkeypatch.setattr(chow, "local_invariant_factors", lambda a: fault(honest(a)))
        rng = random.Random(2003)
        m = _model(random_valid_model_document(rng, orbit_count=6, generator_count=8))
        with pytest.raises(SelfCheckError, match="the two degree-zero routes disagree"):
            report(m)

    @pytest.mark.parametrize(
        "fault, message",
        [
            pytest.param(
                lambda xi: (xi[0] + 1, *xi[1:]), "does not vanish", id="nonzero-on-a-relation"
            ),
            pytest.param(
                lambda xi: (0,) * len(xi), "the two degree-zero routes disagree", id="zero"
            ),
        ],
    )
    def test_a_wrong_induced_character_exits_3(self, monkeypatch, capsys, fault, message):
        # synthetic-z2 has a degree matrix of rank 1, so entry 0 of ξ̄ is
        # a relation coordinate.  The quotient route has proved w·a = 0,
        # so ξ̄·s = w·a·v = 0 and a wrong ξ̄ can only be a fault.
        from chowfiber import chow, cli

        m = _fixture_model("synthetic-z2")
        assert snf(build_specialization_matrix(m)).rank() == 1
        honest = chow.compute_xi_bar
        monkeypatch.setattr(chow, "compute_xi_bar", lambda w, dec: fault(honest(w, dec)))
        with pytest.raises(SelfCheckError, match=message):
            report(m)
        assert cli.main(["compute", str(fixture_path("synthetic-z2"))]) == 3
        err = capsys.readouterr().err
        assert err.startswith("internal check failed: ") and message in err

    @pytest.mark.parametrize(
        "wrong",
        [
            pytest.param(FGAbelianGroup(0), id="last-factor-dropped"),
            pytest.param(FGAbelianGroup(1, (2,)), id="rank-plus-one"),
        ],
    )
    def test_routes_that_agree_but_miss_b_never_leave_report(self, monkeypatch, wrong):
        # synthetic-z2 has B(X) = Z + Z/2, so B(X)_0 must be Z/2; both
        # routes return the same wrong group, so only the law that B(X)
        # fixes B(X)_0 can catch it.
        from chowfiber import chow

        m = _fixture_model("synthetic-z2")
        assert report(m).b == FGAbelianGroup(1, (2,))
        monkeypatch.setattr(chow, "compute_b0", lambda weights, degrees, dec: (wrong, wrong))
        with pytest.raises(SelfCheckError):
            report(m)

    def test_a_local_route_off_the_divisibility_chain_never_leaves_report(self, monkeypatch):
        # A local route whose factors break the chain is a self-check
        # failure, not the ValueError of FGAbelianGroup.
        m = _model(ABC_DOCUMENT)
        assert report(m).b == FGAbelianGroup(1, (2, 6))
        reverse_local_valuations_at_3(monkeypatch)
        with pytest.raises(SelfCheckError, match="not a divisibility chain"):
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

    @pytest.mark.parametrize("orbit_count", [12, 24])
    def test_smith_transforms_stay_small(self, monkeypatch, orbit_count):
        # A gate on growth, not on wall time: no entry of u, u_inv or v in
        # any Smith decomposition of a report exceeds orbit_count**2 bits.
        # The degree entries of these models have at most 7 bits.
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
            largest = max(
                abs(e).bit_length()
                for dec in calls["snf"]
                for transform in (dec.u, dec.u_inv, dec.v)
                for row in transform.rows
                for e in row
            )
            assert largest <= orbit_count**2

    @pytest.mark.parametrize("orbit_count", [10, 11, 16, 24])
    def test_routes_match_the_lattice_solve_past_the_oracle_limit(self, orbit_count):
        # Past ORACLE_SIZE_LIMIT the minor oracle cannot check B(X)_0, so
        # both routes are recomputed through an explicit kernel basis and
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


def _seeded_models():
    # n = 4..11 orbits with n + 2 generators, 30 seeds each.
    for orbit_count in range(4, 12):
        for k in range(30):
            rng = random.Random(1000 * orbit_count + k)
            yield _model(
                random_valid_model_document(
                    rng, orbit_count=orbit_count, generator_count=orbit_count + 2
                )
            )


def test_seeded_reports_are_pinned():
    digest = hashlib.sha256()
    for m in _seeded_models():
        digest.update(json.dumps(report_as_json(report(m)), sort_keys=True).encode())
    assert digest.hexdigest() == SEEDED_REPORTS_SHA256


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


def _kernel_route_matches_its_reference(m):
    # The kernel route reads B(X)_0 off the Smith diagonal; the reference
    # writes s in a kernel basis of ξ̄ and takes the quotient by snf.
    weights = xi_weights(m.orbits)
    degrees = build_specialization_matrix(m)
    dec = snf(degrees)
    _, route_kernel = compute_b0(weights, degrees, dec)
    assert route_kernel == cokernel(kernel_coordinates(compute_xi_bar(weights, dec), dec.s))


def test_kernel_route_matches_its_reference_on_seeded_models():
    for m in _seeded_models():
        _kernel_route_matches_its_reference(m)


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
    _kernel_route_matches_its_reference(m)
