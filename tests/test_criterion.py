import concurrent.futures
import functools
import importlib.util
import itertools
import json
import math
import random
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import (
    _lift_range,
    box_mld_below,
    box_scan,
    class_scan,
    fan_certify,
    fan_decomposition,
    fraction_certify,
    fraction_decomposition_checks,
    fraction_report_checks,
    primitive_family,
    rebind_everywhere,
    scan_instance,
    verify_explicit_bounds,
)

from toricfib import criterion, divisors, fan, models, serialize
from toricfib.criterion import (
    _scan_n1,
    certify,
    epsilon_prime,
    scan,
)
from toricfib.exactmath import InvariantViolation, is_primitive, parallelepiped_points
from toricfib.models import (
    DecompositionData,
    decompose,
    log_canonical_class_split,
    model_V,
    model_V_mld,
    model_W_U,
    model_Y,
    verify_extraction_identities,
)


def _perfbench_workloads():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = _perfbench_workloads()
# every 50th instance of the certify benchmark pool, in its committed order:
# 40 singular d=3 instances with n_1 from 109 to 294
SINGULAR_SLICE = [
    (tuple(n), tuple(l))
    for n, l, _ in json.loads((Path(WORKLOADS.DATA) / "certify_d3.json").read_text())["instances"][::50][:40]
]


def random_vertical(rng, d, top, tail=None):
    """A primitive n with n_1 in [1, top] and the rest in [-tail, tail];
    tail defaults to top."""
    tail = top if tail is None else tail
    while True:
        vec = (rng.randint(1, top),) + tuple(rng.randint(-tail, tail) for _ in range(d - 1))
        if is_primitive(vec):
            return vec


class TestEpsilonPrime:
    def test_values(self):
        assert epsilon_prime(3, 2, Fraction(1, 2)) == Fraction(1, 36)
        assert epsilon_prime(2, 1, Fraction(1)) == Fraction(1, 6)

    def test_monotone_in_r(self):
        values = [epsilon_prime(2, r, Fraction(1, 2)) for r in range(1, 6)]
        assert values == sorted(values, reverse=True)
        assert len(set(values)) == len(values)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            epsilon_prime(1, 1, Fraction(1, 2))
        with pytest.raises(ValueError):
            epsilon_prime(2, 0, Fraction(1, 2))
        with pytest.raises(ValueError):
            epsilon_prime(2, 1, Fraction(3, 2))

    @pytest.mark.parametrize(
        "d,r,eps,kind,message",
        [
            (1, 1, 0.5, ValueError, "d must be an integer >= 2"),
            (1, 0, 0.5, ValueError, "d must be an integer >= 2"),
            (2, 0, 0.5, ValueError, "r must be an integer >= 1"),
            (2, 1, 0.5, TypeError, "floating point is not allowed; use Fraction"),
        ],
    )
    def test_d_r_eps_are_checked_first_everywhere(self, d, r, eps, kind, message):
        # certify and scan check d, r and eps as epsilon_prime does, before
        # their own arguments, which are invalid here too
        calls = (
            lambda: epsilon_prime(d, r, eps),
            lambda: certify(d, r, eps, (2.0, 1), ()),
            lambda: scan(d, r, eps, 0, jobs=0),
        )
        for call in calls:
            with pytest.raises(Exception) as raised:
                call()
            assert (type(raised.value), str(raised.value)) == (kind, message)


class TestCertify:
    @pytest.mark.parametrize("n", range(2, 30))
    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_chain_family_closed_form(self, n, r):
        eps = Fraction(1, 2)
        report = certify(2, r, eps, (n, 1), (1, 0))
        assert report.a == Fraction(2, n)
        assert report.gamma == Fraction(1, n)
        assert report.lam == n
        assert report.lhs == eps - Fraction(2, n) - Fraction(r - 1, n)
        assert report.rhs == Fraction(r - 1, n)
        assert report.fires == (eps > Fraction(2 * r, n))

    def test_no_fire_when_eps_too_small(self):
        report = certify(2, 1, Fraction(1, 4), (4, 1), (1, 0))
        # eps <= a + u means lhs <= 0 <= rhs
        assert report.lhs <= 0 <= report.rhs
        assert not report.fires

    def test_dimension_three_degenerate_rhs(self):
        report = certify(3, 1, Fraction(1, 2), (4, 1, 1), (1, 0, 1))
        assert report.rhs == 0
        assert report.a == Fraction(3, 2)
        assert not report.fires

    def test_deterministic(self):
        first = certify(2, 2, Fraction(1, 3), (7, 2), (1, 0))
        second = certify(2, 2, Fraction(1, 3), (7, 2), (1, 0))
        assert first == second

    def test_fires_matches_exact_inequality(self):
        rng = random.Random(41)
        for _ in range(40):
            d = rng.choice((2, 3))
            n = tuple([rng.randint(1, 9)] + [rng.randint(-9, 9) for _ in range(d - 1)])
            l = tuple([rng.randint(1, 9)] + [rng.randint(-9, 9) for _ in range(d - 1)])
            if not (is_primitive(n) and is_primitive(l)) or n == l:
                continue
            r = rng.randint(1, 3)
            eps = Fraction(rng.randint(1, 6), 6)
            report = certify(d, r, eps, n, l)
            gamma_beta = (r - 1) * sum(
                (report.gamma * c for _, c in report.betas), Fraction(0)
            )
            assert report.fires == (eps - report.a - report.u > gamma_beta)


class TestCertifyClosedForm:
    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=200, deadline=None)
    def test_equals_the_fan_route(self, seed):
        # any l, not only mld minimizers: both sides of the threshold
        rng = random.Random(seed)
        d = rng.choice((2, 3, 4))
        n, l = random_vertical(rng, d, 150), random_vertical(rng, d, rng.choice((3, 150)))
        if n == l:
            return
        r = rng.randint(1, 4)
        eps = Fraction(rng.randint(1, 12), 12)
        report = certify(d, r, eps, n, l)
        expected = fan_certify(d, r, eps, n, l)
        assert report == expected
        assert repr(report) == repr(expected)

    def test_benchmark_pool_digests(self):
        # every instance of the certify-d3 benchmark pool, against its golden digest
        pool = WORKLOADS.certify_stream(0)
        assert len(pool) == 2094
        for n, l, gold in pool:
            report = certify(WORKLOADS.CERTIFY_D, WORKLOADS.CERTIFY_R, WORKLOADS.CERTIFY_EPS, n, l)
            assert WORKLOADS.digest(serialize.dumps(serialize.certificate_to_dict(report))) == gold

    def test_builds_no_cone_or_fan(self, monkeypatch):
        built = []
        for cls in (fan.Cone, fan.Fan):
            original = cls.__post_init__

            def counting(self, original=original, name=cls.__name__):
                built.append(name)
                original(self)

            monkeypatch.setattr(cls, "__post_init__", counting)
        rng = random.Random(5)
        for d in (2, 3, 4):
            for _ in range(20):
                n, l = random_vertical(rng, d, 60), random_vertical(rng, d, 60)
                if n != l:
                    certify(d, 2, Fraction(1, 3), n, l)
        assert built == []
        model_V.__wrapped__(3, (7, 2, 3))
        assert "Cone" in built and "Fan" in built

    @pytest.mark.parametrize(
        "corrupt,message",
        [
            (lambda data: replace(data, gamma=data.gamma * 2), "do not glue"),
            (
                lambda data: replace(data, alphas=((data.alphas[0][0], data.alphas[0][1] + 1),) + data.alphas[1:]),
                "do not glue",
            ),
            (
                lambda data: replace(data, betas=((data.betas[0][0], data.betas[0][1] / 3),) + data.betas[1:]),
                "do not glue",
            ),
            (
                # l_1 = 2: 2 * (11/2 + 1/4) = 11.5 truncates to the right numerator
                lambda data: replace(data, betas=((data.betas[0][0], data.betas[0][1] + Fraction(1, 4)),)
                                     + data.betas[1:]),
                "do not glue",
            ),
            (
                # e_2 + e_3 + c = 0 added: still sums to l - gamma n, on all of H
                lambda data: replace(
                    data,
                    alphas=(((0, -1, -1), Fraction(1)),) + tuple((ray, c + 1) for ray, c in data.alphas),
                ),
                "does not lie on a cone",
            ),
            (lambda data: replace(data, betas=data.betas + data.betas[:1]), "does not lie on a cone"),
        ],
    )
    def test_corrupted_decompositions_are_caught(self, monkeypatch, corrupt, message):
        monkeypatch.setattr(criterion, "decompose", lambda *args: corrupt(decompose(*args)))
        with pytest.raises(InvariantViolation, match=message):
            certify(3, 2, Fraction(1, 3), (7, -2, 3), (2, 1, 1))


def _raised(fn):
    """The type and message ``fn()`` raises, or None."""
    try:
        fn()
    except (ValueError, InvariantViolation) as exc:
        return type(exc), str(exc)
    return None


def _same_as_fraction_form(d, r, eps, n, l):
    report = certify(d, r, eps, n, l)
    expected = fraction_certify(d, r, eps, n, l)
    assert report == expected
    assert repr(report) == repr(expected)
    return report


SMALL_RATIONALS = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))


class TestIntegerCertificate:
    """``certify`` compares integers; ``oracles.fraction_certify`` does the
    same work in Fraction arithmetic."""

    def test_benchmark_pool_equals_the_fraction_form(self):
        pool = WORKLOADS.certify_stream(0)
        assert len(pool) == 2094
        for n, l, _ in pool:
            report = _same_as_fraction_form(WORKLOADS.CERTIFY_D, WORKLOADS.CERTIFY_R, WORKLOADS.CERTIFY_EPS, n, l)
            # every pool instance is below eps_prime, where the certificate fires
            assert report.bounds is not None and report.fires

    @pytest.mark.parametrize(
        "d,r,eps,family,singular",
        [
            (2, 1, Fraction(1, 2), list(primitive_family(2, 40)), 112),
            (3, 2, Fraction(1, 3), [n for n in itertools.product(range(109, 151), (-1, 0, 1), (-1, 0, 1))
                                    if is_primitive(n)], 126),
        ],
        ids=["scan-d2", "d3-band"],
    )
    def test_scan_singular_instances_equal_the_fraction_form(self, d, r, eps, family, singular):
        eps_p = epsilon_prime(d, r, eps)
        reports = [rep for _, is_lc, rep in (scan_instance(d, r, eps, eps_p, n) for n in family) if not is_lc]
        assert len(reports) == singular
        for rep in reports:
            assert _same_as_fraction_form(d, r, eps, rep.n, rep.l) == rep

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=300, deadline=None)
    def test_random_instances_equal_the_fraction_form(self, seed):
        rng = random.Random(seed)
        d = rng.randint(2, 4)
        # the mld minimizer reaches a < eps_prime, mostly when the tail of n
        # is small against n_1; it is a ray when the mld is 1
        minimizer = rng.random() < 0.5
        n = random_vertical(rng, d, rng.choice((3, 40, 400)), 3 if minimizer else None)
        l = model_V_mld(d, n)[1] if minimizer else random_vertical(rng, d, rng.choice((1, 3, 40)))
        if l[0] > 0 and n != l:
            eps = Fraction(rng.randint(1, 30), rng.randint(1, 30))
            eps = min(eps, 1 / eps)
            report = _same_as_fraction_form(d, rng.randint(1, 4), eps, n, l)
            # the lemma of certify: below eps_prime the certificate fires
            assert report.bounds is None or report.fires

    def test_random_instances_reach_every_branch(self):
        rng = random.Random(15)
        kinds = set()
        for _ in range(600):
            d = rng.randint(2, 4)
            n = random_vertical(rng, d, rng.choice((3, 400)))
            l = (1,) + (0,) * (d - 1) if rng.random() < 0.5 else random_vertical(rng, d, 3)
            if n == l:
                continue
            eps = Fraction(rng.randint(1, 12), 12)
            report = _same_as_fraction_form(d, rng.randint(1, 4), eps, n, l)
            kinds.add((report.fires, report.bounds is not None and report.bounds.all_hold,
                       report.bounds is None))
        # firing with all bounds, firing above the threshold, and not firing
        assert {(True, True, False), (True, False, True), (False, False, True)} <= kinds

    @given(SMALL_RATIONALS, st.lists(SMALL_RATIONALS, max_size=3), st.lists(SMALL_RATIONALS, max_size=3))
    @settings(max_examples=400, deadline=None)
    def test_decomposition_checks_equal_the_fraction_form(self, gamma, alphas, betas):
        rays = [(0, 1, 0), (0, 0, 1), (0, -1, -1)]
        fields = dict(gamma=gamma, alphas=tuple(zip(rays, alphas)), betas=tuple(zip(rays, betas)))
        expected = _raised(lambda: fraction_decomposition_checks(**fields))
        assert _raised(lambda: DecompositionData(**fields)) == expected

    @given(st.integers(2, 4), st.integers(1, 4), SMALL_RATIONALS, SMALL_RATIONALS, SMALL_RATIONALS,
           SMALL_RATIONALS, st.booleans(), st.booleans())
    @settings(max_examples=400, deadline=None)
    def test_report_checks_equal_the_fraction_form(self, d, r, eps, eps_p, lhs, rhs, fires, consistent):
        if consistent:
            eps_p = eps / (3 * d * r)
        fields = dict(d=d, r=r, eps=eps, eps_prime=eps_p, lhs=lhs, rhs=rhs, fires=fires)
        expected = _raised(lambda: fraction_report_checks(**fields))
        report = certify(3, 2, Fraction(1, 3), (109, 1, 1), (1, 0, 0))
        assert _raised(lambda: replace(report, **fields)) == expected

    @pytest.mark.parametrize(
        "corrupt,kind,message",
        [
            (lambda data: replace(data, gamma=-data.gamma), ValueError, "gamma must be positive"),
            (lambda data: replace(data, alphas=tuple((ray, -c) for ray, c in data.alphas)),
             ValueError, "alpha coefficients must be strictly positive"),
            (lambda data: replace(data, betas=data.betas[:1] + ((data.betas[1][0], Fraction(0)),)),
             ValueError, "beta coefficients must be strictly positive"),
        ],
    )
    def test_corrupted_decompositions_raise(self, monkeypatch, corrupt, kind, message):
        monkeypatch.setattr(criterion, "decompose", lambda *args: corrupt(decompose(*args)))
        with pytest.raises(kind) as raised:
            certify(3, 2, Fraction(1, 3), (7, -2, 3), (2, 1, 1))
        assert str(raised.value) == message

    def test_corrupted_reports_raise(self, monkeypatch):
        report = certify(3, 2, Fraction(1, 3), (109, 1, 1), (1, 0, 0))
        assert report.fires
        for fields in ({"fires": False}, {"lhs": report.rhs}, {"lhs": -report.lhs}):
            with pytest.raises(InvariantViolation, match="^fires must equal the strict comparison lhs > rhs$"):
                replace(report, **fields)
        monkeypatch.setattr(criterion, "_checked_eps", lambda d, r, eps: (eps, eps / (3 * d * r + 1)))
        with pytest.raises(InvariantViolation, match=r"^eps_prime must equal eps / \(3 d r\)$"):
            certify(3, 2, Fraction(1, 3), (109, 1, 1), (1, 0, 0))

    def test_certify_does_no_fraction_arithmetic(self, monkeypatch):
        calls = []
        for name in ("__add__", "__sub__", "__mul__", "__truediv__", "__lt__", "__gt__"):
            original = getattr(Fraction, name)

            def counting(self, other, original=original, name=name):
                calls.append(name)
                return original(self, other)

            monkeypatch.setattr(Fraction, name, counting)
        n, l, _ = WORKLOADS.certify_stream(0)[0]
        report = certify(WORKLOADS.CERTIFY_D, WORKLOADS.CERTIFY_R, WORKLOADS.CERTIFY_EPS, n, l)
        assert calls == []
        assert report.a < report.eps_prime  # the counters count
        assert calls == ["__lt__"]


# certify's exception for invalid input, recorded before the closed form
# replaced the fan route: (d, r, eps, n, l), type, message.  n and l share
# one validator, so an l of the wrong length gets n's length message before
# any other check on l.
CERTIFY_ERRORS = [
    ((1, 1, Fraction(1, 2), (2, 1), (1, 0)), ValueError, "d must be an integer >= 2"),
    ((True, 1, Fraction(1, 2), (2, 1), (1, 0)), ValueError, "d must be an integer >= 2"),
    ((2, 0, Fraction(1, 2), (2, 1), (1, 0)), ValueError, "r must be an integer >= 1"),
    ((2, True, Fraction(1, 2), (2, 1), (1, 0)), ValueError, "r must be an integer >= 1"),
    ((2, 1, Fraction(0), (2, 1), (1, 0)), ValueError, "eps must lie in (0, 1]"),
    ((2, 1, Fraction(2), (2, 1), (1, 0)), ValueError, "eps must lie in (0, 1]"),
    ((2, 1, 0.5, (2, 1), (1, 0)), TypeError, "floating point is not allowed; use Fraction"),
    ((2, 1, Fraction(1, 2), (2, 4), (1, 0)), ValueError, "n must be primitive"),
    ((2, 1, Fraction(1, 2), (-1, 2), (1, 0)), ValueError, "n must have positive first coordinate"),
    ((2, 1, Fraction(1, 2), (0, 1), (1, 0)), ValueError, "n must have positive first coordinate"),
    ((3, 1, Fraction(1, 2), (2, 1), (1, 0, 0)), ValueError, "vector dimension does not match d"),
    ((2, 1, Fraction(1, 2), (), (1, 0)), ValueError, "lattice vectors must have dimension >= 1"),
    ((2, 1, Fraction(1, 2), (2.0, 1), (1, 0)), TypeError, "lattice vector entries must be ints, got 2.0"),
    ((2, 1, Fraction(1, 2), (3, 1), (2, 4)), ValueError, "l must be primitive"),
    ((2, 1, Fraction(1, 2), (3, 1), (0, 1)), ValueError, "l must have positive first coordinate"),
    ((2, 1, Fraction(1, 2), (3, 1), (-1, 1)), ValueError, "l must have positive first coordinate"),
    ((2, 1, Fraction(1, 2), (3, 1), (3, 1)), ValueError, "T and D must be distinct toric prime divisors"),
    ((2, 1, Fraction(1, 2), (3, 1), (1, 0, 0)), ValueError, "vector dimension does not match d"),
    ((3, 1, Fraction(1, 2), (3, 1, 1), (1, 0)), ValueError, "vector dimension does not match d"),
    ((2, 1, Fraction(1, 2), (3, 1), ()), ValueError, "lattice vectors must have dimension >= 1"),
    ((2, 1, Fraction(1, 2), (3, 1), (1.0, 0)), TypeError, "lattice vector entries must be ints, got 1.0"),
    ((2, 1, Fraction(1, 2), (2, 4), (2, 4)), ValueError, "n must be primitive"),
    ((3, 1, Fraction(1, 2), (2, 1), (2, 4)), ValueError, "vector dimension does not match d"),
    ((2, 1, Fraction(1, 2), (3, 1), (2, 4, 6)), ValueError, "vector dimension does not match d"),
]


@pytest.mark.parametrize("args,kind,message", CERTIFY_ERRORS)
def test_certify_input_errors(args, kind, message):
    with pytest.raises(Exception) as raised:
        certify(*args)
    assert type(raised.value) is kind
    assert str(raised.value) == message


class TestSingularStratum:
    """The checks that run on the models Y, W and U, which ``certify`` no
    longer builds, on a slice of the singular instances it certifies."""

    @pytest.mark.parametrize("n,l", SINGULAR_SLICE)
    def test_models_and_identities(self, n, l):
        d, r, eps = WORKLOADS.CERTIFY_D, WORKLOADS.CERTIFY_R, WORKLOADS.CERTIFY_EPS
        y = model_Y(model_V(d, n), l, r, eps)
        data = y.data
        assert data == fan_decomposition(d, n, l)
        assert verify_extraction_identities(y).all_pass
        c = log_canonical_class_split(y, r, eps)
        assert c == (eps - data.a - (r - 1) * data.alpha_sum) * Fraction(n[0], l[0])
        _, u = model_W_U(d, l, n)
        assert u.fan.rays == y.model.fan.rays

    def test_each_model_is_built_once(self, monkeypatch):
        # Y and U are one star subdivision each; the checks on Y read the
        # one model_Y made, and W is the cache entry of model_V(d, l)
        d, r, eps = WORKLOADS.CERTIFY_D, WORKLOADS.CERTIFY_R, WORKLOADS.CERTIFY_EPS
        n, l = SINGULAR_SLICE[0]
        calls = []

        def counted(coarse, ray):
            calls.append(ray)
            return fan.star_subdivide(coarse, ray)

        monkeypatch.setattr(divisors, "star_subdivide", counted)
        y = model_Y(model_V(d, n), l, r, eps)
        assert verify_extraction_identities(y).all_pass
        log_canonical_class_split(y, r, eps)
        w, _ = model_W_U(d, l, n)
        assert calls == [l, n]
        assert w is model_V(d, l)

    def test_models_need_no_pair_of_cones(self, monkeypatch):
        # every fan V, Y, W and U is accepted wall by wall; the fans are
        # built again, as model_V may hand back a cached one
        d, r, eps = WORKLOADS.CERTIFY_D, WORKLOADS.CERTIFY_R, WORKLOADS.CERTIFY_EPS

        def refuse(c1, c2):
            raise AssertionError(f"the pairwise loop ran on {c1.rays} and {c2.rays}")

        monkeypatch.setattr(fan, "_meet_in_common_face", refuse)
        for n, l in SINGULAR_SLICE:
            w, u = model_W_U(d, l, n)
            y = model_Y(model_V(d, n), l, r, eps)
            for model in (model_V(d, n), y.model, w, u):
                rebuilt = fan.Fan(d, model.fan.maximal_cones)
                assert rebuilt == model.fan

    def test_model_boxes_match_smith_normal_form(self):
        # every maximal cone of V, Y, W and U enumerates its box from its
        # inverse exactly as the Smith normal form does
        d, r, eps = WORKLOADS.CERTIFY_D, WORKLOADS.CERTIFY_R, WORKLOADS.CERTIFY_EPS
        sizes = set()
        for n, l in SINGULAR_SLICE:
            w, u = model_W_U(d, l, n)
            y = model_Y(model_V(d, n), l, r, eps)
            for model in (model_V(d, n), y.model, w, u):
                for cone in model.fan.maximal_cones:
                    size, points = cone.box_points()
                    as_fractions = sorted(
                        (pt, tuple(Fraction(n, size) for n in nums)) for pt, nums in points
                    )
                    assert as_fractions == parallelepiped_points(cone.rays)
                    sizes.add(len(points))
        assert max(sizes) > 100


class TestExplicitBounds:
    def test_chain_family_below_threshold(self):
        # a = 2/n < eps/(3dr) needs n > 12 r / eps
        eps = Fraction(1, 2)
        for r in (1, 2, 3):
            n = 24 * r + 1
            report = certify(2, r, eps, (n, 1), (1, 0))
            assert report.a < report.eps_prime
            assert verify_explicit_bounds(report)
            assert report.fires

    def test_r_one_reduces_to_positivity(self):
        report = certify(2, 1, Fraction(1, 2), (25, 1), (1, 0))
        assert report.bounds is not None
        assert report.bounds.margin_strict == (Fraction(1, 2) - report.a > 0)
        assert verify_explicit_bounds(report)

    def test_precondition_enforced(self):
        report = certify(2, 1, Fraction(1, 2), (4, 1), (1, 0))
        assert report.a >= report.eps_prime
        with pytest.raises(ValueError, match="below eps_prime"):
            verify_explicit_bounds(report)

    def test_implication_on_singular_families(self):
        # families engineered so a < eps_prime genuinely holds
        cases = []
        for big in (49, 50, 73, 96):
            cases.append((2, (big, 1), (1, 0)))
        for big in (55, 81, 100):
            cases.append((3, (big, 1, 1), (1, 0, 0)))
        for big in (61, 90):
            cases.append((4, (big, 1, 1, 1), (1, 0, 0, 0)))
        hit = 0
        for d, n, l in cases:
            for r in (1, 2, 3):
                for eps in (Fraction(1, 3), Fraction(1, 2), Fraction(1)):
                    report = certify(d, r, eps, n, l)
                    if report.a >= report.eps_prime:
                        continue
                    hit += 1
                    assert verify_explicit_bounds(report)
                    assert report.fires
        assert hit > 20  # the probe must not be vacuous


class TestPrimitiveFamily:
    def test_bound_one(self):
        assert list(primitive_family(2, 1)) == [(1, -1), (1, 0), (1, 1)]

    def test_all_primitive_and_ordered(self):
        family = list(primitive_family(3, 3))
        assert all(is_primitive(n) and n[0] >= 1 for n in family)
        assert family == sorted(family)
        assert len(family) == len(set(family))

    @pytest.mark.parametrize("d,bound", [(2, 1), (2, 9), (3, 5), (4, 3)])
    def test_equals_a_sorted_filter(self, d, bound):
        # 0 < n_1 <= bound, so a common divisor m > 1 would be at most bound
        expected = sorted(
            n
            for n in itertools.product(range(-bound, bound + 1), repeat=d)
            if n[0] > 0 and not any(all(x % m == 0 for x in n) for m in range(2, bound + 1))
        )
        assert list(primitive_family(d, bound)) == expected


class TestScan:
    def test_bound_one_is_smooth_only(self):
        summary = scan(2, 1, Fraction(1, 2), 1, jobs=1)
        assert summary.total == 3
        assert summary.epsilon_lc == 3
        assert summary.singular == 0
        assert summary.failures == ()

    def test_d2_zero_failures(self):
        summary = scan(2, 1, Fraction(1, 2), 20, jobs=1)
        assert summary.singular == summary.fired
        assert summary.failures == ()

    def test_d2_singular_instances_fire(self):
        # bound 26 puts the chain-family tail below the threshold
        summary = scan(2, 1, Fraction(1, 2), 26, jobs=1)
        assert summary.singular > 0
        assert summary.fired == summary.singular
        assert summary.failures == ()

    def test_d3_zero_failures(self):
        summary = scan(3, 2, Fraction(1, 3), 8, jobs=1)
        assert summary.failures == ()
        assert summary.total == summary.epsilon_lc + summary.singular

    def test_d3_singular_instances_certified(self):
        # (N,1,1) has mld 2/N, below eps' = 1/54 from N = 109 on
        eps = Fraction(1, 3)
        eps_p = epsilon_prime(3, 2, eps)
        for n in [(109, 1, 1), (110, 1, 1), (150, 1, 1)]:
            _, is_lc, report = scan_instance(3, 2, eps, eps_p, n)
            assert not is_lc
            assert report.a == Fraction(2, n[0])
            assert report.fires
            assert verify_explicit_bounds(report)
        assert scan_instance(3, 2, eps, eps_p, (113, 2, 1)) == ((113, 2, 1), True, None)

    def test_d3_singular_sweep(self):
        # every primitive n with 109 <= n_1 <= 150 and |n_2|, |n_3| <= 1,
        # classified as scan classifies it and checked against the full mld
        d, r, eps = 3, 2, Fraction(1, 3)
        eps_p = epsilon_prime(d, r, eps)
        family = [
            n
            for n in itertools.product(range(109, 151), (-1, 0, 1), (-1, 0, 1))
            if is_primitive(n)
        ]
        results = [scan_instance(d, r, eps, eps_p, n) for n in family]
        reports = [report for _, is_lc, report in results if not is_lc]
        assert (len(results), len(reports)) == (336, 126)
        assert all(report.fires and verify_explicit_bounds(report) for report in reports)
        for n, is_lc, report in results:
            value, minimizer = model_V_mld(d, n)
            assert is_lc == (value >= eps_p)
            assert is_lc or (report.n, report.a, report.l) == (n, value, minimizer)

    def test_parallel_matches_serial(self):
        serial = scan(2, 1, Fraction(1, 2), 26, jobs=1)
        parallel = scan(2, 1, Fraction(1, 2), 26, jobs=2)
        assert serial == parallel

    def test_bound_validation(self):
        with pytest.raises(ValueError):
            scan(2, 1, Fraction(1, 2), 0)

    @pytest.mark.parametrize("jobs", [0, -1, True, False, 1.0, 2.5, "2", None])
    def test_jobs_validation(self, monkeypatch, jobs):
        # bound 1 has no task, so even an accepted jobs would start no pool
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
        monkeypatch.setattr(_RecordingPool, "started", [])
        with pytest.raises(ValueError, match="jobs must be an integer >= 1"):
            scan(2, 1, Fraction(1, 2), 1, jobs=jobs)
        assert _RecordingPool.started == []


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records its worker count and maps
    in this process, starting none."""

    started: list = []

    def __init__(self, max_workers):
        _RecordingPool.started.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, chunksize=1):
        return map(fn, items)


class TestScanWorkers:
    @pytest.mark.parametrize(
        "cpus,jobs,bound,started",
        [
            # at eps' = 1/12 the tasks are the n_1 from 25 on, which can
            # hold a singular class
            (3, 64, 40, [3]),  # capped by the usable CPUs
            (64, 5, 40, [5]),  # by --jobs
            (64, 1000, 26, [2]),  # by the 2 tasks, n_1 = 25 and 26
            (1, 8, 40, []),  # one worker runs in this process
            (64, 3, 25, []),  # one task as well
            (64, 3, 24, []),  # no task
        ],
    )
    def test_worker_count_is_bounded(self, monkeypatch, cpus, jobs, bound, started):
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
        monkeypatch.setattr(criterion.os, "sched_getaffinity", lambda pid: set(range(cpus)))
        monkeypatch.setattr(_RecordingPool, "started", [])
        summary = scan(2, 1, Fraction(1, 2), bound, jobs=jobs)
        assert _RecordingPool.started == started
        assert summary == scan(2, 1, Fraction(1, 2), bound, jobs=1)
        assert _RecordingPool.started == started

    def test_default_starts_no_pool(self, monkeypatch):
        # the default jobs is 1, however many CPUs there are
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
        monkeypatch.setattr(criterion.os, "sched_getaffinity", lambda pid: set(range(64)))
        monkeypatch.setattr(_RecordingPool, "started", [])
        summary = scan(2, 1, Fraction(1, 2), 40)
        assert _RecordingPool.started == []
        assert summary == scan(2, 1, Fraction(1, 2), 40, jobs=1)

    def test_no_pool_without_a_singular_n1(self, monkeypatch):
        # every n_1 of scan(3, 2, 1/3, 40) is below 2/eps' = 108, so the
        # sweep has no task
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
        monkeypatch.setattr(_RecordingPool, "started", [])
        summary = scan(3, 2, Fraction(1, 3), 40, jobs=2)
        assert _RecordingPool.started == []
        assert (summary.total, summary.epsilon_lc, summary.singular) == (217497, 217497, 0)


# (d, r, eps, bound): (2, 1, 1/2) at every bound to 40 and at 70, and one
# family each for d = 2..4; (3, 1, 1, 24) has 151 singular instances
ORACLE_FAMILIES = (
    [(2, 1, Fraction(1, 2), bound) for bound in range(1, 41)]
    + [
        (2, 1, Fraction(1, 2), 70),
        (2, 2, Fraction(1, 3), 60),
        (3, 2, Fraction(1, 3), 8),
        (3, 1, Fraction(1), 24),
        (4, 1, Fraction(1), 6),
    ]
)


@functools.lru_cache(maxsize=None)
def cached_box_scan(d, r, eps, bound):
    return box_scan(d, r, eps, bound)


# (d, r, eps, bound) beyond the reach of box_scan: (3, 1, 1, 40) has 1,632
# singular instances, (2, 1, 1/2, 150) 8,292 and (4, 1, 1, 25) 62, all with
# n_1 = 25, the first singular n_1 at d = 4
CLASS_FAMILIES = [(3, 1, Fraction(1), 40), (2, 1, Fraction(1, 2), 150), (4, 1, Fraction(1), 25)]


@functools.lru_cache(maxsize=None)
def cached_class_scan(d, r, eps, bound):
    return class_scan(d, r, eps, bound)


class TestScanByResidueClass:
    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("d,r,eps,bound", ORACLE_FAMILIES)
    def test_equals_the_box_scan(self, d, r, eps, bound, jobs):
        assert scan(d, r, eps, bound, jobs=jobs) == cached_box_scan(d, r, eps, bound)

    def test_no_singular_class_is_certified(self, monkeypatch):
        # scan(2, 1, 1/2, 40) has 112 singular instances in 40 classes; the
        # singular classes are enumerated, so no class is certified and no
        # mld is computed
        calls = []
        for original in (criterion.certify, models.model_V_mld):

            def counting(*args, original=original):
                calls.append(original.__name__)
                return original(*args)

            rebind_everywhere(monkeypatch, original, counting)
        summary = scan(2, 1, Fraction(1, 2), 40, jobs=1)
        assert (summary.singular, summary.fired) == (112, 112)
        assert (calls.count("certify"), len(calls) - calls.count("certify")) == (0, 0)

    def test_oracle_families_reach_the_singular_stratum(self):
        summary = cached_box_scan(3, 1, Fraction(1), 24)
        assert (summary.singular, summary.fired) == (151, 151)

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("d,r,eps,bound", CLASS_FAMILIES)
    def test_equals_the_class_scan(self, d, r, eps, bound, jobs):
        assert scan(d, r, eps, bound, jobs=jobs) == cached_class_scan(d, r, eps, bound)

    def test_class_families_reach_the_singular_stratum(self):
        assert [cached_class_scan(*family).singular for family in CLASS_FAMILIES] == [1632, 8292, 62]

    @given(st.integers(2, 5), st.integers(1, 30))
    @example(2, 4)
    @example(3, 8)
    @example(4, 9)
    @example(5, 12)
    @settings(max_examples=60, deadline=None)
    def test_moebius_total_is_the_brute_count(self, d, bound):
        # the primitive n of the box, counted for each n_1 coordinate by
        # coordinate by the gcd of n_1 and the coordinates so far; the
        # examples reach the squareful e = 4, 8, 9 and 12
        expected = 0
        for n1 in range(1, bound + 1):
            counts = {n1: 1}
            for _ in range(d - 1):
                step = {}
                for g, c in counts.items():
                    for x in range(-bound, bound + 1):
                        h = math.gcd(g, x)
                        step[h] = step.get(h, 0) + c
                counts = step
            expected += counts.get(1, 0)
        assert scan(d, 1, 1, bound, jobs=1).total == expected

    def test_set_up_once_and_solve_only_the_n1_above_2_over_eps_prime(self, monkeypatch):
        solved, built = [], []

        def counting_solve(n1, cap, psis, ws):
            solved.append(n1)
            return models.classes_below(n1, cap, psis, ws)

        def counting_table(d, cap):
            built.append(cap)
            return models.short_vectors(d, cap)

        monkeypatch.setattr(criterion, "classes_below", counting_solve)
        monkeypatch.setattr(criterion, "short_vectors", counting_table)
        # eps' = 1/12: C = ceil(n_1/12) is 2 up to n_1 = 24 and 4 at 40
        assert scan(2, 1, Fraction(1, 2), 40, jobs=1).singular == 112
        assert (sorted(solved), built) == (list(range(25, 41)), [4])
        solved.clear()
        assert scan(2, 1, Fraction(1, 2), 24, jobs=1).singular == 0
        assert solved == []

    @pytest.mark.parametrize("bound", [1, 2, 7, 40])
    def test_lift_range_is_the_filtered_box(self, bound, monkeypatch):
        # _scan_n1's floor-division count of the lifts of one class equals
        # the filtered box and the oracle's range, and multiplies over the
        # coordinates
        solved = []
        monkeypatch.setattr(criterion, "classes_below", lambda n1, cap, psis, ws: solved)
        box = range(-bound, bound + 1)
        for n1 in sorted({1, (bound + 1) // 2, bound}):
            for rho in range(n1):
                lifts = [x for x in box if x % n1 == rho]
                assert list(_lift_range(rho, n1, bound)) == lifts
                solved[:] = [(rho,)]
                assert _scan_n1((n1, 0, bound, [], [])) == len(lifts) == len(_lift_range(rho, n1, bound))
                solved[:] = [(rho, rho)]
                assert _scan_n1((n1, 0, bound, [], [])) == len(lifts) ** 2

    @staticmethod
    def _lift_pair(rng):
        d = rng.choice((2, 3, 4))
        n = random_vertical(rng, d, 300)
        t = [rng.randint(-4, 4) for _ in range(d - 1)]
        lift = (n[0],) + tuple(x + n[0] * ti for x, ti in zip(n[1:], t))
        return d, n, lift

    @given(st.integers(0, 10 ** 6), st.integers(1, 4), st.integers(1, 12), st.integers(1, 12))
    @settings(max_examples=150, deadline=None)
    def test_lemma_lifts_share_the_class_verdict(self, seed, r, p, q):
        # thr in (0, 1], where the rays never compete; the box-loop oracle
        # decides the verdict
        rng = random.Random(seed)
        d, n, lift = self._lift_pair(rng)
        thr_q = rng.randint(1, 2 * n[0])
        thr = Fraction(rng.randint(1, thr_q), thr_q)
        below, lifted = box_mld_below(d, n, thr), box_mld_below(d, lift, thr)
        assert (below is None) == (lifted is None)
        if below is None:
            return
        assert below[0] == lifted[0]
        # the minimizer is vertical and moves by k (0, t), which the direct
        # enumeration of singular classes (ROADMAP item 4) builds on
        (k, *m), n1 = below[1], n[0]
        assert k > 0
        assert lifted[1] == (k,) + tuple(mi + k * ((y - x) // n1) for mi, x, y in zip(m, n[1:], lift[1:]))
        # and the certificate keeps its verdict
        eps = Fraction(min(p, q), max(p, q))
        reports = certify(d, r, eps, n, below[1]), certify(d, r, eps, lift, lifted[1])
        verdicts = [(rep.fires, rep.lhs, rep.rhs, rep.bounds) for rep in reports]
        assert verdicts[0] == verdicts[1]

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=60, deadline=None)
    def test_lemma_holds_above_one(self, seed):
        # above 1 the rays compete, with numerator n_1 on every lift, and
        # the verdict at any thr > 1 reads the whole mld
        d, n, lift = self._lift_pair(random.Random(seed))
        assert model_V_mld(d, n)[0] == model_V_mld(d, lift)[0]
