import itertools
import math
import random
import re
from fractions import Fraction

import oracles
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from oracles import (
    box_mld_below,
    brute_force_mld,
    fan_decomposition,
    primitive_family,
    support_contains,
)

from toricfib import models
from toricfib.criterion import certify, epsilon_prime, scan
from toricfib.divisors import log_discrepancy, toric_mld, zero_divisor
from toricfib.exactmath import InvariantViolation, is_primitive, parallelepiped_points, primitive
from toricfib.fan import Cone, multiplicity, smallest_containing_cone, standard_fibration_fan, star_subdivide
from toricfib.models import (
    decompose,
    horizontal_rays,
    log_canonical_class_split,
    model_V,
    model_V_mld,
    model_W_U,
    model_Y,
    short_vectors,
    singular_classes,
    verify_extraction_identities,
)


def random_instance(rng, d=None, bound=12):
    """A valid (d, n, l) triple: both primitive, vertical, distinct."""
    d = d or rng.choice((2, 3, 4))
    while True:
        n = tuple([rng.randint(1, bound)] + [rng.randint(-bound, bound) for _ in range(d - 1)])
        l = tuple([rng.randint(1, bound)] + [rng.randint(-bound, bound) for _ in range(d - 1)])
        if is_primitive(n) and is_primitive(l) and n != l:
            return d, n, l


class TestModelV:
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_identity_model_is_standard_fan(self, d):
        assert model_V(d, (1,) + (0,) * (d - 1)).fan == standard_fibration_fan(d)

    @pytest.mark.parametrize("n", [2, 4, 9])
    def test_skew_family(self, n):
        model = model_V(2, (n, 1))
        assert model.distinguished_ray == (n, 1)
        assert model.fan.rays == ((0, -1), (0, 1), (n, 1))
        assert len(model.fan.maximal_cones) == 2

    def test_dimension_three(self):
        model = model_V(3, (2, 1, 1))
        assert len(model.fan.maximal_cones) == 3
        assert all(multiplicity(c) == 2 for c in model.fan.maximal_cones)
        rng = random.Random(1)
        for _ in range(60):
            point = tuple(rng.randint(-6, 6) for _ in range(3))
            assert support_contains(model.fan, point) == (point[0] >= 0)

    def test_rejects_bad_vectors(self):
        with pytest.raises(ValueError, match="primitive"):
            model_V(2, (2, 4))
        # the zero vector fails primitivity before its first coordinate
        with pytest.raises(ValueError, match="^n must be primitive$"):
            model_V(3, (0, 0, 0))
        with pytest.raises(ValueError, match="positive first"):
            model_V(2, (0, 1))
        with pytest.raises(ValueError, match="positive first"):
            model_V(2, (-1, 2))


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_horizontal_rays_are_built_once_per_dimension(d):
    first = horizontal_rays(d)
    assert horizontal_rays(d) is first
    # e_2, ..., e_d, then c = -(e_2 + ... + e_d)
    expected = [tuple(int(i == j) for i in range(d)) for j in range(1, d)] + [(0,) + (-1,) * (d - 1)]
    assert list(first) == expected
    assert isinstance(first, tuple)


def general_mld(d, n):
    """The oracle: toric_mld on the fan model_V builds."""
    fan = model_V(d, n).fan
    return toric_mld(fan, zero_divisor(fan))


class TestModelVMld:
    def test_d2_bound_40_family(self):
        for n in primitive_family(2, 40):
            assert model_V_mld(2, n) == general_mld(2, n)

    def test_d3_bound_4_family(self):
        for n in primitive_family(3, 4):
            assert model_V_mld(3, n) == general_mld(3, n)

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=100, deadline=None)
    def test_matches_toric_mld(self, seed):
        rng = random.Random(seed)
        d = rng.choice((2, 3, 4))
        top = 40 if d == 4 else 150
        while True:
            n = (rng.randint(1, top),) + tuple(rng.randint(-top, top) for _ in range(d - 1))
            if is_primitive(n):
                break
        value, minimizer = model_V_mld(d, n)
        expected_value, expected_minimizer = general_mld(d, n)
        assert value == expected_value
        assert minimizer == expected_minimizer
        assert value >= Fraction(1, n[0])

    @given(st.integers(1, 8), st.integers(-8, 8), st.integers(-8, 8))
    @settings(max_examples=25, deadline=None)
    def test_d3_matches_the_brute_force(self, n1, n2, n3):
        n = (n1, n2, n3)
        assume(is_primitive(n))
        fan = model_V(3, n).fan
        assert model_V_mld(3, n) == toric_mld(fan, zero_divisor(fan)) == brute_force_mld(fan, zero_divisor(fan))

    @pytest.mark.parametrize("n", [(1, 0, 0), (5, 2, -3), (12, 7, 1), (6, -1, 4, 9)])
    def test_one_box_point_per_cone_and_slice(self, n):
        for cone in model_V(len(n), n).fan.maximal_cones:
            slices = sorted(point[0] for point, _ in parallelepiped_points(cone.rays))
            assert slices == list(range(n[0]))

    @pytest.mark.parametrize(
        "d,n",
        [
            (1, (1,)),
            (2, (1, 0, 0)),
            (2, (2, 4)),
            (3, (0, 0, 0)),
            (2, (0, 1)),
            (2, (-1, 2)),
            (2, (1.0, 0)),
        ],
    )
    def test_rejects_what_model_V_rejects(self, d, n):
        with pytest.raises((ValueError, TypeError)) as expected:
            model_V(d, n)
        with pytest.raises(expected.type, match=f"^{re.escape(str(expected.value))}$"):
            model_V_mld(d, n)
        with pytest.raises(expected.type, match=f"^{re.escape(str(expected.value))}$"):
            box_mld_below(d, n, Fraction(1, 2))

    def test_corrupted_coordinates_trip_the_division_check(self, monkeypatch):
        candidates = models._slice_candidates

        def corrupted(vec, k):
            *rest, (num, w) = candidates(vec, k)
            return rest + [(num, (w[0] + 1,) + w[1:])]

        # the last candidate of slice 1 is the minimizer (1, 0) or (1, 0, 0)
        monkeypatch.setattr(models, "_slice_candidates", corrupted)
        for d, n in [(2, (5, 1)), (3, (109, 1, 1))]:
            with pytest.raises(InvariantViolation, match="^a V-model box point is not a lattice point$"):
                model_V_mld(d, n)

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=60, deadline=None)
    def test_slice_candidates_are_the_box_points_of_the_slice(self, seed):
        # the claim of model_V_mld: the candidates of slice k, as points with
        # their values, are the box points with first coordinate k over the
        # d maximal cones of V_n, with their coefficient sums
        rng = random.Random(seed)
        d = rng.choice((2, 3, 4))
        n = random_vertical(rng, d, {2: 60, 3: 20, 4: 9}[d])
        n1 = n[0]
        boxes = [{} for _ in range(n1)]
        for cone in model_V(d, n).fan.maximal_cones:
            size, points = cone.box_points()
            for point, nums in points:
                boxes[point[0]][point] = Fraction(sum(nums), size)
        for k in range(n1):
            slice_k = {}
            for num, w in models._slice_candidates(n, k):
                assert all((k * ni + wi) % n1 == 0 for ni, wi in zip(n[1:], w))
                point = (k,) + tuple((k * ni + wi) // n1 for ni, wi in zip(n[1:], w))
                slice_k[point] = Fraction(num, n1)
            assert slice_k == boxes[k]

    @given(st.integers(1, 10 ** 5), st.integers(-(10 ** 5), 10 ** 5))
    @example(99991, 31622)
    @example(1, 0)
    @settings(max_examples=80, deadline=None)
    def test_d2_matches_the_box_loop(self, n1, n2):
        # n_1 up to 10^5; any thr > 1 lets the rays compete, so the oracle
        # returns the whole mld
        assume(math.gcd(n1, n2) == 1)
        assert model_V_mld(2, (n1, n2)) == box_mld_below(2, (n1, n2), 2)


def full_below(d, n, thr):
    """model_V_mld, kept when its value is below thr."""
    full = model_V_mld(d, n)
    return full if full[0] < thr else None


class TestModelVMldBelow:
    """The threshold cap of the box-loop oracle ``box_mld_below`` against
    ``model_V_mld`` filtered by the threshold."""

    # 1/54 is the eps' of scan-d3 and 1/12 that of scan-d2; 2 > 1 lets the rays compete
    @pytest.mark.parametrize("d,bound", [(2, 40), (3, 8), (4, 3)])
    def test_agrees_on_the_scan_families(self, d, bound):
        thresholds = [Fraction(1, 54), Fraction(1, 12), Fraction(1, 5), Fraction(2)]
        for n in primitive_family(d, bound):
            for thr in thresholds:
                assert box_mld_below(d, n, thr) == full_below(d, n, thr)

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=200, deadline=None)
    def test_agrees_at_random_thresholds(self, seed):
        rng = random.Random(seed)
        d = rng.choice((2, 3, 4))
        n = random_vertical(rng, d, 300)
        q = rng.randint(1, 2 * n[0])
        value = model_V_mld(d, n)[0]
        # a random thr in (0, 2], the value itself and a rational just above it
        for thr in (Fraction(rng.randint(1, 2 * q), q), value, value + Fraction(1, 10 ** 6)):
            assert box_mld_below(d, n, thr) == full_below(d, n, thr)

    def test_skew_family_at_its_value(self):
        # (N, 1) has mld 2/N at (1, 0), found in slice 1
        assert box_mld_below(2, (9, 1), Fraction(2, 9)) is None
        assert box_mld_below(2, (9, 1), Fraction(3, 13)) == (Fraction(2, 9), (1, 0))
        assert box_mld_below(2, (9, 1), 1) == (Fraction(2, 9), (1, 0))
        assert box_mld_below(2, (1, 0), 2) == (Fraction(1), (0, -1))
        assert box_mld_below(2, (1, 0), 1) is None

    def test_no_slice_below_builds_no_cone(self, monkeypatch):
        def unused(vec, horizontal):
            raise AssertionError("a slice was visited")

        monkeypatch.setattr(oracles, "_v_cones", unused)
        assert box_mld_below(3, (8, 1, -1), Fraction(1, 54)) is None
        assert box_mld_below(3, (54, 1, -1), Fraction(1, 54)) is None
        assert box_mld_below(2, (7, 3), 0) is None

    def test_float_threshold_rejected(self):
        with pytest.raises(TypeError, match="floating point"):
            box_mld_below(2, (5, 1), 0.5)


def classified_classes(d, n1, thr):
    """The oracle: every primitive class of n1 classified by the box loop."""
    return {
        rho
        for rho in itertools.product(range(n1), repeat=d - 1)
        if math.gcd(n1, *rho) == 1 and box_mld_below(d, (n1,) + rho, thr) is not None
    }


class TestSingularClasses:
    @given(st.integers(0, 10 ** 6), st.integers(1, 12), st.integers(1, 12))
    @settings(max_examples=60, deadline=None)
    def test_equals_the_classified_classes(self, seed, p, q):
        # thr = p/q in (0, 1], where the lemma of singular_classes holds
        rng = random.Random(seed)
        d = rng.choice((2, 3, 4))
        n1 = rng.randint(1, {2: 150, 3: 24, 4: 10}[d])
        thr = Fraction(min(p, q), max(p, q))
        assert singular_classes(d, n1, thr) == classified_classes(d, n1, thr)

    @pytest.mark.parametrize("d,n1,thr", [(2, 25, Fraction(1, 12)), (3, 109, Fraction(1, 54))])
    def test_equals_the_classified_classes_at_the_first_singular_n1(self, d, n1, thr):
        # n_1 = floor(2/thr) + 1, the first n_1 with a singular class; d = 4
        # at n_1 = 25 is in the class-oracle families of test_criterion
        classes = singular_classes(d, n1, thr)
        assert classes and classes == classified_classes(d, n1, thr)
        assert not singular_classes(d, n1 - 1, thr)

    @pytest.mark.parametrize("d,cap_max", [(2, 40), (3, 14), (4, 7)])
    def test_table_prefixes_are_the_sorted_balls_of_each_cap(self, d, cap_max):
        # each cap <= cap_max reads, for slice k, the w with psi(w) < cap - k
        # of its own box [2 - cap, cap - 2]^(d-1), sorted by (psi, w)
        psis, ws = short_vectors(d, cap_max)
        assert psis == [sum(w) + d * max(0, -min(w)) for w in ws]
        assert all(psi <= cap_max - 2 for psi in psis)
        assert len(ws) < (2 * cap_max - 3) ** (d - 1)
        for cap in range(1, cap_max + 1):
            box = itertools.product(range(2 - cap, cap - 1), repeat=d - 1)
            ball = sorted((sum(w) + d * max(0, -min(w)), w) for w in box if any(w))
            for k in range(1, cap - 1):
                prefix = ws[: sum(psi < cap - k for psi in psis)]
                assert prefix == [w for psi, w in ball if psi < cap - k]

    @pytest.mark.parametrize("d", [1, True, 0])
    def test_d_below_two_rejected(self, d):
        with pytest.raises(ValueError, match="d must be an integer >= 2"):
            singular_classes(d, 30, Fraction(1, 2))

    @pytest.mark.parametrize("n1", [0, -5, True])
    def test_n1_not_positive_rejected(self, n1):
        with pytest.raises(ValueError, match="n1 must be an integer >= 1"):
            singular_classes(2, n1, Fraction(1, 2))

    @pytest.mark.parametrize("d", [2, 3])
    def test_class_solutions_are_the_brute_force_solutions(self, d):
        # every rho in [0, n1)^(d-1) grouped by k rho mod n1, so that each
        # w reads the rho with k rho = -w (mod n1); both the g = 1 and the
        # g > 1 branch run
        ws = list(itertools.product(range(-5, 6), repeat=d - 1))
        for n1 in range(1, 13):
            for k in range(1, n1):
                by_image = {}
                for rho in itertools.product(range(n1), repeat=d - 1):
                    by_image.setdefault(tuple(k * x % n1 for x in rho), []).append(rho)
                expected = [(w, rho) for w in ws for rho in by_image.get(tuple(-x % n1 for x in w), [])]
                assert sorted(models._class_solutions(k, ws, n1)) == sorted(expected)

    @pytest.mark.parametrize("thr", [0, Fraction(-1, 2), Fraction(3, 2), 2])
    def test_threshold_outside_the_lemma_rejected(self, thr):
        with pytest.raises(ValueError, match="thr must lie in"):
            singular_classes(2, 30, thr)

    def test_corrupted_solve_trips_the_congruence_check(self, monkeypatch):
        solve = models._class_solutions

        def corrupted(k, ws, n1):
            return [(w, ((rho[0] + 1) % n1,) + rho[1:]) for w, rho in solve(k, ws, n1)]

        monkeypatch.setattr(models, "_class_solutions", corrupted)
        with pytest.raises(InvariantViolation, match="does not satisfy"):
            singular_classes(3, 109, Fraction(1, 54))
        # n_1 = 25 and 26 have singular classes at eps' = 1/12
        with pytest.raises(InvariantViolation, match="does not satisfy"):
            scan(2, 1, Fraction(1, 2), 26, jobs=1)


class TestModelY:
    def test_skew_family_data(self):
        v = model_V(2, (6, 1))
        y, theta, data, sub = model_Y(v, (1, 0), 3, Fraction(1, 2))
        assert sub.coarse is v.fan and sub.new_ray == (1, 0) and sub.fine is y.fan
        assert y.fan.rays == ((0, -1), (0, 1), (1, 0), (6, 1))
        assert data.gamma == Fraction(1, 6)
        assert dict(data.alphas) == {(0, -1): Fraction(1, 6)}
        assert data.a == Fraction(2, 6)
        # theta = (1 - eps + r/n) D + r S_1 + r S_2
        assert theta.as_dict() == {
            (1, 0): Fraction(1, 2) + Fraction(3, 6),
            (0, 1): 3,
            (0, -1): 3,
        }

    def test_degenerate_parameters(self):
        v = model_V(2, (6, 1))
        _, theta, _, _ = model_Y(v, (1, 0), 1, Fraction(1))
        assert theta.as_dict() == {(1, 0): Fraction(1, 6), (0, 1): 1, (0, -1): 1}

    def test_dimension_three_hand_case(self):
        v = model_V(3, (1, 0, 0))
        data = model_Y(v, (1, 1, 0), 1, Fraction(1, 2)).data
        assert data.gamma == 1
        assert dict(data.alphas) == {(0, 1, 0): 1}
        assert data.a == 2

    def test_proportional_vector_rejected(self):
        v = model_V(2, (3, 1))
        with pytest.raises(ValueError, match="distinct toric prime divisors"):
            model_Y(v, (3, 1), 1, Fraction(1, 2))

    def test_horizontal_vector_rejected(self):
        v = model_V(2, (3, 1))
        with pytest.raises(ValueError, match="positive first"):
            model_Y(v, (0, 1), 1, Fraction(1, 2))

    @pytest.mark.parametrize(
        "r,eps,message",
        [
            (0, Fraction(1, 2), "r must be an integer >= 1"),
            (True, Fraction(1, 2), "r must be an integer >= 1"),
            (0, Fraction(2), "r must be an integer >= 1"),
            (1, Fraction(0), "eps must lie in (0, 1]"),
            (1, Fraction(-1, 3), "eps must lie in (0, 1]"),
            (2, Fraction(3, 2), "eps must lie in (0, 1]"),
        ],
    )
    def test_rejects_r_and_eps_as_epsilon_prime_does(self, r, eps, message):
        for call in (lambda: model_Y(model_V(2, (3, 1)), (1, 0), r, eps), lambda: epsilon_prime(2, r, eps)):
            with pytest.raises(ValueError) as raised:
                call()
            assert str(raised.value) == message

    def test_single_blowup_of_identity_model(self):
        v = model_V(2, (1, 0))
        y = model_Y(v, (1, 1), 1, Fraction(1, 2))
        assert y.model.fan.rays == ((0, -1), (0, 1), (1, 0), (1, 1))
        assert y.data.a == 2  # smooth point blowup


class TestModelWU:
    def test_swapped_chain_instance(self):
        w, u = model_W_U(2, (1, 0), (6, 1))
        assert w.fan == standard_fibration_fan(2)
        assert u.fan.rays == ((0, -1), (0, 1), (1, 0), (6, 1))
        data = decompose(2, (6, 1), (1, 0))
        assert data.gamma == Fraction(1, 6)
        assert dict(data.betas) == {(0, 1): 1}

    def test_lambda_inverts_gamma(self):
        rng = random.Random(4)
        for _ in range(20):
            d, n, l = random_instance(rng)
            data = decompose(d, n, l)
            # fan_decomposition asserts lam gamma = 1, with lam read off W
            assert data == fan_decomposition(d, n, l)
            assert data.gamma == Fraction(l[0], n[0])

    def test_codimension_one_isomorphism(self):
        rng = random.Random(9)
        for _ in range(20):
            d, n, l = random_instance(rng, d=3)
            v = model_V(d, n)
            y = model_Y(v, l, 1, Fraction(1, 2)).model
            _, u = model_W_U(d, l, n)
            assert y.fan.rays == u.fan.rays

    def test_checks_each_vector_once(self, monkeypatch):
        seen = []

        def counted(d, vec, name):
            seen.append((tuple(vec), name))
            return check(d, vec, name)

        check = models._v_vector
        monkeypatch.setattr(models, "_v_vector", counted)
        model_W_U(3, (1, 0, 0), (5, 1, 2))
        assert seen == [((5, 1, 2), "n"), ((1, 0, 0), "l")]

    @pytest.mark.parametrize(
        "d,l,n,message",
        [
            (2, (2, 4), (3, 1), "l must be primitive"),
            (2, (0, 1), (3, 1), "l must have positive first coordinate"),
            (2, (1, 0, 0), (3, 1), "vector dimension does not match d"),
            (2, (1, 0), (2, 4), "n must be primitive"),
            (2, (1, 0), (-1, 1), "n must have positive first coordinate"),
            (2, (1, 0), (1, 0), "T and D must be distinct toric prime divisors"),
            (1, (1,), (2,), "d must be an integer >= 2"),
        ],
    )
    def test_messages_name_the_bad_vector(self, d, l, n, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            model_W_U(d, l, n)


# each public entry point that takes d, with arguments valid at d = 3
D_ENTRY_POINTS = {
    "certify": lambda d: certify(d, 1, Fraction(1, 2), (5, 1, 2), (1, 0, 0)),
    "scan": lambda d: scan(d, 1, Fraction(1, 2), 4),
    "epsilon_prime": lambda d: epsilon_prime(d, 1, Fraction(1, 2)),
    "singular_classes": lambda d: singular_classes(d, 5, Fraction(1, 2)),
    "model_V": lambda d: model_V(d, (5, 1, 2)),
    "model_V_mld": lambda d: model_V_mld(d, (5, 1, 2)),
    "decompose": lambda d: decompose(d, (5, 1, 2), (1, 0, 0)),
    "model_W_U": lambda d: model_W_U(d, (1, 0, 0), (5, 1, 2)),
    "standard_fibration_fan": standard_fibration_fan,
}


@pytest.mark.parametrize("d", [1, 2.0, True, "3", 3.0], ids=repr)
@pytest.mark.parametrize("entry", sorted(D_ENTRY_POINTS))
def test_every_entry_point_rejects_a_d_that_is_not_an_int_at_least_two(entry, d):
    # with model_V(3, ...) cached, an untyped cache would serve d = 3.0 its entry
    model_V(3, (5, 1, 2))
    with pytest.raises(ValueError, match=r"^d must be an integer >= 2$"):
        D_ENTRY_POINTS[entry](d)


def _with(vec, bad):
    """``vec`` with its entry 1 replaced by ``bad``."""
    return tuple(bad if e == 1 else e for e in vec)


N, L, RAY = (5, 1, 2), (1, 0, 0), (0, 0, 1)
FAN = standard_fibration_fan(3)
# each public entry point that takes a vector at d = 3, with that vector's
# entry 1 replaced by ``bad``; the others are valid
VECTOR_ENTRY_POINTS = {
    "certify n": lambda bad: certify(3, 1, Fraction(1, 2), _with(N, bad), L),
    "certify l": lambda bad: certify(3, 1, Fraction(1, 2), N, _with(L, bad)),
    "model_V": lambda bad: model_V(3, _with(N, bad)),
    "model_V_mld": lambda bad: model_V_mld(3, _with(N, bad)),
    "decompose n": lambda bad: decompose(3, _with(N, bad), L),
    "decompose l": lambda bad: decompose(3, N, _with(L, bad)),
    "model_W_U n": lambda bad: model_W_U(3, L, _with(N, bad)),
    "model_W_U l": lambda bad: model_W_U(3, _with(L, bad), N),
    "Cone": lambda bad: Cone(((1, 0, 0), (0, 1, 0), _with(RAY, bad))),
    "star_subdivide": lambda bad: star_subdivide(FAN, _with(N, bad)),
    "log_discrepancy": lambda bad: log_discrepancy(FAN, zero_divisor(FAN), _with(N, bad)),
    "smallest_containing_cone": lambda bad: smallest_containing_cone(FAN, _with(N, bad)),
    "primitive": lambda bad: primitive(_with(N, bad)),
    "is_primitive": lambda bad: is_primitive(_with(N, bad)),
}


@pytest.mark.parametrize("bad", [True, 1.0], ids=repr)
@pytest.mark.parametrize("entry", sorted(VECTOR_ENTRY_POINTS))
def test_every_entry_point_rejects_a_vector_entry_that_is_not_an_int(entry, bad):
    # a bool or float entry hashes like the int it equals, so with
    # model_V(3, N) cached a cache read before the check would serve it
    model_V(3, N)
    with pytest.raises(ValueError, match=f"^lattice vector entries must be ints, got {bad!r}$"):
        VECTOR_ENTRY_POINTS[entry](bad)


def test_model_V_checks_n_before_its_cache():
    message = "^lattice vector entries must be ints, got True$"
    model_V(3, (5, 1, 2))
    with pytest.raises(ValueError, match=message):
        model_V(3, (5, True, 2))
    models._v_model.cache_clear()
    with pytest.raises(ValueError, match=message):
        model_V(3, (5, True, 2))


def test_model_V_cache_info_counts_the_built_models():
    # the benchmark's models.model_V.hit_ratio reads model_V.cache_info()
    models._v_model.cache_clear()
    model_V(3, (7, 2, 3))
    assert model_V(3, (7, 2, 3)) is model_V(3, [7, 2, 3])
    info = model_V.cache_info()
    assert (info.hits, info.misses) == (2, 1)


def random_vertical(rng, d, top):
    while True:
        vec = (rng.randint(1, top),) + tuple(rng.randint(-top, top) for _ in range(d - 1))
        if is_primitive(vec):
            return vec


class TestDecompose:
    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=150, deadline=None)
    def test_matches_the_fan_route(self, seed):
        rng = random.Random(seed)
        d = rng.choice((2, 3, 4))
        n, l = random_vertical(rng, d, 150), random_vertical(rng, d, 150)
        if n == l:
            return
        data = decompose(d, n, l)
        expected = fan_decomposition(d, n, l)
        assert data == expected
        assert repr(data) == repr(expected)

    def test_dimension_three_hand_case(self):
        # g = 5 (1,2,-1) - (5,1,1) = (0, 9, -6): y = 6, so 15 on e_2 and 6 on c
        data = decompose(3, (5, 1, 1), (1, 2, -1))
        assert data.gamma == Fraction(1, 5)
        assert data.alphas == (((0, -1, -1), Fraction(6, 5)), ((0, 1, 0), Fraction(3)))
        assert data.alpha_sum == Fraction(21, 5)
        assert data.a == Fraction(1 + 21, 5)
        # -g = (0, -9, 6): y = 9, so 15 on e_3 and 9 on c, over l_1 = 1
        assert data.betas == (((0, -1, -1), Fraction(9)), ((0, 0, 1), Fraction(15)))

    def test_every_support_misses_a_horizontal_ray(self):
        for n in primitive_family(3, 3):
            for l in primitive_family(3, 2):
                if l != n:
                    data = decompose(3, n, l)
                    assert 0 < len(data.alphas) < 3
                    assert 0 < len(data.betas) < 3

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=100, deadline=None)
    def test_a_is_the_log_discrepancy_on_V(self, seed):
        rng = random.Random(seed)
        d = rng.choice((2, 3, 4))
        n, l = random_vertical(rng, d, 150), random_vertical(rng, d, 150)
        assume(n != l)
        v_fan = model_V(d, n).fan
        assert decompose(d, n, l).a == log_discrepancy(v_fan, zero_divisor(v_fan), l)

    @pytest.mark.parametrize(
        "d,n,l",
        [
            (2, (2, 4), (1, 0)),
            (2, (0, 1), (1, 0)),
            (3, (2, 1), (1, 0, 0)),
            (2, (3, 1), (2, 4)),
            (2, (3, 1), (0, 1)),
            (2, (3, 1), (3, 1)),
            (2, (3, 1), (1, 0, 0)),
            (2, (3, 1), (1.0, 0)),
        ],
    )
    def test_rejects_what_the_models_reject(self, d, n, l):
        with pytest.raises((ValueError, TypeError)) as expected:
            model_Y(model_V(d, n), l, 1, Fraction(1, 2))
        with pytest.raises(expected.type, match=f"^{re.escape(str(expected.value))}$"):
            decompose(d, n, l)


class TestDecompositionData:
    def test_vector_identity(self):
        # gamma*n - l = sum(gamma beta_k f_k) = -sum(alpha_j e_j), exactly
        rng = random.Random(31)
        for _ in range(30):
            d, n, l = random_instance(rng)
            data = decompose(d, n, l)
            gamma = data.gamma
            for i in range(d):
                diff = gamma * n[i] - l[i]
                via_beta = sum(
                    (gamma * c * ray[i] for ray, c in data.betas), Fraction(0)
                )
                via_alpha = -sum((c * ray[i] for ray, c in data.alphas), Fraction(0))
                assert diff == via_beta == via_alpha


class TestExtractionIdentities:
    @pytest.mark.parametrize("n", range(2, 11))
    def test_skew_family(self, n):
        v = model_V(2, (n, 1))
        report = verify_extraction_identities(model_Y(v, (1, 0), 1, Fraction(1, 2)))
        assert report.crepant_exact
        assert report.lc_trivial_witness is not None
        assert report.fiber_trivial_witness is not None
        assert report.all_pass

    def test_dimension_three(self):
        v = model_V(3, (3, 1, 0))
        assert verify_extraction_identities(model_Y(v, (1, 1, 1), 2, Fraction(1, 3))).all_pass

    def test_randomized(self):
        rng = random.Random(13)
        for _ in range(25):
            d, n, l = random_instance(rng)
            v = model_V(d, n)
            y = model_Y(v, l, rng.randint(1, 3), Fraction(1, rng.randint(1, 4)))
            assert verify_extraction_identities(y).all_pass


class TestClassSplit:
    @pytest.mark.parametrize("n,r,eps", [(6, 1, Fraction(1, 2)), (5, 3, Fraction(1, 5))])
    def test_skew_family_closed_form(self, n, r, eps):
        v = model_V(2, (n, 1))
        c = log_canonical_class_split(model_Y(v, (1, 0), r, eps), r, eps)
        assert c == (eps - Fraction(2, n) - Fraction(r - 1, n)) * n

    def test_boundary_case_zero_coefficient(self):
        v = model_V(2, (4, 1))
        # eps = a + u makes the leading coefficient vanish
        eps = model_Y(v, (1, 0), 1, Fraction(1, 2)).data.a
        c = log_canonical_class_split(model_Y(v, (1, 0), 1, eps), 1, eps)
        assert c == 0

    def test_randomized_exact(self):
        rng = random.Random(37)
        for _ in range(30):
            d, n, l = random_instance(rng)
            r = rng.randint(1, 3)
            eps = Fraction(rng.randint(1, 4), 4)
            v = model_V(d, n)
            y = model_Y(v, l, r, eps)
            c = log_canonical_class_split(y, r, eps)
            assert c == (eps - y.data.a - (r - 1) * y.data.alpha_sum) * Fraction(n[0], l[0])

    def test_theta_is_rebuilt_for_the_r_passed_in(self):
        v = model_V(2, (4, 1))
        eps = Fraction(1, 2)
        split = log_canonical_class_split(model_Y(v, (1, 0), 2, eps), 3, eps)
        assert split == log_canonical_class_split(model_Y(v, (1, 0), 3, eps), 3, eps)

