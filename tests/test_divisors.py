import itertools
import json
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricfib import divisors, serialize
from toricfib.divisors import (
    Subdivision,
    ToricDivisor,
    canonical_divisor,
    character_divisor,
    horizontal_sum,
    log_discrepancy,
    pullback,
    ray_divisor,
    rel_lin_equiv,
    support_function,
    toric_mld,
    zero_divisor,
)
from toricfib.exactmath import InvariantViolation, primitive
from toricfib.fan import Cone, Fan, standard_fibration_fan, star_subdivide
from toricfib.models import model_V
from oracles import (
    POOL,
    brute_force_mld,
    fiber_divisor,
    fiber_multiplicity,
    fraction_toric_mld,
    is_epsilon_lc,
    pool_fan_doc,
    random_full_cone,
    support_contains,
)


def skew_model_fan(n: int) -> Fan:
    return Fan(2, (Cone(((n, 1), (0, 1))), Cone(((n, 1), (0, -1)))))


class TestToricDivisor:
    def test_zero_coefficients_dropped(self):
        fan = standard_fibration_fan(2)
        d = ToricDivisor.make(fan, {(1, 0): Fraction(0), (0, 1): 2})
        assert d.entries == (((0, 1), Fraction(2)),)
        assert d.coefficient((1, 0)) == 0

    def test_foreign_ray_rejected(self):
        fan = standard_fibration_fan(2)
        with pytest.raises(ValueError, match="not a ray"):
            ToricDivisor.make(fan, {(2, 1): 1})
        with pytest.raises(ValueError, match="not a ray"):
            zero_divisor(fan).coefficient((5, 5))

    def test_arithmetic(self):
        fan = standard_fibration_fan(2)
        s1 = ray_divisor(fan, (0, 1))
        s2 = ray_divisor(fan, (0, -1))
        combo = 2 * s1 - s2 + s2
        assert combo.as_dict() == {(0, 1): 2}
        assert (s1 - s1).is_zero()

    def test_mixed_fan_arithmetic_rejected(self):
        with pytest.raises(ValueError, match="different fans"):
            zero_divisor(standard_fibration_fan(2)) + zero_divisor(standard_fibration_fan(3))


class TestSupportFunction:
    def test_fiber_divisor_on_standard_fan(self):
        fan = standard_fibration_fan(2)
        sf = support_function(fiber_divisor(fan))
        for cone in fan.maximal_cones:
            assert sf.witness_on(cone) == (-1, 0)

    def test_zero_divisor(self):
        fan = standard_fibration_fan(2)
        sf = support_function(zero_divisor(fan))
        for cone in fan.maximal_cones:
            assert sf.witness_on(cone) == (0, 0)

    def test_horizontal_sum_on_skew_cone(self):
        fan = skew_model_fan(4)
        sf = support_function(horizontal_sum(fan))
        witness = sf.witness_on(Cone(((4, 1), (0, -1))))
        assert witness == (Fraction(-1, 4), 1)
        assert sf.value((1, 0)) == Fraction(-1, 4)

    def test_value_outside_support(self):
        fan = standard_fibration_fan(2)
        with pytest.raises(ValueError, match="support"):
            support_function(zero_divisor(fan)).value((-1, 0))

    def test_corrupted_witness_detected(self, monkeypatch):
        # a fan of fresh cones, so the corruption cannot reach the cones
        # cached by model_V; the canonical divisor is nonzero at every ray,
        # so a corrupted inverse changes the piece
        fan = Fan(3, tuple(Cone(c.rays) for c in model_V(3, (4, 1, -2)).fan.maximal_cones))
        divisor = canonical_divisor(fan)
        support_function(divisor)
        corrupt = fan.maximal_cones[1]
        adj, base = corrupt._inverse
        wrong = [[adj[0][0] + 1] + adj[0][1:]] + adj[1:]
        monkeypatch.setitem(corrupt.__dict__, "_inverse", (wrong, base))
        with pytest.raises(InvariantViolation, match="disagree"):
            support_function(divisor)


class TestLogDiscrepancy:
    @pytest.mark.parametrize("n", range(2, 8))
    def test_skew_model(self, n):
        fan = skew_model_fan(n)
        assert log_discrepancy(fan, zero_divisor(fan), (1, 0)) == Fraction(2, n)

    def test_all_ones_boundary_vanishes(self):
        fan = skew_model_fan(5)
        boundary = ToricDivisor.make(fan, {r: 1 for r in fan.rays})
        rng = random.Random(3)
        for _ in range(25):
            point = (rng.randint(0, 9), rng.randint(-9, 9))
            if point == (0, 0) or not support_contains(fan, point):
                continue
            from toricfib.exactmath import primitive

            assert log_discrepancy(fan, boundary, primitive(point)) == 0

    def test_smooth_interior(self):
        fan = standard_fibration_fan(2)
        assert log_discrepancy(fan, zero_divisor(fan), (1, 1)) == 2

    def test_boundary_above_one_rejected(self):
        fan = standard_fibration_fan(2)
        bad = ToricDivisor.make(fan, {(0, 1): 2})
        with pytest.raises(ValueError, match="<= 1"):
            log_discrepancy(fan, bad, (1, 1))

    def test_linear_within_a_cone(self):
        fan = skew_model_fan(5)
        zero = zero_divisor(fan)
        rng = random.Random(17)
        cone = Cone(((5, 1), (0, -1)))
        from toricfib.exactmath import primitive

        for _ in range(40):
            a = (rng.randint(1, 6), rng.randint(-6, 0))
            b = (rng.randint(1, 6), rng.randint(-6, 0))
            s = (a[0] + b[0], a[1] + b[1])
            if not (cone.contains(a) and cone.contains(b) and cone.contains(s)):
                continue
            pa, pb, ps = primitive(a), primitive(b), primitive(s)
            ga = a[0] // pa[0] if pa[0] else 1
            gb = b[0] // pb[0] if pb[0] else 1
            gs = s[0] // ps[0] if ps[0] else 1
            assert (
                gs * log_discrepancy(fan, zero, ps)
                == ga * log_discrepancy(fan, zero, pa) + gb * log_discrepancy(fan, zero, pb)
            )


class TestToricMld:
    def test_smooth_fan(self):
        fan = standard_fibration_fan(3)
        value, minimizer = toric_mld(fan, zero_divisor(fan))
        assert value == 1
        assert minimizer in fan.rays

    @pytest.mark.parametrize("n", [3, 4, 5, 7])
    def test_skew_model(self, n):
        fan = skew_model_fan(n)
        assert toric_mld(fan, zero_divisor(fan)) == (Fraction(2, n), (1, 0))

    def test_single_cone(self):
        fan = Fan(2, (Cone(((4, 1), (0, -1))),))
        assert toric_mld(fan, zero_divisor(fan)) == (Fraction(1, 2), (1, 0))

    def test_against_brute_force_2d(self):
        rng = random.Random(23)
        checked = 0
        while checked < 15:
            n1 = rng.randint(1, 12)
            n2 = rng.randint(-12, 12)
            from toricfib.exactmath import is_primitive

            if not is_primitive((n1, n2)):
                continue
            fan = model_V(2, (n1, n2)).fan
            assert toric_mld(fan, zero_divisor(fan)) == brute_force_mld(fan, zero_divisor(fan))
            checked += 1

    def test_against_brute_force_with_boundary(self):
        fan = skew_model_fan(4)
        boundary = ToricDivisor.make(fan, {(0, 1): Fraction(1, 2), (0, -1): Fraction(1, 3)})
        assert toric_mld(fan, boundary) == brute_force_mld(fan, boundary)

    def test_mixed_denominators(self):
        # denominators 2, 3 and 5 and a negative coefficient: the weights
        # are scaled by 30
        fan = skew_model_fan(4)
        coefficients = {(0, 1): Fraction(1, 2), (0, -1): Fraction(-2, 3), (4, 1): Fraction(3, 5)}
        boundary = ToricDivisor.make(fan, coefficients)
        assert toric_mld(fan, boundary) == brute_force_mld(fan, boundary)
        assert toric_mld(fan, boundary) == fraction_toric_mld(fan, boundary)

    def test_non_primitive_box_points_are_skipped(self):
        # with boundary coefficient 1 at both rays every candidate has
        # value 0, and the box point (-5, 5) = 5 (-1, 1) would be the
        # smallest candidate if non-primitive points were kept
        fan = Fan(2, (Cone(((-3, 2), (-3, 4))),))
        _, points = fan.maximal_cones[0].box_points()
        assert (-5, 5) in [point for point, _ in points]
        boundary = ToricDivisor.make(fan, {(-3, 2): 1, (-3, 4): 1})
        assert toric_mld(fan, boundary) == (0, (-3, 2))

    @given(st.integers(0, 10 ** 6), st.integers(2, 4))
    @settings(max_examples=150, deadline=None)
    def test_equals_the_fraction_form(self, seed, d):
        rng = random.Random(seed)
        fan = random_star_fan(rng, d, 5)
        boundary = random_boundary(rng, fan)
        assert toric_mld(fan, boundary) == fraction_toric_mld(fan, boundary)

    @given(st.integers(0, 10 ** 6), st.integers(2, 3))
    @settings(max_examples=60, deadline=None)
    def test_equals_the_brute_force(self, seed, d):
        # adding a ray of weight 0 to a minimizer keeps its value, so the
        # cube of the brute force may hold a smaller tied point that is no
        # candidate; only the values are compared then
        rng = random.Random(seed)
        fan = random_star_fan(rng, d, 3 if d == 2 else 1)
        boundary = random_boundary(rng, fan)
        value, minimizer = toric_mld(fan, boundary)
        expected_value, expected_minimizer = brute_force_mld(fan, boundary)
        assert value == expected_value
        if all(c != 1 for _, c in boundary.entries):
            assert minimizer == expected_minimizer

    def test_pool_fans_equal_the_fraction_form(self):
        rng = random.Random(19)
        for entry in json.loads(POOL.read_text())["fans"]:
            fan = serialize.fan_from_dict(pool_fan_doc(entry))
            for boundary in (zero_divisor(fan), random_boundary(rng, fan)):
                assert toric_mld(fan, boundary) == fraction_toric_mld(fan, boundary)

    @pytest.mark.parametrize("with_boundary", [False, True])
    def test_does_no_fraction_arithmetic_per_box_point(self, monkeypatch, with_boundary):
        fan = model_V(3, (109, 1, 1)).fan
        points = sum(len(cone.box_points()[1]) for cone in fan.maximal_cones)
        assert points >= 109 * len(fan.maximal_cones) > 40 * len(fan.rays)
        boundary = zero_divisor(fan)
        if with_boundary:
            boundary = ToricDivisor.make(
                fan, dict(zip(fan.rays, (Fraction(1, 2), Fraction(-2, 3), 1, Fraction(3, 7))))
            )
        calls = Counter()
        arithmetic = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                      "__truediv__", "__lt__", "__le__", "__gt__", "__ge__", "__eq__")
        for name in ("__new__",) + arithmetic:
            original = getattr(Fraction, name)

            def counting(*args, original=original, name=name, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(Fraction, name, counting)
        divisors.toric_mld.cache_clear()
        result = toric_mld(fan, boundary)
        monkeypatch.undo()
        assert result == fraction_toric_mld(fan, boundary)
        assert type(result[0]) is Fraction
        assert calls["__new__"] == 1  # the minimum, and no other Fraction
        # the boundary check compares each coefficient with 1, once per ray
        assert sum(calls[name] for name in arithmetic) == calls["__gt__"] == len(boundary.entries)


def random_star_fan(rng: random.Random, d: int, bound: int) -> Fan:
    """A random simplicial fan: some of the 2^d cones on the rays of a
    random full-dimensional cone and their negatives, star subdivided at a
    primitive vector of one of them half of the time."""
    rays = random_full_cone(rng, d, bound).rays
    signs = [s for s in itertools.product((1, -1), repeat=d) if rng.random() < 0.5] or [(1,) * d]
    fan = Fan(d, tuple(
        Cone(tuple(tuple(sign * x for x in ray) for sign, ray in zip(s, rays))) for s in signs
    ))
    if rng.random() < 0.5:
        cone = rng.choice(fan.maximal_cones)
        weights = [rng.randint(0, 2) for _ in cone.rays]
        v = tuple(sum(w * ray[i] for w, ray in zip(weights, cone.rays)) for i in range(d))
        if any(v) and primitive(v) not in fan.ray_set:
            fan = star_subdivide(fan, primitive(v))
    return fan


def random_boundary(rng: random.Random, fan: Fan) -> ToricDivisor:
    """Coefficients <= 1 on the rays: 0, 1 (weight 0), and fractions with
    denominators up to 7, negative ones included."""
    coefficients = {}
    for ray in fan.rays:
        kind = rng.random()
        if kind < 0.2:
            coefficients[ray] = 1
        elif kind < 0.7:
            den = rng.randint(1, 7)
            coefficients[ray] = Fraction(rng.randint(-2 * den, den), den)
    return ToricDivisor.make(fan, coefficients)


class TestEpsilonLc:
    def test_smooth(self):
        fan = standard_fibration_fan(2)
        assert is_epsilon_lc(fan, zero_divisor(fan), 1)

    def test_skew_five_fails_half(self):
        fan = skew_model_fan(5)
        assert not is_epsilon_lc(fan, zero_divisor(fan), Fraction(1, 2))

    def test_skew_three_passes_half(self):
        fan = skew_model_fan(3)
        assert is_epsilon_lc(fan, zero_divisor(fan), Fraction(1, 2))

    def test_eps_range(self):
        fan = standard_fibration_fan(2)
        with pytest.raises(ValueError):
            is_epsilon_lc(fan, zero_divisor(fan), 2)


class TestFiberOperations:
    def test_standard_fan_multiplicity_one(self):
        fan = standard_fibration_fan(3)
        assert fiber_multiplicity(fan, (1, 0, 0)) == 1

    @pytest.mark.parametrize("n", [2, 5, 9])
    def test_skew_multiplicity(self, n):
        assert fiber_multiplicity(skew_model_fan(n), (n, 1)) == n

    def test_horizontal_ray_rejected(self):
        fan = standard_fibration_fan(2)
        with pytest.raises(ValueError, match="not a fiber component"):
            fiber_multiplicity(fan, (0, 1))

    def test_fiber_divisor_coefficients(self):
        y_fan = Fan(
            2,
            (
                Cone(((0, 1), (4, 1))),
                Cone(((4, 1), (1, 0))),
                Cone(((1, 0), (0, -1))),
            ),
        )
        assert fiber_divisor(y_fan).as_dict() == {(4, 1): 4, (1, 0): 1}

    def test_fiber_divisor_trivial_over_base(self):
        for fan in (standard_fibration_fan(3), skew_model_fan(6), model_V(3, (2, 1, 1)).fan):
            witness = rel_lin_equiv(fan, fiber_divisor(fan), zero_divisor(fan))
            assert witness == tuple([-1] + [0] * (fan.ambient_dim - 1))


class TestPullback:
    def test_horizontal_sum_through_extraction(self):
        fan = skew_model_fan(4)
        sub = Subdivision.at(fan, (1, 0))
        pulled = pullback(sub, horizontal_sum(fan))
        assert pulled.as_dict() == {
            (0, 1): 1,
            (0, -1): 1,
            (1, 0): Fraction(1, 4),
        }

    def test_zero_pulls_to_zero(self):
        sub = Subdivision.at(standard_fibration_fan(2), (1, 1))
        assert pullback(sub, zero_divisor(sub.coarse)).is_zero()

    def test_fiber_divisor_pulls_to_fiber_divisor(self):
        fan = model_V(3, (3, 1, 0)).fan
        sub = Subdivision.at(fan, (1, 1, 0))
        assert pullback(sub, fiber_divisor(fan)) == fiber_divisor(sub.fine)

    def test_unrelated_fans_rejected(self):
        fan = standard_fibration_fan(2)
        sub = Subdivision.at(fan, (1, 1))
        with pytest.raises(ValueError, match="coarse fan"):
            pullback(sub, zero_divisor(sub.fine))

    def test_at_subdivides_once(self, monkeypatch):
        fan = standard_fibration_fan(2)
        calls = []

        def counted(coarse, ray):
            calls.append(ray)
            return star_subdivide(coarse, ray)

        monkeypatch.setattr(divisors, "star_subdivide", counted)
        sub = Subdivision.at(fan, (1, 1))
        assert calls == [(1, 1)]
        monkeypatch.undo()
        assert sub == Subdivision(fan, (1, 1))

    def test_fine_fan_is_built_not_given(self):
        fan = model_V(3, (3, 1, 0)).fan
        sub = Subdivision(fan, [1, 1, 0])
        assert sub.new_ray == (1, 1, 0)
        assert sub.fine == star_subdivide(fan, (1, 1, 0))
        with pytest.raises(TypeError, match="fine"):
            Subdivision(fan, (1, 1, 0), fine=sub.fine)

    def test_support_function_commutes(self):
        fan = skew_model_fan(5)
        divisor = ToricDivisor.make(fan, {(5, 1): Fraction(2, 3), (0, 1): -1})
        sub = Subdivision.at(fan, (1, 0))
        pulled = pullback(sub, divisor)
        coarse_sf = support_function(divisor)
        fine_sf = support_function(pulled)
        rng = random.Random(5)
        for _ in range(50):
            point = (rng.randint(0, 10), rng.randint(-10, 10))
            if not support_contains(fan, point):
                continue
            assert coarse_sf.value(point) == fine_sf.value(point)


class TestRelativeEquivalence:
    def test_fiber_relation_on_extraction(self):
        fan = Fan(
            2,
            (
                Cone(((0, 1), (4, 1))),
                Cone(((4, 1), (1, 0))),
                Cone(((1, 0), (0, -1))),
            ),
        )
        d1 = 4 * ray_divisor(fan, (4, 1)) + ray_divisor(fan, (1, 0))
        witness = rel_lin_equiv(fan, d1, zero_divisor(fan))
        assert witness == (-1, 0)

    def test_reflexive(self):
        fan = standard_fibration_fan(2)
        s1 = ray_divisor(fan, (0, 1))
        assert rel_lin_equiv(fan, s1, s1) == (0, 0)

    def test_horizontal_difference(self):
        fan = standard_fibration_fan(2)
        witness = rel_lin_equiv(fan, ray_divisor(fan, (0, 1)), ray_divisor(fan, (0, -1)))
        assert witness == (0, -1)

    def test_inequivalent_returns_none(self):
        fan = standard_fibration_fan(2)
        # a single horizontal prime divisor is not trivial over the base
        assert rel_lin_equiv(fan, ray_divisor(fan, (0, 1)), zero_divisor(fan)) is None

    def test_character_divisors_trivial_and_witnessed(self):
        fan = model_V(3, (2, 1, 1)).fan
        rng = random.Random(29)
        for _ in range(20):
            m = tuple(rng.randint(-5, 5) for _ in range(3))
            div = character_divisor(fan, m)
            witness = rel_lin_equiv(fan, div, zero_divisor(fan))
            assert witness is not None
            # the witness cancels the divisor exactly
            assert (div + character_divisor(fan, witness)).is_zero()

    def test_symmetry_and_transitivity(self):
        fan = skew_model_fan(3)
        a = fiber_divisor(fan)
        b = zero_divisor(fan)
        c = 2 * fiber_divisor(fan)
        w_ab = rel_lin_equiv(fan, a, b)
        w_ba = rel_lin_equiv(fan, b, a)
        w_ac = rel_lin_equiv(fan, a, c)
        w_bc = rel_lin_equiv(fan, b, c)
        assert w_ab == tuple(-x for x in w_ba)
        # witnesses compose: (a - b) + (b - c) = (a - c)
        assert tuple(x + y for x, y in zip(w_ab, w_bc)) == w_ac


class TestSingularLocusOverOrigin:
    @pytest.mark.parametrize("n", [(4, 1), (5, 2), (6, -1), (3, 1, 1), (4, 1, -2)])
    def test_small_discrepancy_points_are_vertical(self, n):
        from toricfib.exactmath import parallelepiped_points

        model = model_V(len(n), n)
        for cone in model.fan.maximal_cones:
            for point, coeffs in parallelepiped_points(cone.rays):
                if not any(point):
                    continue
                if sum(coeffs) < 1:
                    assert point[0] > 0
