import random
from fractions import Fraction

import pytest

from toricfib import surface
from toricfib.divisors import Subdivision, ToricDivisor, canonical_divisor, character_divisor, ray_divisor
from toricfib.exactmath import InvariantViolation
from toricfib.fan import Cone, Fan, standard_fibration_fan
from toricfib.models import model_V
from toricfib.surface import example_models, example_verify, intersect
from oracles import surface_intersection

# fibration surfaces: rays in angular order from (0, 1) to (0, -1)
SURFACES = [
    ((0, 1), (1, 0), (0, -1)),
    ((0, 1), (5, 1), (1, 0), (0, -1)),
    ((0, 1), (7, -3), (0, -1)),
    ((0, 1), (1, 3), (2, 1), (3, -1), (1, -2), (0, -1)),
    ((0, 1), (1, 4), (3, 2), (4, 1), (5, -2), (2, -3), (1, -5), (0, -1)),
]

# complete fans, rays in angular order around the origin: P^2, F_0, F_3,
# P(1, 1, 2) and one with a cone of multiplicity 7
COMPLETE = [
    ((1, 0), (0, 1), (-1, -1)),
    ((1, 0), (0, 1), (-1, 0), (0, -1)),
    ((1, 0), (0, 1), (-1, 3), (0, -1)),
    ((1, 0), (0, 1), (-1, -2)),
    ((1, 0), (2, 7), (-1, 1), (-3, -2), (1, -1)),
]

# fans in the left half-plane x_1 <= 0, and one that crosses it
LEFT = [
    ((0, 1), (-1, 4), (-2, 1), (-3, -1), (0, -1)),
    ((1, 1), (-1, 2), (-1, -1), (2, -3)),
]


def chain_fan(rays):
    """The fan whose maximal cones are the consecutive pairs of rays."""
    return Fan(2, tuple(Cone(pair) for pair in zip(rays, rays[1:])))


def cycle_fan(rays):
    """The complete fan whose maximal cones are the cyclically consecutive
    pairs of rays."""
    return chain_fan(rays + rays[:1])


def reflect(v):
    return (v[0], -v[1])


def random_coefficients(rng, rays):
    return {r: Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for r in rays}


@pytest.mark.parametrize("rays", SURFACES + LEFT)
def test_character_divisor_pairs_to_zero(rays):
    # the reflection of a fan in the first axis is another fan, with the
    # same intersection numbers at the reflected rays
    fan = chain_fan(rays)
    mirror = chain_fan(tuple(reflect(r) for r in rays))
    rng = random.Random(len(rays))
    for _ in range(5):
        m = (Fraction(rng.randint(-9, 9), rng.randint(1, 5)), Fraction(rng.randint(-9, 9), rng.randint(1, 5)))
        for ray in rays[1:-1]:
            assert intersect(fan, character_divisor(fan, m), ray) == 0
            assert intersect(mirror, character_divisor(mirror, reflect(m)), reflect(ray)) == 0


@pytest.mark.parametrize("rays", SURFACES + LEFT)
def test_intersect_matches_neighbour_formula(rays):
    fan = chain_fan(rays)
    mirror = chain_fan(tuple(reflect(r) for r in rays))
    rng = random.Random(7 * len(rays))
    for _ in range(5):
        coefficients = random_coefficients(rng, rays)
        divisor = ToricDivisor.make(fan, coefficients)
        reflected = ToricDivisor.make(mirror, {reflect(r): c for r, c in coefficients.items()})
        for ray in rays[1:-1]:
            expected = surface_intersection(list(rays), coefficients, ray)
            assert intersect(fan, divisor, ray) == expected
            assert intersect(mirror, reflected, reflect(ray)) == expected


@pytest.mark.parametrize("rays", COMPLETE)
def test_intersect_on_complete_fans(rays):
    # the oracle reads both neighbours off the list, so it gets the list
    # rotated to put the ray at index 1
    fan = cycle_fan(rays)
    rng = random.Random(11 * len(rays))
    for _ in range(5):
        coefficients = random_coefficients(rng, rays)
        divisor = ToricDivisor.make(fan, coefficients)
        for i, ray in enumerate(rays):
            rotated = list(rays[i - 1:] + rays[:i - 1])
            assert intersect(fan, divisor, ray) == surface_intersection(rotated, coefficients, ray)


def test_intersect_on_the_projective_plane():
    # on P^2 every torus-invariant curve is a line: D_v.C_u = 1 for each ray v
    rays = COMPLETE[0]
    fan = cycle_fan(rays)
    for u in rays:
        for v in rays:
            assert intersect(fan, ray_divisor(fan, v), u) == 1


def test_intersect_rejects_incomplete_and_foreign_curves():
    fan = chain_fan(SURFACES[1])
    divisor = ray_divisor(fan, (1, 0))
    with pytest.raises(ValueError, match="not complete"):
        intersect(fan, divisor, (0, 1))
    with pytest.raises(ValueError, match="not complete"):
        intersect(fan, divisor, (0, -1))
    with pytest.raises(ValueError, match="not a ray"):
        intersect(fan, divisor, (2, 1))
    other = chain_fan(SURFACES[0])
    with pytest.raises(ValueError, match="does not live on this fan"):
        intersect(other, divisor, (1, 0))


def test_intersect_checks_the_witness_it_uses(monkeypatch):
    # the shift is the witness on the first cone holding the ray; a
    # corrupted inverse there gives a functional off the divisor's values
    fan = chain_fan(SURFACES[1])
    divisor = canonical_divisor(fan)
    first = next(cone for cone in fan.maximal_cones if (1, 0) in cone.rays)
    adj, base = first._inverse
    monkeypatch.setitem(first.__dict__, "_inverse", ([[adj[0][0] + 1] + adj[0][1:]] + adj[1:], base))
    with pytest.raises(InvariantViolation, match="disagree"):
        intersect(fan, divisor, (1, 0))


def test_intersect_rejects_a_fan_that_is_not_2_dimensional():
    fan = standard_fibration_fan(3)
    divisor = ray_divisor(fan, (1, 0, 0))
    with pytest.raises(ValueError, match="2-dimensional"):
        intersect(fan, divisor, (1, 0, 0))


@pytest.mark.parametrize("r", [1, 2, 3])
def test_example_verify_closed_forms(r):
    epsilons = [Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(2, 7)]
    for n in range(2, 61):
        eps = epsilons[n % len(epsilons)]
        report = example_verify(n, r, eps)
        assert report.all_pass
        assert report.a == Fraction(2, n)
        assert report.d_dot_t == 1
        assert report.pairing == -eps + Fraction(2 * r, n)
        assert report.fires == (report.pairing < 0)


def test_example_models():
    chain = example_models(6)
    assert chain.y.fan.rays == ((0, -1), (0, 1), (1, 0), (6, 1))
    assert chain.v.fan.rays == ((0, -1), (0, 1), (6, 1))
    assert chain.y.distinguished_ray == chain.v.distinguished_ray == (6, 1)
    with pytest.raises(ValueError, match="n must be an integer >= 1"):
        example_models(0)


def test_chain_y_is_the_V_model_star_subdivided():
    # chain.y.fan is written out cone by cone; it must be the V model of
    # (n, 1) subdivided at (1, 0), the fan model_Y extracts on
    for n in range(2, 61):
        assert example_models(n).y.fan == Subdivision.at(model_V(2, (n, 1)).fan, (1, 0)).fine


def test_example_verify_rejects_a_disagreeing_model_Y(monkeypatch):
    # model_Y extracting (1, 0) from the V model of (n + 1, 1): not the chain's Y
    model_Y = surface.model_Y
    monkeypatch.setattr(
        surface, "model_Y", lambda v, l, r, eps: model_Y(model_V(2, (7, 1)), l, r, eps)
    )
    with pytest.raises(InvariantViolation, match="disagrees"):
        example_verify(6, 1, Fraction(1, 2))


@pytest.mark.parametrize(
    "n,r,eps,message",
    [
        (1, 1, Fraction(1, 2), "n must be an integer >= 2"),
        (3, 0, Fraction(1, 2), "r must be"),
        (3, True, Fraction(1, 2), "r must be"),
        (3, 1, Fraction(0), "eps must lie"),
        (3, 1, Fraction(3, 2), "eps must lie"),
    ],
)
def test_example_verify_rejects_bad_input(n, r, eps, message):
    with pytest.raises(ValueError, match=message):
        example_verify(n, r, eps)
