import random
from fractions import Fraction

import pytest

from toricfib import surface
from toricfib.divisors import ToricDivisor, character_divisor, ray_divisor
from toricfib.exactmath import InvariantViolation
from toricfib.models import model_V
from toricfib.surface import SurfaceModel, example_models, example_verify, intersect
from oracles import surface_intersection

SURFACES = [
    ((0, 1), (1, 0), (0, -1)),
    ((0, 1), (5, 1), (1, 0), (0, -1)),
    ((0, 1), (7, -3), (0, -1)),
    ((0, 1), (1, 3), (2, 1), (3, -1), (1, -2), (0, -1)),
    ((0, 1), (1, 4), (3, 2), (4, 1), (5, -2), (2, -3), (1, -5), (0, -1)),
]


def reflect(v):
    return (v[0], -v[1])


def interior_rays(model):
    return model.rays[1:-1]


@pytest.mark.parametrize("rays", SURFACES)
def test_character_divisor_pairs_to_zero(rays):
    # reflecting the fan in the first axis swaps the two cones at each
    # interior ray, so the reflected model computes from the other side
    model = SurfaceModel(rays)
    mirror = SurfaceModel(tuple(reflect(r) for r in rays))
    rng = random.Random(len(rays))
    for _ in range(5):
        m = (Fraction(rng.randint(-9, 9), rng.randint(1, 5)), Fraction(rng.randint(-9, 9), rng.randint(1, 5)))
        for ray in interior_rays(model):
            assert intersect(model, character_divisor(model.fan, m), ray) == 0
            assert intersect(mirror, character_divisor(mirror.fan, reflect(m)), reflect(ray)) == 0


@pytest.mark.parametrize("rays", SURFACES)
def test_intersect_matches_neighbour_formula(rays):
    model = SurfaceModel(rays)
    mirror = SurfaceModel(tuple(reflect(r) for r in rays))
    rng = random.Random(7 * len(rays))
    for _ in range(5):
        coefficients = {r: Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for r in model.rays}
        divisor = ToricDivisor.make(model.fan, coefficients)
        reflected = ToricDivisor.make(mirror.fan, {reflect(r): c for r, c in coefficients.items()})
        for ray in interior_rays(model):
            expected = surface_intersection(list(model.rays), coefficients, ray)
            assert intersect(model, divisor, ray) == expected
            assert intersect(mirror, reflected, reflect(ray)) == expected


def test_intersect_rejects_incomplete_and_foreign_curves():
    model = SurfaceModel(SURFACES[1])
    divisor = ray_divisor(model.fan, (1, 0))
    with pytest.raises(ValueError, match="not complete"):
        intersect(model, divisor, (0, 1))
    with pytest.raises(ValueError, match="not a ray"):
        intersect(model, divisor, (2, 1))


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
    assert chain.y.fan is chain.surface.fan
    assert chain.y.fan.rays == ((0, -1), (0, 1), (1, 0), (6, 1))
    assert chain.v.fan.rays == ((0, -1), (0, 1), (6, 1))
    assert chain.y.distinguished_ray == chain.v.distinguished_ray == (6, 1)
    with pytest.raises(ValueError, match="n >= 1"):
        example_models(0)


def test_chain_v_is_the_V_model():
    # example_verify extracts from chain.v in place of building model_V again
    for n in range(2, 61):
        assert example_models(n).v.fan == model_V(2, (n, 1)).fan


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
        (1, 1, Fraction(1, 2), "starts at n = 2"),
        (3, 0, Fraction(1, 2), "r must be"),
        (3, True, Fraction(1, 2), "r must be"),
        (3, 1, Fraction(0), "eps must lie"),
        (3, 1, Fraction(3, 2), "eps must lie"),
    ],
)
def test_example_verify_rejects_bad_input(n, r, eps, message):
    with pytest.raises(ValueError, match=message):
        example_verify(n, r, eps)
