import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricfib import cli, serialize
from toricfib.exactmath import primitive, solve_in_basis
from toricfib.fan import (
    Cone,
    Fan,
    _meet_by_enumeration,
    _separated,
    multiplicity,
    smallest_containing_cone,
    standard_fibration_fan,
    star_subdivide,
)
from oracles import lp_meet_in_common_face


def half_plane_chain(cones: int) -> list[Cone]:
    """A valid surface fan of the given number of cones, in the half-plane
    x_1 >= 0 between (0, 1) and (0, -1): its interior rays are (1, k) with
    k running down through the integers around 0."""
    top = (cones - 2) // 2
    rays = [(0, 1)] + [(1, k) for k in range(top, top - cones + 1, -1)] + [(0, -1)]
    return [Cone((u, v)) for u, v in zip(rays, rays[1:])]


# meets <(1, 5), (1, 4)> and <(1, 4), (1, 3)> in 2-dimensional sets
OVERLAPPING = Cone(((1, 5), (1, 3)))


def random_cone_pair(seed: int) -> tuple[Cone, Cone, frozenset]:
    """Two distinct full-dimensional simplicial cones in dimension 2, 3 or
    4 sharing 0 to d-1 drawn rays, entries in [-3, 3]; about half of such
    pairs overlap."""
    rng = random.Random(seed)
    d = rng.choice((2, 3, 4))

    def draw(m):
        return [tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(m)]

    while True:
        shared = draw(rng.randint(0, d - 1))
        k = len(shared)
        try:
            c1 = Cone(tuple(shared + draw(d - k)))
            c2 = Cone(tuple(shared + draw(d - k)))
        except ValueError:
            continue
        if c1.dim == d and c2.dim == d and c1 != c2:
            return c1, c2, frozenset(c1.rays) & frozenset(c2.rays)


class TestCone:
    def test_requires_primitive_rays(self):
        with pytest.raises(ValueError, match="primitive"):
            Cone(((2, 4),))

    def test_requires_independent_rays(self):
        with pytest.raises(ValueError, match="independent"):
            Cone(((1, 0), (-1, 0)))

    def test_rays_are_sorted(self):
        assert Cone(((1, 0), (0, 1))).rays == Cone(((0, 1), (1, 0))).rays

    def test_contains(self):
        cone = Cone(((4, 1), (0, -1)))
        assert cone.contains((1, 0))
        assert cone.contains((4, 1))
        assert not cone.contains((0, 1))
        assert not cone.contains((-1, 0))

    @given(st.integers(0, 10 ** 6), st.booleans())
    @settings(max_examples=80)
    def test_coefficients_match_solve_in_basis(self, seed, rational):
        rng = random.Random(seed)
        d = rng.randint(2, 4)
        k = rng.randint(1, d) if seed % 3 == 0 else d

        def entry():
            if rational:
                return Fraction(rng.randint(-9, 9), rng.randint(1, 5))
            return rng.randint(-9, 9)

        while True:
            draws = [tuple(rng.randint(-5, 5) for _ in range(d)) for _ in range(k)]
            try:
                cone = Cone(tuple(primitive(v) for v in draws), d)
            except ValueError:
                continue
            break
        weights = [abs(entry()) for _ in range(k)]
        inside = tuple(sum(w * ray[i] for w, ray in zip(weights, cone.rays)) for i in range(d))
        anywhere = tuple(entry() for _ in range(d))
        for v in (inside, anywhere):
            assert cone.coefficients(v) == solve_in_basis(cone.rays, v)
        assert cone.contains(inside)


class TestMultiplicity:
    def test_smooth(self):
        assert multiplicity(Cone(((1, 0), (0, 1)))) == 1

    @pytest.mark.parametrize("n", [2, 3, 5, 11])
    def test_skew(self, n):
        assert multiplicity(Cone(((n, 1), (0, -1)))) == n
        assert multiplicity(Cone(((0, 1), (n, 1)))) == n

    def test_lower_dimensional(self):
        assert multiplicity(Cone(((0, 2, 1), (0, 0, 1)), 3)) == 2


class TestStandardFibrationFan:
    def test_dimension_two(self):
        fan = standard_fibration_fan(2)
        assert fan.rays == ((0, -1), (0, 1), (1, 0))
        assert {c.rays for c in fan.maximal_cones} == {
            ((0, 1), (1, 0)),
            ((0, -1), (1, 0)),
        }

    def test_dimension_three(self):
        fan = standard_fibration_fan(3)
        assert len(fan.rays) == 4
        assert len(fan.maximal_cones) == 3
        assert all(multiplicity(c) == 1 for c in fan.maximal_cones)

    def test_small_dimension_rejected(self):
        with pytest.raises(ValueError):
            standard_fibration_fan(1)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_support_is_half_space(self, d):
        fan = standard_fibration_fan(d)
        rng = random.Random(d)
        for _ in range(150):
            point = tuple(rng.randint(-8, 8) for _ in range(d))
            if point[0] >= 0:
                assert fan.support_contains(point), point
            else:
                assert not fan.support_contains(point), point


class TestFanValidation:
    def test_overlapping_cones_rejected(self):
        # second cone eats into the first: they meet in a 2-dimensional set
        with pytest.raises(ValueError, match="common face"):
            Fan(2, (Cone(((1, 0), (0, 1))), Cone(((1, 1), (-1, 1)))))

    def test_nested_cones_rejected(self):
        with pytest.raises(ValueError, match="contains"):
            Fan(2, (Cone(((1, 0), (0, 1))), Cone(((1, 0),))))

    def test_shared_ray_interior_overlap_rejected(self):
        # both contain (1, 1) in the interior, but share only the ray (1, 0)
        with pytest.raises(ValueError, match="common face"):
            Fan(2, (Cone(((1, 0), (0, 1))), Cone(((1, 0), (1, 2)))))

    def test_compatible_fan_accepted(self):
        fan = Fan(2, (Cone(((1, 0), (1, 1))), Cone(((1, 1), (0, 1)))))
        assert len(fan.maximal_cones) == 2

    def test_overlap_among_many_cones_rejected(self):
        chain = half_plane_chain(64)
        assert len(Fan(2, tuple(chain)).maximal_cones) == 64
        with pytest.raises(ValueError, match="common face"):
            Fan(2, tuple(chain) + (OVERLAPPING,))

    def test_overlap_among_many_cones_rejected_by_cli(self, tmp_path, capsys):
        doc = {
            "ambient_dim": 2,
            "maximal_cones": [list(c.rays) for c in half_plane_chain(64) + [OVERLAPPING]],
        }
        path = tmp_path / "fan.json"
        path.write_text(serialize.dumps(doc))
        assert cli.main(["mld", "--fan", str(path)]) == cli.EXIT_INPUT
        assert "common face" in capsys.readouterr().err

    def test_lower_dimensional_cone_rejected(self):
        doc = {
            "ambient_dim": 3,
            "maximal_cones": [[[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[1, 1, 0], [0, 0, 1]]],
        }
        with pytest.raises(serialize.InputError, match="not full dimensional"):
            serialize.fan_from_dict(doc)
        with pytest.raises(ValueError, match="not full dimensional"):
            Fan(2, (Cone(((1, 0),)),))

    def test_certificate_undecided_pair_goes_to_enumeration(self):
        c1 = Cone(((-2, -2, -3), (-1, 3, 0), (2, -3, -2)))
        c2 = Cone(((-3, 1, 2), (-1, -3, 2), (3, -2, -1)))
        assert not _separated(c1, c2, frozenset())
        assert not _separated(c2, c1, frozenset())
        assert _meet_by_enumeration(c1, c2, frozenset())
        assert lp_meet_in_common_face(c1, c2)
        assert len(Fan(3, (c1, c2)).maximal_cones) == 2

    @pytest.mark.parametrize(
        "fan",
        [
            Fan(2, tuple(half_plane_chain(40))),
            star_subdivide(star_subdivide(standard_fibration_fan(3), (2, 1, 1)), (3, 1, 2)),
            star_subdivide(standard_fibration_fan(4), (1, 1, -1, 0)),
        ],
    )
    def test_certificate_decides_every_pair_of_fans_built_here(self, fan):
        for c1, c2 in combinations(fan.maximal_cones, 2):
            shared = frozenset(c1.rays) & frozenset(c2.rays)
            assert _separated(c1, c2, shared) or _separated(c2, c1, shared)

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=300)
    def test_certificate_and_fan_agree_with_enumeration(self, seed):
        c1, c2, shared = random_cone_pair(seed)
        meet = _meet_by_enumeration(c1, c2, shared)
        assert meet == _meet_by_enumeration(c2, c1, shared)
        if _separated(c1, c2, shared) or _separated(c2, c1, shared):
            assert meet
        try:
            Fan(c1.ambient_dim, (c1, c2))
        except ValueError as exc:
            assert "common face" in str(exc)
            assert not meet
        else:
            assert meet

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=40, deadline=None)
    def test_enumeration_agrees_with_linear_program(self, seed):
        c1, c2, shared = random_cone_pair(seed)
        assert _meet_by_enumeration(c1, c2, shared) == lp_meet_in_common_face(c1, c2)


class TestSmallestContainingCone:
    def test_interior_of_skew_cone(self):
        fan = Fan(2, (Cone(((4, 1), (0, 1))), Cone(((4, 1), (0, -1)))))
        cone, coeffs = smallest_containing_cone(fan, (1, 0))
        assert cone.rays == ((0, -1), (4, 1))
        assert dict(zip(cone.rays, coeffs)) == {
            (4, 1): Fraction(1, 4),
            (0, -1): Fraction(1, 4),
        }

    def test_ray_itself(self):
        fan = standard_fibration_fan(2)
        cone, coeffs = smallest_containing_cone(fan, (0, 1))
        assert cone.rays == ((0, 1),)
        assert coeffs == (1,)

    def test_interior_point_dimension_three(self):
        fan = standard_fibration_fan(3)
        cone, coeffs = smallest_containing_cone(fan, (1, 1, 1))
        assert cone.rays == ((0, 0, 1), (0, 1, 0), (1, 0, 0))
        assert coeffs == (1, 1, 1)

    def test_outside_support(self):
        fan = standard_fibration_fan(2)
        with pytest.raises(ValueError, match="not in fan support"):
            smallest_containing_cone(fan, (-1, 0))

    def test_zero_rejected(self):
        fan = standard_fibration_fan(2)
        with pytest.raises(ValueError, match="zero"):
            smallest_containing_cone(fan, (0, 0))


class TestStarSubdivide:
    def test_extracts_divisor_from_skew_model(self):
        fan = Fan(2, (Cone(((4, 1), (0, 1))), Cone(((4, 1), (0, -1)))))
        fine = star_subdivide(fan, (1, 0))
        assert fine.rays == ((0, -1), (0, 1), (1, 0), (4, 1))
        assert {c.rays for c in fine.maximal_cones} == {
            ((0, 1), (4, 1)),
            ((1, 0), (4, 1)),
            ((0, -1), (1, 0)),
        }

    def test_single_smooth_blowup(self):
        fine = star_subdivide(standard_fibration_fan(2), (1, 1))
        assert fine.rays == ((0, -1), (0, 1), (1, 0), (1, 1))
        assert len(fine.maximal_cones) == 3

    def test_existing_ray_rejected(self):
        with pytest.raises(ValueError, match="already extracted"):
            star_subdivide(standard_fibration_fan(2), (1, 0))

    def test_non_primitive_rejected(self):
        with pytest.raises(ValueError, match="primitive"):
            star_subdivide(standard_fibration_fan(2), (2, 2))

    def test_new_ray_becomes_smallest_cone(self):
        fan = standard_fibration_fan(3)
        fine = star_subdivide(fan, (2, 1, 1))
        cone, coeffs = smallest_containing_cone(fine, (2, 1, 1))
        assert cone.rays == ((2, 1, 1),)
        assert coeffs == (1,)

    @pytest.mark.parametrize(
        "d,ray", [(2, (3, 1)), (3, (1, 1, 0)), (3, (2, 1, 1)), (4, (1, 1, -1, 0))]
    )
    def test_support_preserved(self, d, ray):
        fan = standard_fibration_fan(d)
        fine = star_subdivide(fan, ray)
        rng = random.Random(d)
        for _ in range(1000 if d == 2 else 250):
            point = tuple(
                Fraction(rng.randint(-12, 12), rng.randint(1, 4)) for _ in range(d)
            )
            assert fan.support_contains(point) == fine.support_contains(point)


def test_subdivision_preserves_ray_primitivity_and_simpliciality():
    fan = standard_fibration_fan(3)
    for ray in ((1, 1, 1), (2, 1, 0), (1, 0, -1)):
        fan = star_subdivide(fan, ray)
    for cone in fan.maximal_cones:
        assert cone.dim == len(cone.rays)
        assert multiplicity(cone) >= 1
