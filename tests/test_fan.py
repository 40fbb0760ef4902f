import json
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricfib import cli, divisors, exactmath, fan, serialize
from toricfib.exactmath import InvariantViolation, det, parallelepiped_points, primitive, solve_in_basis
from toricfib.fan import (
    Cone,
    Fan,
    _cross,
    _idot,
    _meet_by_enumeration,
    _meet_in_common_face,
    _separated,
    _walls_cover_once,
    multiplicity,
    smallest_containing_cone,
    standard_fibration_fan,
    star_subdivide,
)
from oracles import (
    POOL,
    lp_meet_in_common_face,
    pool_fan_doc,
    random_full_cone,
    sublattice_index,
    support_contains,
)


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
        if c1 != c2:
            return c1, c2, frozenset(c1.rays) & frozenset(c2.rays)


class TestCone:
    def test_requires_primitive_rays(self):
        with pytest.raises(ValueError, match="primitive"):
            Cone(((2, 4),))

    @pytest.mark.parametrize(
        "rays,error,message",
        [
            (((1, 0), (1.0, 2)), TypeError, "lattice vector entries must be ints, got 1.0"),
            (((2, 4), (1, 2, 3)), ValueError, "ray (2, 4) is not primitive"),
            (((1, 0), (1, 2, 3)), ValueError, "ray dimension mismatch"),
            (((1, 0), (0, 0)), ValueError, "ray (0, 0) is not primitive"),
            (((1, -3), (1, -3)), ValueError, "duplicate rays"),
            (((2, 0, 1), (2, 0, 1)), ValueError, "duplicate rays"),
            (((0, 0, 1), (1, 2, 0)), ValueError, "cone ((0, 0, 1), (1, 2, 0)) is not full dimensional"),
            (((1, 0), (0, 1), (1, 1)), ValueError, "cone rays must be linearly independent"),
        ],
    )
    def test_messages_in_order(self, rays, error, message):
        with pytest.raises(error) as raised:
            Cone(rays)
        assert str(raised.value) == message

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

        def entry():
            if rational:
                return Fraction(rng.randint(-9, 9), rng.randint(1, 5))
            return rng.randint(-9, 9)

        while True:
            draws = [tuple(rng.randint(-5, 5) for _ in range(d)) for _ in range(d)]
            try:
                cone = Cone(tuple(primitive(v) for v in draws))
            except ValueError:
                continue
            break
        weights = [abs(entry()) for _ in range(d)]
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

    @pytest.mark.parametrize("d", [2, 3, 4])
    @given(seed=st.integers(0, 10 ** 6))
    @settings(max_examples=30)
    def test_matches_the_smith_normal_form_index(self, d, seed):
        cone = random_full_cone(random.Random(seed), d, 6)
        assert multiplicity(cone) == sublattice_index(cone.rays)


class TestConeInverse:
    @staticmethod
    def _as_parallelepiped(cone):
        size, points = cone.box_points()
        assert size == abs(cone._inverse[1])
        assert len(points) == size
        as_fractions = sorted((pt, tuple(Fraction(n, size) for n in nums)) for pt, nums in points)
        assert as_fractions == parallelepiped_points(cone.rays)
        return size, points

    @given(st.integers(0, 10 ** 6), st.integers(1, 4))
    @settings(max_examples=120)
    def test_box_points_match_smith_normal_form(self, seed, d):
        self._as_parallelepiped(random_full_cone(random.Random(seed), d))

    def test_box_points_of_a_skew_cone(self):
        cone = Cone(((4, 1), (0, -1)))
        size, points = cone.box_points()
        assert size == 4
        assert sorted(points) == [((0, 0), (0, 0)), ((1, 0), (1, 1)), ((2, 0), (2, 2)), ((3, 0), (3, 3))]
        assert Cone(((1, 0), (0, 1))).box_points() == (1, [((0, 0), (0, 0))])

    def test_box_group_that_is_not_cyclic(self):
        # |det| = 4 and every numerator vector has order 2: the group is
        # (Z/2)^2, so no single generator builds it
        cone = Cone(((-1, -1, -1), (-1, -1, 1), (-1, 1, -1)))
        size, points = self._as_parallelepiped(cone)
        assert size == 4
        assert all(2 * x % size == 0 for _, nums in points for x in nums)

    @pytest.mark.parametrize(
        "rays",
        [
            ((-1, 2, 1), (0, 1, -2), (1, 2, -2)),  # Z/7, each column generates it
            ((0, 1, 0), (2, 1, 1), (2, 2, -1)),  # Z/4, a zero column and twice the first
            ((-2, 1, -1), (-1, 1, 1), (1, -2, 2)),  # Z/6 from orders 3 and 2, then their sum
        ],
    )
    def test_box_generator_already_in_the_group(self, rays):
        # a nonzero column of adj mod D lies in the group the earlier
        # columns generate, so it adds no coset
        cone = Cone(rays)
        size, points = self._as_parallelepiped(cone)
        columns = [tuple(x % size for x in column) for column in zip(*cone._inverse[0])]
        group = {(0,) * len(rays)}
        repeated = False
        for h in columns:
            repeated |= any(h) and h in group
            while not group >= {tuple((x + y) % size for x, y in zip(g, h)) for g in group}:
                group |= {tuple((x + y) % size for x, y in zip(g, h)) for g in group}
        assert repeated
        assert group == {nums for _, nums in points}

    @pytest.mark.parametrize(
        "rays",
        [((1, 0), (0, 1)), ((1, 2, 3), (0, 1, 4), (0, 0, 1)), ((-1, 0, 0), (1, 1, 0), (3, 5, -1))],
    )
    def test_box_of_a_unimodular_cone_is_the_origin(self, rays):
        cone = Cone(rays)
        zero = (0,) * len(rays)
        assert self._as_parallelepiped(cone) == (1, [(zero, zero)])

    @pytest.mark.parametrize(
        "corrupt,message",
        [
            # the group still has order 4, but (2, 1) / 4 is no lattice point
            (lambda adj: [[adj[0][0] + 1] + adj[0][1:]] + adj[1:], "not a lattice point"),
            # the columns of 2 adj generate a group of order 2
            (lambda adj: [[2 * x for x in row] for row in adj], "order"),
        ],
    )
    def test_corrupted_inverse_detected(self, monkeypatch, corrupt, message):
        cone = Cone(((4, 1), (0, -1)))
        adj, base = cone._inverse
        assert base == 4
        monkeypatch.setitem(cone.__dict__, "_inverse", (corrupt(adj), base))
        with pytest.raises(InvariantViolation, match=message):
            cone.box_points()

    @given(st.integers(0, 10 ** 6), st.integers(2, 4))
    @settings(max_examples=80)
    def test_wall_normals_are_signed_rows_of_the_adjugate(self, seed, d):
        # the wall check reads the cross product of wall i and the side of
        # the dropped ray off the inverse
        cone = random_full_cone(random.Random(seed), d)
        adj, base = cone._inverse
        for i, dropped in enumerate(cone.rays):
            h = _cross(cone.rays[:i] + cone.rays[i + 1 :], d)
            assert h == [(-1) ** i * x for x in adj[i]]
            assert _idot(h, dropped) == (-1) ** i * base

    @given(st.integers(0, 10 ** 6), st.integers(2, 5))
    @settings(max_examples=80)
    def test_cross_product_pairs_as_a_determinant(self, seed, d):
        rng = random.Random(seed)
        rows = [tuple(rng.randint(-6, 6) for _ in range(d)) for _ in range(d - 1)]
        v = tuple(rng.randint(-6, 6) for _ in range(d))
        pairing = _idot(_cross(rows, d), v)
        assert pairing == det([v] + rows)
        assert pairing == (-1) ** (d - 1) * det(rows + [v])

    def test_cross_product_sign_in_the_plane(self):
        # d = 2: the pairing with v is det(v, row), the negative of det(row, v)
        assert _cross([(1, 0)], 2) == [0, -1]
        assert _idot(_cross([(1, 0)], 2), (0, 1)) == -1 == -det([(1, 0), (0, 1)])

    def test_mld_of_a_user_fan_runs_one_elimination_per_cone(self, monkeypatch):
        calls = Counter()

        def counted(name, function):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return function(*args, **kwargs)

            return wrapper

        patched = [
            (exactmath, "inverse"),
            (fan, "inverse"),
            (exactmath, "smith_normal_form"),
            (exactmath, "parallelepiped_points"),
            (fan, "_cross"),
        ]
        for module, name in patched:
            monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        entry = json.loads(POOL.read_text())["fans"][0]
        user_fan = serialize.fan_from_dict(pool_fan_doc(entry))
        assert max(abs(c._inverse[1]) for c in user_fan.maximal_cones) > 1
        divisors.toric_mld.cache_clear()
        divisors.toric_mld(user_fan, divisors.zero_divisor(user_fan))
        assert calls == {"inverse": len(entry["cones"])}


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
                assert support_contains(fan, point), point
            else:
                assert not support_contains(fan, point), point


class TestFanValidation:
    def test_overlapping_cones_rejected(self):
        # second cone eats into the first: they meet in a 2-dimensional set
        with pytest.raises(ValueError, match="common face"):
            Fan(2, (Cone(((1, 0), (0, 1))), Cone(((1, 1), (-1, 1)))))

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
        with pytest.raises(serialize.InputError) as raised:
            serialize.fan_from_dict(doc)
        assert str(raised.value) == "cone ((0, 0, 1), (1, 1, 0)) is not full dimensional"

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


# walks that wind twice around the origin: every ray lies in two cones, on
# opposite sides of it, and every point but the origin in exactly two
# cones.  In the second, the rays of each turn bisect the cones of the
# other, so the sum of the rays of its first cone, <(-1, -1), (-1, 1)>,
# lies on the boundary of the two cones that cover it again.
WINDING_TWICE = [
    [(1, 0), (-1, 2), (-1, -1), (1, -2), (2, 1), (-1, 1), (-2, -1), (1, -1)],
    [(1, 0), (0, 1), (-1, 0), (0, -1), (1, 1), (-1, 1), (-1, -1), (1, -1)],
]


def walk(rays: list[tuple[int, int]]) -> list[Cone]:
    """The plane cones spanned by consecutive rays of a walk."""
    return [Cone((u, v)) for u, v in zip(rays, rays[1:])]


def winding_cones(rays: list[tuple[int, int]], lift: bool) -> list[Cone]:
    """The closed walk of ``rays``, in dimension 2, or lifted to dimension
    3 by putting every ray in x_1 = 0 and adding e_1 to every cone."""
    plane = walk(rays + rays[:1])
    if not lift:
        return plane
    return [Cone(((1, 0, 0),) + tuple((0,) + ray for ray in c.rays)) for c in plane]


def complete_fan(d: int) -> Fan:
    """The complete fan of P^d: every d-subset of e_1, ..., e_d and
    -(e_1 + ... + e_d)."""
    rays = [tuple(int(i == j) for i in range(d)) for j in range(d)] + [(-1,) * d]
    return Fan(d, tuple(Cone(subset) for subset in combinations(rays, d)))


def t_junction() -> list[Cone]:
    """The fan of V over the line with one cone split at e_1 + e_2, a point
    of the wall it shares with a cone that is not split."""
    base = standard_fibration_fan(3)
    split, = [c for c in base.maximal_cones if set(c.rays) == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}]
    halves = star_subdivide(Fan(3, (split,)), (1, 1, 0)).maximal_cones
    return [c for c in base.maximal_cones if c != split] + list(halves)


def random_star_subdivision(seed: int, steps: int, dims=(2, 3, 4)) -> Fan:
    """The fan of V over the line in a dimension drawn from ``dims``, star
    subdivided at up to ``steps`` drawn primitive vectors with x_1 >= 0."""
    rng = random.Random(seed)
    d = rng.choice(dims)
    result = standard_fibration_fan(d)
    for _ in range(steps):
        v = (rng.randint(0, 3),) + tuple(rng.randint(-3, 3) for _ in range(d - 1))
        if any(v) and primitive(v) == v and v not in result.ray_set:
            result = star_subdivide(result, v)
    return result


def assert_verdicts(cones: list[Cone], walls: bool | None) -> None:
    """The wall check returns ``walls`` on the cones in the order a ``Fan``
    holds them, and the pairwise loop and the linear program agree with it
    whichever cone comes first: when no cone pair is bad the check never
    rejects and the program confirms every pair; when one is, the check
    never accepts and the program confirms the first bad pair."""
    cones = sorted(cones, key=lambda c: c.rays)
    assert _walls_cover_once(cones) is walls
    verdicts = {_walls_cover_once(cones[i:] + cones[:i]) for i in range(len(cones))}
    pairs = list(combinations(cones, 2))
    bad = next(((c1, c2) for c1, c2 in pairs if not _meet_in_common_face(c1, c2)), None)
    if bad is None:
        assert False not in verdicts
        assert all(lp_meet_in_common_face(c1, c2) for c1, c2 in pairs)
    else:
        assert True not in verdicts
        assert not lp_meet_in_common_face(*bad)


def refuse_pairs(c1, c2):
    raise AssertionError(f"the pairwise loop ran on {c1.rays} and {c2.rays}")


class TestWallCheck:
    """The wall check against the pairwise loop and the linear program."""

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=60, deadline=None)
    def test_random_star_subdivisions_take_the_wall_path(self, seed):
        built = random_star_subdivision(seed, 4)
        cones = built.maximal_cones
        assert _walls_cover_once(cones) is True
        assert all(_meet_in_common_face(c1, c2) for c1, c2 in combinations(cones, 2))

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=3, deadline=None)
    def test_linear_program_agrees_on_random_star_subdivisions(self, seed):
        # the program takes about 0.15 s a pair, so d = 4 draws are left to
        # the pairwise loop above
        assert_verdicts(list(random_star_subdivision(seed, 1, (2, 3)).maximal_cones), True)

    def test_complete_fans_and_their_subdivisions(self):
        plane = complete_fan(2)
        assert_verdicts(list(plane.maximal_cones), True)
        assert_verdicts(list(star_subdivide(star_subdivide(plane, (1, 1)), (-1, 2)).maximal_cones), True)
        assert_verdicts(list(complete_fan(3).maximal_cones), True)
        # complete: every wall lies in two cones
        fine = star_subdivide(star_subdivide(complete_fan(3), (-1, 2, 0)), (1, 1, 1))
        walls = [c.rays[:i] + c.rays[i + 1 :] for c in fine.maximal_cones for i in range(3)]
        assert all(walls.count(w) == 2 for w in walls)
        assert _walls_cover_once(fine.maximal_cones) is True

    @pytest.mark.parametrize("rays", WINDING_TWICE)
    @pytest.mark.parametrize("lift", [False, True])
    def test_a_fan_that_winds_twice_fails_only_the_degree(self, rays, lift):
        cones = winding_cones(rays, lift)
        d = cones[0].ambient_dim
        sides = {}
        for cone in cones:
            for i, dropped in enumerate(cone.rays):
                wall = cone.rays[:i] + cone.rays[i + 1 :]
                sides.setdefault(wall, []).append(sum(a * b for a, b in zip(_cross(wall, d), dropped)) > 0)
        # (a) holds, and every unmatched wall lies in x_1 = 0
        assert all(len(s) == 1 or (len(s) == 2 and s[0] != s[1]) for s in sides.values())
        assert all(w[0][0] == w[1][0] == 0 for w, s in sides.items() if len(s) == 1)
        assert len(sides) == (8 if not lift else 16)
        assert_verdicts(cones, False)
        with pytest.raises(ValueError, match="common face"):
            Fan(d, tuple(cones))

    def test_a_fold_fails_only_the_matched_walls(self):
        # the walk turns back at (-6, 1) and at (-1, 6), so each of those
        # rays has both its cones on one side, and the angles between them
        # are covered three times and all others once
        cones = walk([(1, 0), (0, 1), (-6, 1), (-1, 6), (-3, -1), (1, -3), (1, 0)])
        assert_verdicts(cones, False)
        # in walk order the first cone, <(1, 0), (0, 1)>, lies in the part
        # covered once, so (c) holds and only (a) rejects
        assert _walls_cover_once(cones) is False

    def test_a_spiral_fails_only_the_boundary(self):
        # one and a half turns from (0, 1) to (0, -1): both unmatched walls
        # have the inward normal e_1, but two rays have x_1 < 0.  The first
        # cone of the fan covers x_1 < 0 once, so (a) and (c) hold
        cones = walk([(0, 1), (1, 1), (1, -1), (-1, -1), (-1, 1), (1, 2), (1, -2), (0, -1)])
        assert_verdicts(cones, None)
        with pytest.raises(ValueError, match="common face"):
            Fan(2, tuple(cones))

    def test_t_junction_falls_back_and_is_rejected(self):
        cones = t_junction()
        assert_verdicts(cones, None)
        with pytest.raises(ValueError, match="common face"):
            Fan(3, tuple(cones))

    def test_overlap_among_many_cones(self):
        assert_verdicts(half_plane_chain(64) + [OVERLAPPING], False)

    def test_single_cone_is_accepted(self):
        cone = Cone(((1, 2, 0), (0, 1, 0), (3, 0, 1)))
        assert_verdicts([cone], True)
        assert Fan(3, (cone,)).maximal_cones == (cone,)

    def test_non_convex_support_falls_back_and_is_accepted(self):
        # the normal (0, 1) of the unmatched wall at (1, 0) is negative on
        # (-1, -1), so (b) fails although the cones meet in <(0, 1)>
        cones = [Cone(((1, 0), (0, 1))), Cone(((0, 1), (-1, -1)))]
        assert_verdicts(cones, None)
        assert len(Fan(2, tuple(cones)).maximal_cones) == 2

    @given(st.integers(0, 10 ** 6), st.integers(0, 10 ** 6))
    @settings(max_examples=150, deadline=None)
    def test_random_sub_fans_agree_with_the_pairs(self, seed, pick):
        # some cones of a star subdivided fan, whose support is often convex
        # but no half-space, and 40% of the time a random cone besides: the
        # check accepts only when every pair meets in a common face, and
        # rejects only when some pair does not
        built = random_star_subdivision(seed, 4)
        rng = random.Random(pick)
        cones = [c for c in built.maximal_cones if rng.random() < 0.5] or [built.maximal_cones[0]]
        if rng.random() < 0.4:
            extra = random_full_cone(rng, built.ambient_dim, 3)
            if extra not in cones:
                cones.append(extra)
        cones.sort(key=lambda c: c.rays)
        walls = _walls_cover_once(cones)
        meet = all(
            _meet_by_enumeration(c1, c2, frozenset(c1.rays) & frozenset(c2.rays))
            for c1, c2 in combinations(cones, 2)
        )
        if walls is not None:
            assert walls == meet

    def test_pool_fans_need_no_pair(self, monkeypatch):
        monkeypatch.setattr(fan, "_meet_in_common_face", refuse_pairs)
        pool = json.loads(POOL.read_text())["fans"]
        for entry in pool:
            assert len(serialize.fan_from_dict(pool_fan_doc(entry)).maximal_cones) == len(entry["cones"])
        assert len(pool) == 300

    @pytest.mark.parametrize("lift", [False, True])
    def test_a_pairwise_loop_that_accepts_an_overlap_is_an_invariant_violation(self, monkeypatch, lift):
        monkeypatch.setattr(fan, "_meet_in_common_face", lambda c1, c2: True)
        cones = winding_cones(WINDING_TWICE[0], lift)
        with pytest.raises(InvariantViolation, match="no pair"):
            Fan(cones[0].ambient_dim, tuple(cones))
        with pytest.raises(InvariantViolation, match="no pair"):
            Fan(2, tuple(half_plane_chain(64)) + (OVERLAPPING,))


class TestSmallestContainingCone:
    def test_interior_of_skew_cone(self):
        fan = Fan(2, (Cone(((4, 1), (0, 1))), Cone(((4, 1), (0, -1)))))
        rays, coeffs = smallest_containing_cone(fan, (1, 0))
        assert rays == ((0, -1), (4, 1))
        assert dict(zip(rays, coeffs)) == {
            (4, 1): Fraction(1, 4),
            (0, -1): Fraction(1, 4),
        }

    def test_ray_itself(self):
        fan = standard_fibration_fan(2)
        rays, coeffs = smallest_containing_cone(fan, (0, 1))
        assert rays == ((0, 1),)
        assert coeffs == (1,)

    def test_interior_point_dimension_three(self):
        fan = standard_fibration_fan(3)
        rays, coeffs = smallest_containing_cone(fan, (1, 1, 1))
        assert rays == ((0, 0, 1), (0, 1, 0), (1, 0, 0))
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
        rays, coeffs = smallest_containing_cone(fine, (2, 1, 1))
        assert rays == ((2, 1, 1),)
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
            assert support_contains(fan, point) == support_contains(fine, point)


def test_subdivision_preserves_ray_primitivity_and_simpliciality():
    fan = standard_fibration_fan(3)
    for ray in ((1, 1, 1), (2, 1, 0), (1, 0, -1)):
        fan = star_subdivide(fan, ray)
    for cone in fan.maximal_cones:
        assert len(cone.rays) == fan.ambient_dim
        assert multiplicity(cone) >= 1
