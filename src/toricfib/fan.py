"""Simplicial rational cones and fans of toric fibrations over the line.

Cones are generated by primitive, linearly independent rays.  The fans
built here all live in the half-space x_1 >= 0 and fiber over the affine
line through the first coordinate.

Every cone is full dimensional: it has d rays in dimension d, and a face
of a cone is just a subset of its rays.  A cone builds the integer inverse
(adj, det) of its ray matrix once, at construction, with
``exactmath.inverse`` (by the nine 2 x 2 cofactors in dimension 3, by one
fraction-free elimination in any other); det != 0 is its independence
check.  Coordinates, functionals, facet normals, the multiplicity, the
lattice points of the cone's box and the walls of the fan check are all
read off it.

Every ``Fan`` is validated in full when it is constructed, whether a
caller or this package built it, whatever its number of cones: every pair
of its maximal cones must meet in the face spanned by their shared rays.

The check runs wall by wall first.  A wall is the d-1 rays a cone keeps
when it drops one.  When every wall lies in at most two cones, on opposite
sides of it, the walls that lie in one cone all lie on the boundary of
the cone spanned by every ray, and one interior point lies in a single
cone, the cones cover their support exactly once and so meet in common
faces (``_walls_cover_once``: a pseudo-manifold that covers one point once
is a triangulation; De Loera, Rambau, Santos, *Triangulations*, 2010,
§4.5).
The normal of each wall and the side of each dropped ray are read off the
rows of adj, so the check computes no determinant.

A fan the walls cannot accept goes pair by pair, and the pairwise test is
also the oracle of the wall check.  A pair is first tried against an
integer separation certificate (a hyperplane m = 0 with m >= 0 on one
cone and m <= 0 on the other that cuts one of them in exactly the shared
face; Cox-Little-Schenck, *Toric Varieties*, Lemma 1.2.13), which costs a
few integer dot products and decides nearly every pair met in practice.  A
pair it cannot decide goes to an exact, complete enumeration of the
extreme rays of the intersection.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Sequence

from .exactmath import (
    InvariantViolation,
    LatticeVector,
    RationalVector,
    check_int,
    det,
    ensure_rational,
    inverse,
    lattice_vector,
    primitive,
)


@dataclass(frozen=True)
class Cone:
    """A full-dimensional simplicial cone: d primitive, independent rays in
    dimension d.

    Rays are stored sorted, so equality and hashing are order-free.  The
    cone computes the integer inverse of its ray matrix at construction,
    as (adjugate, determinant) by ``exactmath.inverse``: from the cofactors
    in dimension 3, from one elimination in any other.  A nonzero
    determinant is its independence check, and ``coefficients``,
    ``functional``, ``contains``, ``facet_normals``, ``box_points``,
    ``multiplicity`` and the wall check of ``Fan`` all read that inverse;
    ``box_points`` gives the box as integer numerators over |det|,
    unsorted.
    """

    rays: tuple[LatticeVector, ...]

    def __post_init__(self) -> None:
        rays = tuple(lattice_vector(r) for r in self.rays)
        if not rays:
            raise ValueError("a cone needs at least one ray")
        dim = len(rays[0])
        for r in rays:
            if len(r) != dim:
                raise ValueError("ray dimension mismatch")
            if math.gcd(*r) != 1:
                raise ValueError(f"ray {r} is not primitive")
        if len(set(rays)) != len(rays):
            raise ValueError("duplicate rays")
        rays = tuple(sorted(rays))
        if len(rays) < dim:
            raise ValueError(f"cone {rays} is not full dimensional")
        inv = inverse(list(zip(*rays))) if len(rays) == dim else None
        if inv is None:
            raise ValueError("cone rays must be linearly independent")
        object.__setattr__(self, "rays", rays)
        # (adj, det) of the matrix whose columns are the rays: the
        # coordinates of v on the rays are adj v / det
        object.__setattr__(self, "_inverse", inv)

    @property
    def ambient_dim(self) -> int:
        return len(self.rays)

    def coefficients(self, v: Sequence[int | Fraction]) -> RationalVector:
        """Coordinates of v on the rays."""
        vec = [x if isinstance(x, (int, Fraction)) else ensure_rational(x) for x in v]
        if len(vec) != self.ambient_dim:
            raise ValueError("target dimension mismatch")
        adj, base = self._inverse
        return tuple(Fraction(sum(a * x for a, x in zip(row, vec)), base) for row in adj)

    def functional(self, values: Sequence[int | Fraction]) -> RationalVector:
        """The linear functional taking the i-th value at the i-th ray: the
        combination of the rows of the inverse ray matrix, adj / det, with
        the values as weights."""
        adj, base = self._inverse
        return tuple(
            Fraction(sum(x * row[j] for x, row in zip(values, adj)), base)
            for j in range(self.ambient_dim)
        )

    def contains(self, v: Sequence[int | Fraction]) -> bool:
        return all(c >= 0 for c in self.coefficients(v))

    @cached_property
    def facet_normals(self) -> tuple[LatticeVector, ...]:
        """Primitive inward facet normals, one per ray: the i-th vanishes on
        every ray but the i-th and is positive there.  They are the rows of
        the inverse ray matrix, i.e. of the adjugate up to the sign of the
        determinant."""
        adj, base = self._inverse
        sign = 1 if base > 0 else -1
        return tuple(primitive(tuple(sign * a for a in row)) for row in adj)

    def box_points(self) -> tuple[int, list[tuple[LatticeVector, tuple[int, ...]]]]:
        """(D, points): D = |det| of the ray matrix and, for each lattice
        point of the half-open box, the pair (point, nums) where nums / D
        are its coefficients on the rays.  The numerators are integers in
        [0, D), in no particular order; as a set the points are exactly
        ``exactmath.parallelepiped_points(self.rays)``, read off the inverse
        instead of a Smith normal form.

        Let A be the ray matrix and s the sign of det A.  The map
        p -> s adj(A) p mod D from Z^d to (Z/D)^d has kernel A Z^d, since
        s adj(A) p / D = A^-1 p is integral exactly for p in A Z^d.  So it
        embeds Z^d / A Z^d, a group of order D, in (Z/D)^d, and its image is
        the subgroup generated by the columns of s adj(A) mod D, which is
        the one the columns of adj(A) generate, whatever s.  Each coset has
        exactly one point in the box, A nums / D for its image nums, which
        is therefore integral.  Its order and the integrality of every
        A nums / D are checked.  When D = 1 the box is the origin alone.

        The subgroup is built one generator h at a time: if G is the group
        so far and o the least j >= 1 with j h in G, then <G, h> is the
        disjoint union of the cosets G + j h for 0 <= j < o.  They are
        disjoint, as G + i h = G + j h with i < j < o puts (j - i) h in G,
        against the choice of o; and their union holds G and h and is closed under addition, since
        (G + i h) + (G + j h) = G + (i + j) h and o h lies in G.  So each
        element is built once.  For 0 < i < j, j h lies in G + i h only if
        (j - i) h lies in G, so testing j h against the cosets built so far
        stops at j = o.
        """
        adj, base = self._inverse
        size = abs(base)
        zero = (0,) * self.ambient_dim
        if size == 1:
            return 1, [(zero, zero)]
        group = {zero}
        for column in zip(*adj):
            h = tuple(x % size for x in column)
            subgroup = list(group)
            shift = h
            while shift not in group:
                group.update(tuple((x + y) % size for x, y in zip(g, shift)) for g in subgroup)
                shift = tuple((x + y) % size for x, y in zip(shift, h))
        if len(group) != size:
            raise InvariantViolation("box numerators do not form a group of order |det|")
        rows = list(zip(*self.rays))
        points = []
        for nums in group:
            point = []
            for row in rows:
                q, rem = divmod(sum(map(operator.mul, row, nums)), size)
                if rem:
                    raise InvariantViolation("box coset representative is not a lattice point")
                point.append(q)
            points.append((tuple(point), nums))
        return size, points


def multiplicity(cone: Cone) -> int:
    """Index of the ray-generated sublattice in Z^d, |det| of the ray
    matrix, read off the cone's inverse; 1 exactly when the cone is
    smooth."""
    return abs(cone._inverse[1])


def _idot(u: Sequence[int], v: Sequence[int]) -> int:
    return sum(map(operator.mul, u, v))


def _cross(rows: Sequence[LatticeVector], dim: int) -> list[int]:
    """The generalized cross product of dim-1 integer rows: the vector of
    signed maximal minors.  It is orthogonal to every row, its dot product
    with a vector v is the determinant of v followed by the rows, which is
    (-1)^(dim-1) times the determinant of the rows followed by v, and it is
    zero exactly when the rows are dependent."""
    return [
        (-1) ** j * det([[row[c] for c in range(dim) if c != j] for row in rows])
        for j in range(dim)
    ]


def _kernel_direction(rows: list[LatticeVector], dim: int) -> LatticeVector | None:
    # One-dimensional kernel of a (dim-1)-row integer system; None when the
    # rows are dependent.
    minors = _cross(rows, dim)
    if not any(minors):
        return None
    return primitive(tuple(minors))


def _walls_cover_once(cones: Sequence[Cone]) -> bool | None:
    """Whether distinct full-dimensional simplicial cones in dimension
    d >= 2 pairwise meet in the faces spanned by their shared rays, decided
    from their walls: True accepts, False proves an overlap, and None
    decides nothing.

    A wall is the d-1 rays a cone keeps when it drops one ray; its normal h
    is their cross product, and the dropped ray lies on the side
    sign(h . dropped), never 0 as the rays are independent.  Both are read
    off the cone's inverse (adj, det): for the i-th ray dropped, expanding
    det along column i gives h = (-1)^i adj[i], the same vector from every
    cone on the wall as it depends on the wall alone.  So the side is the
    sign of h . dropped = (-1)^i det, and the inward normal sign(det) adj[i]
    is the cone's i-th facet normal.  The check accepts when
      (a) every wall lies in at most two cones, and two cones on one wall
          lie on opposite sides of it;
      (b) the primitive inward normal m of every wall in only one cone
          has m . r >= 0 for every ray r;
      (c) p, the sum of the first cone's rays, lies in no other cone.

    Proof.  Let K be the cone spanned by every ray, and N(x) count the
    cones that contain a point x on no wall hyperplane.  By (b) a wall in
    one cone lies in a hyperplane m = 0 with m >= 0 on K, so in the
    boundary of K.  Near a point x of the interior of K on no (d-2)-face
    of a cone, each cone holds x in its interior, misses x, or holds x in
    the relative interior of one of its walls.  Such a wall is not on the
    boundary of K, so it is one of (a)'s pairs, on opposite sides of one
    hyperplane, and near x N(y) is the count of cones holding x in their
    interior plus one per such pair: N is locally constant.  The interior
    of K, a convex open set that holds the first cone's interior, minus
    the (d-2)-faces of the cones is connected as d >= 2, so N is constant
    on it.  p lies in the interior of the first cone, hence of K, and by
    (c) in no other cone, so N = 1 and the interiors of the cones, which
    lie in the interior of K, are pairwise disjoint.  The same argument on
    the link of a face F (the cones containing F, modulo the span of F)
    shows that the cones containing F cover a neighbourhood, within K, of
    every point of the relative interior of F.  Now let x lie in two
    cones, and F be the face of the first whose relative interior holds x.
    The second cone has interior points near x, and each lies in exactly
    one cone, which must contain F; so the second contains F, F is its
    smallest face through x too, and x lies in the face of shared rays.

    Conversely a failure of (a) or (c) proves an overlap: a wall in three
    cones puts two on one side; two cones on one side of a wall share the
    points near its relative interior on that side; and a cone holding p
    holds interior points of the first cone.  A failure of (b) alone
    proves nothing, as a fan whose support is not convex, such as
    <(1, 0), (0, 1)> with <(0, 1), (-1, -1)>, may be valid.
    """
    # each wall's cones, with the side of the ray each drops
    walls: dict[tuple[LatticeVector, ...], list[tuple[int, Cone, int]]] = {}
    for cone in cones:
        positive = cone._inverse[1] > 0
        for i in range(len(cone.rays)):
            side = 1 if positive == (i % 2 == 0) else -1
            walls.setdefault(cone.rays[:i] + cone.rays[i + 1 :], []).append((side, cone, i))
    boundary = set()
    for seen in walls.values():
        if len(seen) == 1:
            _, cone, i = seen[0]
            boundary.add(cone.facet_normals[i])
        elif len(seen) > 2 or seen[0][0] == seen[1][0]:
            return False
    p = [sum(column) for column in zip(*cones[0].rays)]
    for cone in cones[1:]:
        adj, base = cone._inverse
        if all(base * _idot(row, p) >= 0 for row in adj):
            return False
    rays = {ray for cone in cones for ray in cone.rays}
    if any(_idot(m, ray) < 0 for m in boundary for ray in rays):
        return None
    return True


def _separated(c1: Cone, c2: Cone, shared: frozenset) -> bool:
    """Whether a hyperplane m = 0 built from c1's inward normals at its
    unshared rays certifies that the cones meet in their shared face.

    Such an m is >= 0 on c1 and 0 on the shared rays.  If m <= 0 on c2 as
    well, the cones meet inside m = 0, hence in the intersection of the
    faces that m = 0 cuts from each; that is the shared face as soon as
    one of the two is.  The sum of the normals is positive on c1's
    unshared rays, so it cuts c1 in the shared face and needs m <= 0 on
    c2's unshared rays.  A single normal vanishes on c1's other rays, so
    it needs m < 0 on c2's unshared rays.
    """
    normals = [h for ray, h in zip(c1.rays, c1.facet_normals) if ray not in shared]
    others = [ray for ray in c2.rays if ray not in shared]
    total = [sum(column) for column in zip(*normals)]
    if all(_idot(total, ray) <= 0 for ray in others):
        return True
    return any(all(_idot(h, ray) < 0 for ray in others) for h in normals)


def _meet_by_enumeration(c1: Cone, c2: Cone, shared: frozenset) -> bool:
    """Exact, complete test that two full-dimensional simplicial cones
    intersect in the cone spanned by their shared rays.

    Every extreme ray of the intersection is the kernel of d-1 independent
    facet hyperplanes drawn from the two cones, so enumerating those
    candidates finds them all.  A candidate v in c1 lies in the shared face
    exactly when it is orthogonal to c1's normals at its unshared rays.
    """
    d = c1.ambient_dim
    outside = [h for ray, h in zip(c1.rays, c1.facet_normals) if ray not in shared]
    halfspaces = c1.facet_normals + c2.facet_normals
    for subset in itertools.combinations(halfspaces, d - 1):
        direction = _kernel_direction(list(subset), d)
        if direction is None:
            continue
        for v in (direction, tuple(-x for x in direction)):
            if all(_idot(h, v) >= 0 for h in halfspaces):
                if any(_idot(h, v) != 0 for h in outside):
                    return False
                break
    return True


def _meet_in_common_face(c1: Cone, c2: Cone) -> bool:
    """Whether two full-dimensional simplicial cones intersect in the cone
    spanned by their shared rays: the separation certificate either way
    round, else the exact enumeration."""
    shared = frozenset(c1.rays).intersection(c2.rays)
    return (
        _separated(c1, c2, shared)
        or _separated(c2, c1, shared)
        or _meet_by_enumeration(c1, c2, shared)
    )


@dataclass(frozen=True)
class Fan:
    """A finite collection of simplicial maximal cones meeting along faces."""

    ambient_dim: int
    maximal_cones: tuple[Cone, ...]

    def __post_init__(self) -> None:
        check_int(self.ambient_dim, "ambient_dim", 1)
        cones = tuple(self.maximal_cones)
        if not cones:
            raise ValueError("a fan needs at least one maximal cone")
        for c in cones:
            if not isinstance(c, Cone):
                raise TypeError("maximal_cones must be Cone instances")
            if c.ambient_dim != self.ambient_dim:
                raise ValueError("cone ambient dimension mismatch")
        if len(set(cones)) != len(cones):
            raise ValueError("duplicate maximal cones")
        cones = tuple(sorted(cones, key=lambda c: c.rays))
        object.__setattr__(self, "maximal_cones", cones)
        self._validate()

    def _validate(self) -> None:
        cones = self.maximal_cones
        walls = _walls_cover_once(cones) if self.ambient_dim >= 2 else None
        if walls:
            return
        for c1, c2 in itertools.combinations(cones, 2):
            if not _meet_in_common_face(c1, c2):
                raise ValueError(
                    f"cones {c1.rays} and {c2.rays} do not meet in a common face"
                )
        if walls is False:
            raise InvariantViolation("the walls show an overlap that no pair of cones shows")

    @cached_property
    def rays(self) -> tuple[LatticeVector, ...]:
        return tuple(sorted(self.ray_set))

    @cached_property
    def ray_set(self) -> frozenset[LatticeVector]:
        return frozenset(r for c in self.maximal_cones for r in c.rays)

    def containing_cone(
        self, v: Sequence[int | Fraction]
    ) -> tuple[Cone, RationalVector] | None:
        for cone in self.maximal_cones:
            coeffs = cone.coefficients(v)
            if all(c >= 0 for c in coeffs):
                return cone, coeffs
        return None


@lru_cache(maxsize=16)
def horizontal_rays(d: int) -> tuple[LatticeVector, ...]:
    """e_2, ..., e_d and c = -(e_2 + ... + e_d): the rays of the smooth fan
    of P^{d-1} in the hyperplane x_1 = 0."""
    return tuple(tuple(int(i == j) for i in range(d)) for j in range(1, d)) + ((0,) + (-1,) * (d - 1),)


def fibration_fan(d: int, n: LatticeVector) -> Fan:
    """The fan whose maximal cones are spanned by n together with each
    (d-1)-subset of ``horizontal_rays(d)``."""
    subsets = itertools.combinations(horizontal_rays(d), d - 1)
    return Fan(d, tuple(Cone((n,) + subset) for subset in subsets))


def standard_fibration_fan(d: int) -> Fan:
    """The fan of the projective-space bundle of rank d-1 over the line:
    ``fibration_fan`` of e_1.  Its support is the half-space x_1 >= 0."""
    check_int(d, "d", 2)
    return fibration_fan(d, (1,) + (0,) * (d - 1))


def smallest_containing_cone(
    fan: Fan, l: Sequence[int]
) -> tuple[tuple[LatticeVector, ...], RationalVector]:
    """(rays, coefficients) of the unique smallest cone of the fan
    containing l: the rays of a maximal cone containing l on which l has a
    strictly positive coordinate, in that cone's sorted order, and those
    coordinates."""
    vec = lattice_vector(l)
    if all(e == 0 for e in vec):
        raise ValueError("zero vector has no containing cone")
    located = fan.containing_cone(vec)
    if located is None:
        raise ValueError("vector not in fan support")
    cone, coeffs = located
    positive = [(ray, c) for ray, c in zip(cone.rays, coeffs) if c > 0]
    return tuple(ray for ray, _ in positive), tuple(c for _, c in positive)


def star_subdivide(fan: Fan, l: Sequence[int]) -> Fan:
    """Refine the fan by inserting the ray l through every cone containing it.

    Each maximal cone over l is replaced by the cones spanned by l together
    with its facets that miss the relative interior of l's smallest cone.
    """
    vec = lattice_vector(l)
    if math.gcd(*vec) != 1:
        raise ValueError("subdivision ray must be primitive")
    if vec in fan.ray_set:
        raise ValueError("already extracted")
    tau, _ = smallest_containing_cone(fan, vec)
    tau_rays = set(tau)
    new_cones: list[Cone] = []
    for cone in fan.maximal_cones:
        if tau_rays <= set(cone.rays):
            for dropped in tau:
                kept = tuple(r for r in cone.rays if r != dropped)
                new_cones.append(Cone(kept + (vec,)))
        else:
            new_cones.append(cone)
    return Fan(fan.ambient_dim, tuple(new_cones))
