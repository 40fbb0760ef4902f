"""Toric divisors on fibration fans: support functions, log discrepancies,
minimal log discrepancy search, pullbacks along star subdivisions, and
relative linear equivalence over the affine base.

Sign convention, fixed once: the support function of a divisor D takes the
value -coeff_D(u) at every ray u, and the divisor of the character with
exponent m has coefficient <m, u> at u.  Consequently two divisors are
Q-linearly equivalent over the base exactly when their difference plus
some character divisor vanishes, and that character exponent is the
witness returned here.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Mapping, Sequence

from .exactmath import (
    InvariantViolation,
    LatticeVector,
    Rat,
    RationalVector,
    dot,
    ensure_rational,
    is_primitive,
    lattice_vector,
    rational_vector,
    solve_in_basis,
)
from .fan import Cone, Fan, smallest_containing_cone, star_subdivide


@dataclass(frozen=True)
class ToricDivisor:
    """A formal Q-combination of the rays of a fan.

    Only nonzero coefficients are stored; rays absent from the table have
    coefficient zero.
    """

    fan: Fan
    entries: tuple[tuple[LatticeVector, Rat], ...]

    def __post_init__(self) -> None:
        rays = self.fan.ray_set
        seen = set()
        normalized = []
        for ray, coeff in self.entries:
            ray = lattice_vector(ray)
            coeff = ensure_rational(coeff)
            if ray not in rays:
                raise ValueError(f"{ray} is not a ray of the fan")
            if ray in seen:
                raise ValueError(f"duplicate coefficient for ray {ray}")
            seen.add(ray)
            if coeff != 0:
                normalized.append((ray, coeff))
        normalized.sort()
        object.__setattr__(self, "entries", tuple(normalized))

    @classmethod
    def make(cls, fan: Fan, coefficients: Mapping[LatticeVector, int | Rat]) -> "ToricDivisor":
        return cls(fan, tuple(coefficients.items()))

    @cached_property
    def _table(self) -> dict[LatticeVector, Rat]:
        return dict(self.entries)

    def coefficient(self, ray: Sequence[int]) -> Rat:
        ray = lattice_vector(ray)
        if ray not in self.fan.ray_set:
            raise ValueError(f"{ray} is not a ray of the fan")
        return self._table.get(ray, Fraction(0))

    def as_dict(self) -> dict[LatticeVector, Rat]:
        return dict(self.entries)

    def is_zero(self) -> bool:
        return not self.entries

    def _combine(self, other: "ToricDivisor", sign: int) -> "ToricDivisor":
        if self.fan != other.fan:
            raise ValueError("divisors live on different fans")
        table = self.as_dict()
        for ray, coeff in other.entries:
            table[ray] = table.get(ray, Fraction(0)) + sign * coeff
        return ToricDivisor.make(self.fan, table)

    def __add__(self, other: "ToricDivisor") -> "ToricDivisor":
        return self._combine(other, 1)

    def __sub__(self, other: "ToricDivisor") -> "ToricDivisor":
        return self._combine(other, -1)

    def __rmul__(self, scalar: int | Rat) -> "ToricDivisor":
        s = ensure_rational(scalar)
        return ToricDivisor.make(self.fan, {r: s * c for r, c in self.entries})

    __mul__ = __rmul__


def zero_divisor(fan: Fan) -> ToricDivisor:
    return ToricDivisor(fan, ())


def ray_divisor(fan: Fan, ray: Sequence[int]) -> ToricDivisor:
    return ToricDivisor.make(fan, {lattice_vector(ray): Fraction(1)})


def canonical_divisor(fan: Fan) -> ToricDivisor:
    """Minus the sum of all prime toric divisors."""
    return ToricDivisor.make(fan, {r: Fraction(-1) for r in fan.rays})


def horizontal_sum(fan: Fan) -> ToricDivisor:
    """The sum of the prime toric divisors that dominate the base, i.e. the
    rays with vanishing first coordinate."""
    return ToricDivisor.make(fan, {r: Fraction(1) for r in fan.rays if r[0] == 0})


def character_divisor(fan: Fan, exponent: Sequence[int | Rat]) -> ToricDivisor:
    """The divisor of the character with the given exponent vector:
    coefficient <m, u> at every ray u."""
    m = rational_vector(exponent)
    return ToricDivisor.make(fan, {r: dot(m, r) for r in fan.rays})


@dataclass(frozen=True)
class SupportFunction:
    """Piecewise-linear witness of a Q-Cartier divisor: one linear
    functional per maximal cone, taking the value -coeff(u) at each ray u."""

    fan: Fan
    witnesses: tuple[tuple[Cone, RationalVector], ...]

    def witness_on(self, cone: Cone) -> RationalVector:
        for c, m in self.witnesses:
            if c == cone:
                return m
        raise ValueError("cone is not a maximal cone of the fan")

    def value(self, point: Sequence[int | Rat]) -> Rat:
        for cone, m in self.witnesses:
            if cone.contains(point):
                return dot(m, rational_vector(point))
        raise ValueError("vector not in fan support")


def cone_witness(divisor: ToricDivisor, cone: Cone) -> RationalVector:
    """The piece of the support function of a divisor on one full
    dimensional cone: the functional m read off the cone's cached inverse,
    checked to take the value -coeff(u) at each ray u of the cone."""
    values = [-divisor.coefficient(r) for r in cone.rays]
    m = cone.functional(values)
    if any(dot(m, ray) != value for ray, value in zip(cone.rays, values)):
        raise InvariantViolation("support function pieces disagree on a face")
    return m


def support_function(divisor: ToricDivisor) -> SupportFunction:
    """The support function of a divisor on a simplicial fan.

    Every maximal cone is full dimensional, so every divisor here is
    Q-Cartier, with one ``cone_witness`` per maximal cone.  Each piece is
    checked to take the value -coeff(u) at each of its rays u, so pieces
    sharing a ray agree there, and hence on shared faces.
    """
    fan = divisor.fan
    return SupportFunction(
        fan, tuple((cone, cone_witness(divisor, cone)) for cone in fan.maximal_cones)
    )


def log_discrepancy(
    fan: Fan, boundary: ToricDivisor, l: Sequence[int]
) -> Rat:
    """Log discrepancy of the toric valuation of the primitive vector l with
    respect to the pair (fan, boundary): sum of c_i * (1 - b_i) over the
    decomposition of l on its smallest containing cone."""
    vec = lattice_vector(l)
    if not is_primitive(vec):
        raise ValueError("log discrepancies are attached to primitive vectors")
    _check_boundary(fan, boundary)
    rays, coeffs = smallest_containing_cone(fan, vec)
    return sum(
        (c * (1 - boundary.coefficient(r)) for r, c in zip(rays, coeffs)),
        Fraction(0),
    )


def _check_boundary(fan: Fan, boundary: ToricDivisor) -> None:
    if boundary.fan != fan:
        raise ValueError("boundary lives on a different fan")
    if any(c > 1 for _, c in boundary.entries):
        raise ValueError("boundary coefficients must be <= 1")


@lru_cache(maxsize=16)
def toric_mld(fan: Fan, boundary: ToricDivisor) -> tuple[Rat, LatticeVector]:
    """Minimal log discrepancy over all primitive vectors in the support,
    with a minimizer, computed in integers.

    The candidates are the rays and the primitive nonzero lattice points of
    the half-open box of each maximal cone: the discrepancy function is
    additive under adding a ray generator, whose weight is >= 0, so the
    candidates attain the minimum.  Non-primitive box points are skipped
    because their primitive representatives are box points of the same
    cone with no larger value.  The minimizer returned is the smallest
    candidate point of minimal value.  When every b < 1 it is also the
    smallest minimizer among all primitive vectors of the support; a ray
    with b = 1 has weight 0, and adding it to a minimizer gives another
    minimizer that need not be a candidate.
    ``Cone.box_points`` reads each box off the inverse the cone built at
    construction, as integer numerators nums over D = |det|.

    The weights 1 - b of the rays are read once from the boundary's table.
    With L the lcm of their denominators, W = L (1 - b) is an integer for
    every ray, and W >= 0 as b <= 1.  A box point with coefficients nums / D
    has log discrepancy sum(nums_i W_i) / (D L), and a ray has W / L, which
    is W over D L with D = 1.  So every candidate is an integer score s over
    a positive denominator D L, and since L is common to all of them,
    s / (D L) < s' / (D' L) exactly when s D' < s' D: candidates of
    different cones are compared by cross-multiplying the integers, and
    tied values keep the smaller point, the (value, point) order of the
    ``Fraction`` form.  Only the minimum becomes a ``Fraction``.

    Primitivity is checked only for a candidate that beats the best so
    far, which is primitive itself: the running minimum over the primitive
    candidates replaces the best by x exactly when x is primitive and
    beats it, and testing the two conditions in the other order changes
    nothing.  The origin has gcd 0 and is never kept.
    """
    _check_boundary(fan, boundary)
    table = boundary._table
    scale = math.lcm(*(b.denominator for b in table.values()))
    weights = {ray: scale for ray in fan.rays}
    for ray, b in table.items():
        weights[ray] = scale - b.numerator * (scale // b.denominator)
    best_score, best_point = min((w, ray) for ray, w in weights.items())
    best_size = 1
    mul = operator.mul
    for cone in fan.maximal_cones:
        size, points = cone.box_points()
        cone_weights = [weights[r] for r in cone.rays]
        for point, nums in points:
            score = sum(map(mul, nums, cone_weights))
            lhs, rhs = score * best_size, best_score * size
            if (lhs < rhs or (lhs == rhs and point < best_point)) and math.gcd(*point) == 1:
                best_score, best_size, best_point = score, size, point
    return Fraction(best_score, best_size * scale), best_point


@dataclass(frozen=True)
class Subdivision:
    """The star subdivision of the coarse fan at new_ray (Cox-Little-Schenck,
    *Toric Varieties*, 3.3).  The fine fan is built from the other two
    fields, once, so a record always holds the fans it relates."""

    coarse: Fan
    new_ray: LatticeVector
    fine: Fan = field(init=False)

    def __post_init__(self) -> None:
        ray = lattice_vector(self.new_ray)
        object.__setattr__(self, "new_ray", ray)
        object.__setattr__(self, "fine", star_subdivide(self.coarse, ray))

    @classmethod
    def at(cls, fan: Fan, l: Sequence[int]) -> "Subdivision":
        """The star subdivision of the fan at l."""
        return cls(fan, l)


def pullback(subdivision: Subdivision, divisor: ToricDivisor) -> ToricDivisor:
    """Pull a divisor back along a star subdivision: old coefficients are
    kept and the new ray receives minus the support-function value there."""
    if divisor.fan != subdivision.coarse:
        raise ValueError("divisor does not live on the coarse fan")
    table = divisor.as_dict()
    table[subdivision.new_ray] = -support_function(divisor).value(subdivision.new_ray)
    return ToricDivisor.make(subdivision.fine, table)


def rel_lin_equiv(
    fan: Fan, first: ToricDivisor, second: ToricDivisor
) -> RationalVector | None:
    """Witness of Q-linear equivalence over the affine base.

    Returns the character exponent m with <m, u> = -(first - second)(u) at
    every ray u when it exists, i.e. first - second + div(chi^m) = 0; such
    divisors are exactly those trivial over the base.  Returns None when
    the divisors are not equivalent.
    """
    if first.fan != fan or second.fan != fan:
        raise ValueError("divisors live on a different fan")
    diff = first - second
    # the columns of the ray matrix are independent: every fan is full dimensional
    columns = [tuple(r[i] for r in fan.rays) for i in range(fan.ambient_dim)]
    return solve_in_basis(columns, [-diff.coefficient(r) for r in fan.rays])
