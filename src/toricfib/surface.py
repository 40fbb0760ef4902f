"""Exact intersection numbers on toric fibration surfaces, and the chain
family of blowups that realizes an arbitrarily multiple fiber component.

Surface fans here live in the closed half-plane x_1 >= 0, bounded by the
rays (0, 1) and (0, -1); maximal cones are consecutive pairs in the
angular order.  A divisor is intersected with the complete curve of an
interior ray by normalizing it to vanish on one adjacent cone and reading
off the leftover coefficient across the other.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .criterion import certify
from .divisors import (
    ToricDivisor,
    canonical_divisor,
    character_divisor,
    log_discrepancy,
    ray_divisor,
    support_function,
    zero_divisor,
)
from .exactmath import InvariantViolation, LatticeVector, Rat, ensure_rational, lattice_vector
from .fan import Cone, Fan, multiplicity
from .models import FibrationModel, model_Y


def _angular_order(rays: Sequence[LatticeVector]) -> list[LatticeVector]:
    # Clockwise from (0, 1) to (0, -1); interior rays sort by exact slope.
    def key(r: LatticeVector) -> tuple[int, Fraction]:
        if r == (0, 1):
            return (0, Fraction(0))
        if r == (0, -1):
            return (2, Fraction(0))
        if r[0] <= 0:
            raise ValueError(f"{r} is not a ray of the open right half-plane")
        return (1, Fraction(-r[1], r[0]))

    ordered = sorted(rays, key=key)
    for u, v in zip(ordered, ordered[1:]):
        if key(u) == key(v):
            raise ValueError("proportional rays cannot be angularly ordered")
    return ordered


@dataclass(frozen=True)
class SurfaceModel:
    """A 2-dimensional fibration fan with its rays in angular order."""

    rays: tuple[LatticeVector, ...]

    def __post_init__(self) -> None:
        rays = tuple(lattice_vector(r) for r in self.rays)
        if len(rays) < 2:
            raise ValueError("a surface model needs at least two rays")
        if any(len(r) != 2 for r in rays):
            raise ValueError("surface rays must be 2-dimensional")
        if any(r[0] < 0 for r in rays):
            raise ValueError("surface rays must satisfy x_1 >= 0")
        if (0, 1) not in rays or (0, -1) not in rays:
            raise ValueError("surface models are bounded by the rays (0, 1) and (0, -1)")
        object.__setattr__(self, "rays", tuple(_angular_order(rays)))

    @functools.cached_property
    def fan(self) -> Fan:
        return Fan(2, tuple(Cone(pair) for pair in zip(self.rays, self.rays[1:])))


def intersect(model: SurfaceModel, divisor: ToricDivisor, ray: Sequence[int]) -> Rat:
    """Exact intersection number of a divisor with the complete curve of an
    interior ray.

    The divisor is shifted by a character so that it vanishes on the rays
    of one adjacent cone (characters pair to zero with complete curves);
    what remains across the other adjacent cone, divided by that cone's
    multiplicity, is the intersection number.  The choice of side does not
    matter.
    """
    vec = lattice_vector(ray)
    if divisor.fan != model.fan:
        raise ValueError("divisor does not live on this surface")
    try:
        index = model.rays.index(vec)
    except ValueError:
        raise ValueError(f"{vec} is not a ray of the surface") from None
    if index == 0 or index == len(model.rays) - 1:
        raise ValueError("curve not complete")
    left = Cone((model.rays[index - 1], vec))
    right = Cone((vec, model.rays[index + 1]))
    witness = support_function(divisor).witness_on(left)
    shifted = divisor + character_divisor(model.fan, witness)
    return shifted.coefficient(model.rays[index + 1]) / multiplicity(right)


@dataclass(frozen=True)
class ChainModels:
    """The two contractions Y and V of the blowup chain over the standard
    surface fan that realizes the vector (n, 1), with the surface of Y that
    intersection numbers are computed on; ``y.fan`` is ``surface.fan``."""

    n: int
    surface: SurfaceModel
    y: FibrationModel
    v: FibrationModel


def example_models(n: int) -> ChainModels:
    """Blowing up X n times, starting at the meeting point of the rays
    (0, 1) and (1, 0) and continuing against (1, 0), inserts the rays
    (1, 1), ..., (n, 1); contracting all of them but (n, 1) gives Y, and
    contracting (1, 0) as well gives V.  Y and V are built directly."""
    if n < 1:
        raise ValueError("the chain needs n >= 1 blowups")
    surface = SurfaceModel(((0, 1), (n, 1), (1, 0), (0, -1)))
    v_fan = SurfaceModel(((0, 1), (n, 1), (0, -1))).fan
    return ChainModels(
        n=n,
        surface=surface,
        y=FibrationModel(surface.fan, (n, 1)),
        v=FibrationModel(v_fan, (n, 1)),
    )


@dataclass(frozen=True)
class ChainReport:
    """Exact values of the chain family identities: the discrepancy of the
    contracted divisor, its pairing with the transformed fiber, and the
    pairing of the perturbed log canonical class, each compared with its
    closed form; plus the agreement of certificate and negativity."""

    n: int
    r: int
    eps: Rat
    a: Rat
    d_dot_t: Rat
    pairing: Rat
    a_ok: bool
    d_dot_t_ok: bool
    pairing_ok: bool
    fires: bool
    coincidence_ok: bool

    @property
    def all_pass(self) -> bool:
        return self.a_ok and self.d_dot_t_ok and self.pairing_ok and self.coincidence_ok


def example_verify(n: int, r: int, eps: int | Rat) -> ChainReport:
    """Check the chain family against its closed forms: a = 2/n,
    D.T = 1, (K_Y + theta).T = -eps + 2r/n, and certificate fires exactly
    when the last pairing is negative.  r and eps are checked by
    ``model_Y``, before anything reads them."""
    if n < 2:
        raise ValueError("the verified family starts at n = 2")
    eps = ensure_rational(eps)
    chain = example_models(n)
    t_ray = (n, 1)
    d_ray = (1, 0)

    a = log_discrepancy(chain.v.fan, zero_divisor(chain.v.fan), d_ray)
    surface = chain.surface
    d_dot_t = intersect(surface, ray_divisor(surface.fan, d_ray), t_ray)
    y = model_Y(chain.v, d_ray, r, eps)
    if y.model.fan != surface.fan:
        raise InvariantViolation("chain Y-fan disagrees with the model construction")
    pairing = intersect(surface, canonical_divisor(surface.fan) + y.theta, t_ray)
    report = certify(2, r, eps, t_ray, d_ray)
    return ChainReport(
        n=n,
        r=r,
        eps=eps,
        a=a,
        d_dot_t=d_dot_t,
        pairing=pairing,
        a_ok=a == Fraction(2, n),
        d_dot_t_ok=d_dot_t == 1,
        pairing_ok=pairing == -eps + Fraction(2 * r, n),
        fires=report.fires,
        coincidence_ok=report.fires == (pairing < 0),
    )
