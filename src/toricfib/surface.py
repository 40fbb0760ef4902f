"""Exact intersection numbers on toric surfaces, and the chain family of
blowups that realizes an arbitrarily multiple fiber component.

The curve of a ray of a 2-dimensional fan is complete when the ray lies in
exactly two maximal cones.  A divisor is intersected with it by shifting
the divisor by a character to vanish on one of the two cones and reading
off the leftover coefficient across the other (Fulton, Introduction to
toric varieties, sections 2.5 and 3.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .criterion import certify
from .divisors import (
    ToricDivisor,
    canonical_divisor,
    character_divisor,
    cone_witness,
    log_discrepancy,
    ray_divisor,
    zero_divisor,
)
from .exactmath import InvariantViolation, Rat, check_int, ensure_rational, lattice_vector
from .fan import Cone, Fan, multiplicity
from .models import FibrationModel, model_V, model_Y


def intersect(fan: Fan, divisor: ToricDivisor, ray: Sequence[int]) -> Rat:
    """Exact intersection number of a divisor on a 2-dimensional fan with
    the complete curve of a ray.

    The divisor is shifted by a character so that it vanishes on the rays
    of the first of the two maximal cones holding the ray (characters pair
    to zero with complete curves); what remains at the other ray of the
    second cone, divided by that cone's multiplicity, is the intersection
    number.  The choice of cone does not matter.
    """
    vec = lattice_vector(ray)
    if fan.ambient_dim != 2:
        raise ValueError("intersection numbers need a 2-dimensional fan")
    if divisor.fan != fan:
        raise ValueError("divisor does not live on this fan")
    if vec not in fan.ray_set:
        raise ValueError(f"{vec} is not a ray of the fan")
    cones = [cone for cone in fan.maximal_cones if vec in cone.rays]
    if len(cones) != 2:
        raise ValueError("curve not complete")
    first, second = cones
    (other,) = (r for r in second.rays if r != vec)
    shifted = divisor + character_divisor(fan, cone_witness(divisor, first))
    return shifted.coefficient(other) / multiplicity(second)


@dataclass(frozen=True)
class ChainModels:
    """The two contractions Y and V of the blowup chain over the standard
    surface fan that realizes the vector (n, 1)."""

    n: int
    y: FibrationModel
    v: FibrationModel


def example_models(n: int) -> ChainModels:
    """Blowing up X n times, starting at the meeting point of the rays
    (0, 1) and (1, 0) and continuing against (1, 0), inserts the rays
    (1, 1), ..., (n, 1); contracting all of them but (n, 1) gives Y, and
    contracting (1, 0) as well gives V, the V model of (n, 1).  Y and V
    are built directly."""
    check_int(n, "n", 1)
    y_cones = (((0, 1), (n, 1)), ((n, 1), (1, 0)), ((1, 0), (0, -1)))
    y_fan = Fan(2, tuple(Cone(rays) for rays in y_cones))
    return ChainModels(n=n, y=FibrationModel(y_fan, (n, 1)), v=model_V(2, (n, 1)))


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
    check_int(n, "n", 2)
    eps = ensure_rational(eps)
    chain = example_models(n)
    t_ray = (n, 1)
    d_ray = (1, 0)

    a = log_discrepancy(chain.v.fan, zero_divisor(chain.v.fan), d_ray)
    y_fan = chain.y.fan
    d_dot_t = intersect(y_fan, ray_divisor(y_fan, d_ray), t_ray)
    y = model_Y(chain.v, d_ray, r, eps)
    if y.model.fan != y_fan:
        raise InvariantViolation("chain Y-fan disagrees with the model construction")
    pairing = intersect(y_fan, canonical_divisor(y_fan) + y.theta, t_ray)
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
