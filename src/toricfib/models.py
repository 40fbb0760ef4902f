"""The four fibration models attached to a pair of vertical divisors.

For a primitive vector n with positive first coordinate, the model V is
the fibration over the line whose fan replaces e_1 by n in the standard
fan; its fiber over the origin is the single prime divisor of n, with
multiplicity n_1.  Extracting a second vertical vector l from V gives Y,
and swapping the roles of n and l gives W and U.  The decomposition of l
on its smallest cone in the V-fan carries the log discrepancy and all the
coefficients the negativity certificate is built from.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Sequence

from .exactmath import (
    InvariantViolation,
    LatticeVector,
    Rat,
    RationalVector,
    ensure_rational,
    is_primitive,
    lattice_vector,
)
from .divisors import (
    Subdivision,
    ToricDivisor,
    canonical_divisor,
    character_divisor,
    horizontal_sum,
    pullback,
    ray_divisor,
    rel_lin_equiv,
    zero_divisor,
)
from .fan import Cone, Fan, smallest_containing_cone

MODEL_KINDS = ("X", "V", "Y", "W", "U")


@dataclass(frozen=True)
class FibrationModel:
    """A fan over the affine line with a distinguished vertical ray: the
    support of the fiber over the origin (for V/W) or its transform."""

    fan: Fan
    distinguished_ray: LatticeVector
    kind: str

    def __post_init__(self) -> None:
        ray = lattice_vector(self.distinguished_ray)
        object.__setattr__(self, "distinguished_ray", ray)
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}")
        if ray not in self.fan.ray_set:
            raise ValueError("distinguished ray is not a ray of the fan")
        if ray[0] <= 0:
            raise ValueError("distinguished ray must have positive first coordinate")


@dataclass(frozen=True)
class DecompositionData:
    """Coefficients of the two smallest-cone decompositions.

    gamma and alphas come from writing l = gamma*n + sum(alpha_j e_j) on the
    V-fan, a = gamma + sum(alphas) is the log discrepancy of l on V, and
    u = (r-1)*sum(alphas).  lam and betas come from the swapped
    decomposition n = lam*l + sum(beta_k f_k) on the W-fan; lam*gamma = 1.
    Fields are None until the side that computes them has run.
    """

    gamma: Rat
    alphas: tuple[tuple[LatticeVector, Rat], ...] | None = None
    a: Rat | None = None
    u: Rat | None = None
    lam: Rat | None = None
    betas: tuple[tuple[LatticeVector, Rat], ...] | None = None

    def __post_init__(self) -> None:
        gamma = ensure_rational(self.gamma)
        object.__setattr__(self, "gamma", gamma)
        if gamma <= 0:
            raise ValueError("gamma must be positive")
        if self.alphas is not None:
            alphas = tuple(sorted((lattice_vector(r), ensure_rational(c)) for r, c in self.alphas))
            if any(c <= 0 for _, c in alphas):
                raise ValueError("alpha coefficients must be strictly positive")
            object.__setattr__(self, "alphas", alphas)
            if self.a is not None and ensure_rational(self.a) != gamma + self.alpha_sum:
                raise InvariantViolation("a != gamma + sum(alphas)")
        if self.lam is not None:
            lam = ensure_rational(self.lam)
            object.__setattr__(self, "lam", lam)
            if lam * gamma != 1:
                raise InvariantViolation("lam * gamma != 1")
        if self.betas is not None:
            betas = tuple(sorted((lattice_vector(r), ensure_rational(c)) for r, c in self.betas))
            if any(c <= 0 for _, c in betas):
                raise ValueError("beta coefficients must be strictly positive")
            object.__setattr__(self, "betas", betas)

    @property
    def alpha_sum(self) -> Rat:
        if self.alphas is None:
            raise ValueError("alphas not computed")
        return sum((c for _, c in self.alphas), Fraction(0))

    @property
    def beta_sum(self) -> Rat:
        if self.betas is None:
            raise ValueError("betas not computed")
        return sum((c for _, c in self.betas), Fraction(0))

    def merged_with(self, other: "DecompositionData") -> "DecompositionData":
        """Combine the V-side and W-side halves of the data, cross-checking
        the shared gamma."""
        if other.gamma != self.gamma:
            raise InvariantViolation("the two decompositions disagree on gamma")
        return replace(self, lam=other.lam, betas=other.betas)


class YModelResult(NamedTuple):
    model: FibrationModel
    theta: ToricDivisor
    data: DecompositionData


class WUModelResult(NamedTuple):
    w: FibrationModel
    u: FibrationModel
    data: DecompositionData


def _v_vector(d: int, n: Sequence[int]) -> LatticeVector:
    vec = lattice_vector(n)
    if d < 2:
        raise ValueError("models need ambient dimension >= 2")
    if len(vec) != d:
        raise ValueError("vector dimension does not match d")
    if not is_primitive(vec):
        raise ValueError("n must be primitive")
    if vec[0] <= 0:
        raise ValueError("n must have positive first coordinate")
    return vec


def _horizontal_rays(d: int) -> list[LatticeVector]:
    """e_2, ..., e_d and c = -(e_2 + ... + e_d): the rays of the smooth fan
    of P^{d-1} in the hyperplane x_1 = 0."""
    return [tuple(int(i == j) for i in range(d)) for j in range(1, d)] + [(0,) + (-1,) * (d - 1)]


@lru_cache(maxsize=16)
def model_V(d: int, n: Sequence[int], kind: str = "V") -> FibrationModel:
    """The fibration model of a primitive vector n with n_1 > 0: maximal
    cones are spanned by n together with the (d-1)-subsets of the
    horizontal rays {e_2, ..., e_d, c}."""
    vec = _v_vector(d, n)
    cones = [
        Cone((vec,) + subset, d)
        for subset in itertools.combinations(_horizontal_rays(d), d - 1)
    ]
    return FibrationModel(Fan(d, tuple(cones)), vec, kind)


def _v_cones(
    vec: LatticeVector, horizontal: list[LatticeVector]
) -> list[tuple[list[LatticeVector], tuple[int, ...]]]:
    """For each maximal cone <n, H minus h_j> of the V model, its horizontal
    rays and the integer coordinates b of n' = n[1:] in them: b = n' when c
    is dropped; b_i = n'_i - n'_j and b_c = -n'_j when e_j is dropped."""
    tail = vec[1:]
    cones = [(horizontal[:-1], tail)]
    for j, nj in enumerate(tail):
        b = tuple(ni - nj for i, ni in enumerate(tail) if i != j) + (-nj,)
        cones.append((horizontal[:j] + horizontal[j + 1 :], b))
    return cones


def model_V_mld(d: int, n: Sequence[int]) -> tuple[Rat, LatticeVector]:
    """The minimal log discrepancy of the V model of n with zero boundary
    and its lexicographically smallest minimizer: exactly what
    ``toric_mld(model_V(d, n).fan, zero_divisor(...))`` returns, computed in
    integers from n alone, with no fan, Smith normal form or rational
    elimination.  Raises the ``ValueError``s of ``model_V``.

    Let H = (e_2, ..., e_d, c) be the horizontal rays and h_j one of them.
    They span the smooth fan of P^{d-1} in the hyperplane x_1 = 0, so the
    d-1 rays of H minus h_j are a lattice basis of that hyperplane; let b
    be the coordinates of n' = n[1:] in it (see ``_v_cones``).

    Claim: for each maximal cone sigma_j = <n, H minus h_j> and each
    k = 0, ..., n_1 - 1 the half-open box of sigma_j holds exactly one
    point with first coordinate k.  Proof: a box point is
    p = g n + sum(alpha_i h_i) with 0 <= g, alpha_i < 1.  The h_i have
    first coordinate 0, so p_1 = g n_1 and g = k/n_1 for an integer k in
    [0, n_1).  The rest of p is sum((k b_i / n_1 + alpha_i) h_i), and since
    the h_i are a lattice basis it is integral exactly when every
    k b_i / n_1 + alpha_i is an integer.  With 0 <= alpha_i < 1 that forces
    alpha_i = a_i / n_1 with a_i = (-k b_i) mod n_1, and this choice is a
    lattice point.  So the point is (k n + sum(a_i h_i)) / n_1 with log
    discrepancy (k + sum(a_i)) / n_1, and k = 0 gives the origin.

    Every nonzero box point therefore has k >= 1 and value >= 1/n_1, and
    the rays have value 1, so mld(V_n) >= 1/n_1.

    As in ``toric_mld``, non-primitive points are skipped and the d+1 rays
    enter with value 1 = n_1/n_1.  All values share the denominator n_1,
    so the minimum over (numerator, point) is the tie rule of
    ``toric_mld``.  Every division by n_1 is checked, for every candidate,
    and a remainder raises ``InvariantViolation``.
    """
    vec = _v_vector(d, n)
    n1 = vec[0]
    horizontal = _horizontal_rays(d)
    best = min((n1, ray) for ray in [vec] + horizontal)
    # per cone, row i pairs n_i with the i-th coordinates of its horizontal rays
    cones = [
        ([(ni, hs) for ni, *hs in zip(vec, *rays)], b)
        for rays, b in _v_cones(vec, horizontal)
    ]
    mul = operator.mul
    for k in range(1, n1):
        for rows, b in cones:
            a = [(-k * bi) % n1 for bi in b]
            point = []
            for ni, hs in rows:
                q, rem = divmod(k * ni + sum(map(mul, a, hs)), n1)
                if rem:
                    raise InvariantViolation("a V-model box point is not a lattice point")
                point.append(q)
            if math.gcd(*point) == 1:
                candidate = (k + sum(a), tuple(point))
                if candidate < best:
                    best = candidate
    return Fraction(best[0], n1), best[1]


def vertical_rays(fan: Fan) -> tuple[LatticeVector, ...]:
    return tuple(r for r in fan.rays if r[0] > 0)


def extracted_ray(y_model: FibrationModel) -> LatticeVector:
    """The second vertical ray of a Y/U fan, i.e. the one obtained by the
    extraction rather than the distinguished one."""
    others = [r for r in vertical_rays(y_model.fan) if r != y_model.distinguished_ray]
    if len(others) != 1:
        raise ValueError("model does not have exactly one extracted vertical ray")
    return others[0]


def _decompose_on(fan: Fan, apex: LatticeVector, vec: LatticeVector):
    """Write vec on its smallest cone in the fan; the apex ray (the fan's
    vertical generator) must participate, everything else is horizontal."""
    cone, coeffs = smallest_containing_cone(fan, vec)
    table = dict(zip(cone.rays, coeffs))
    if apex not in table:
        raise InvariantViolation("vertical generator missing from the smallest cone")
    weight = table.pop(apex)
    rest = tuple(sorted(table.items()))
    if any(r[0] != 0 for r, _ in rest):
        raise InvariantViolation("unexpected vertical ray in the decomposition")
    return weight, rest


def model_Y(
    v_model: FibrationModel, l: Sequence[int], r: int, eps: int | Rat
) -> YModelResult:
    """Extract the divisor of l from V and assemble the perturbed boundary
    (1 - eps) D + pullback(r * S_V), where S_V sums the horizontal prime
    divisors of V."""
    if not isinstance(r, int) or isinstance(r, bool) or r < 1:
        raise ValueError("r must be an integer >= 1")
    eps = ensure_rational(eps)
    if not 0 < eps <= 1:
        raise ValueError("eps must lie in (0, 1]")
    vec = lattice_vector(l)
    n = v_model.distinguished_ray
    if not is_primitive(vec):
        raise ValueError("l must be primitive")
    if vec[0] <= 0:
        raise ValueError("l must have positive first coordinate")
    if vec == n:
        raise ValueError("T and D must be distinct toric prime divisors")

    gamma, alphas = _decompose_on(v_model.fan, n, vec)
    if gamma != Fraction(vec[0], n[0]):
        raise InvariantViolation("gamma != l_1 / n_1")
    alpha_sum = sum((c for _, c in alphas), Fraction(0))
    data = DecompositionData(
        gamma=gamma,
        alphas=alphas,
        a=gamma + alpha_sum,
        u=(r - 1) * alpha_sum,
    )
    sub = Subdivision.at(v_model.fan, vec)
    theta = (1 - eps) * ray_divisor(sub.fine, vec) + pullback(sub, r * horizontal_sum(v_model.fan))
    return YModelResult(FibrationModel(sub.fine, n, "Y"), theta, data)


def model_W_U(d: int, l: Sequence[int], n: Sequence[int]) -> WUModelResult:
    """The swapped models: W is the fibration model of l, and U extracts n
    from it.  Fills the lam/betas half of the decomposition data."""
    lvec, nvec = lattice_vector(l), lattice_vector(n)
    w = model_V(d, lvec, kind="W")
    if not is_primitive(nvec):
        raise ValueError("n must be primitive")
    if nvec[0] <= 0:
        raise ValueError("n must have positive first coordinate")
    if nvec == lvec:
        raise ValueError("T and D must be distinct toric prime divisors")
    lam, betas = _decompose_on(w.fan, lvec, nvec)
    if lam != Fraction(nvec[0], lvec[0]):
        raise InvariantViolation("lam != n_1 / l_1")
    sub = Subdivision.at(w.fan, nvec)
    u = FibrationModel(sub.fine, lvec, "U")
    data = DecompositionData(gamma=Fraction(lvec[0], nvec[0]), lam=lam, betas=betas)
    return WUModelResult(w, u, data)


@dataclass(frozen=True)
class ExtractionReport:
    """Exact checks of the three identities tying Y to V over the base."""

    crepant_exact: bool
    lc_trivial_witness: RationalVector | None
    fiber_trivial_witness: RationalVector | None

    @property
    def all_pass(self) -> bool:
        return (
            self.crepant_exact
            and self.lc_trivial_witness is not None
            and self.fiber_trivial_witness is not None
        )


def _reconstruct_extraction(y_model: FibrationModel) -> tuple[FibrationModel, Subdivision]:
    n = y_model.distinguished_ray
    l = extracted_ray(y_model)
    v = model_V(y_model.fan.ambient_dim, n)
    return v, Subdivision(v.fan, y_model.fan, l)


def verify_extraction_identities(
    y_model: FibrationModel, data: DecompositionData
) -> ExtractionReport:
    """Check exactly, on the Y-fan:

    - K_Y + (1 - a) D equals the pullback of K_V, coefficient by
      coefficient;
    - K_Y + (1 - a) D + pullback(S_V) is trivial over the base, with a
      character witness;
    - n_1 T + l_1 D (the fiber over the origin) is trivial over the base.
    """
    if data.a is None:
        raise ValueError("decomposition data is missing a")
    v, sub = _reconstruct_extraction(y_model)
    n = y_model.distinguished_ray
    l = sub.new_ray
    y_fan = y_model.fan

    k_y = canonical_divisor(y_fan)
    d_div = ray_divisor(y_fan, l)
    t_div = ray_divisor(y_fan, n)
    crepant = k_y + (1 - data.a) * d_div == pullback(sub, canonical_divisor(v.fan))
    lc = k_y + (1 - data.a) * d_div + pullback(sub, horizontal_sum(v.fan))
    lc_witness = rel_lin_equiv(y_fan, lc, zero_divisor(y_fan))
    fiber = n[0] * t_div + l[0] * d_div
    fiber_witness = rel_lin_equiv(y_fan, fiber, zero_divisor(y_fan))
    return ExtractionReport(crepant, lc_witness, fiber_witness)


def log_canonical_class_split(
    y_model: FibrationModel, data: DecompositionData, r: int, eps: int | Rat
) -> tuple[Rat, ToricDivisor]:
    """The class of K_Y + theta over the base, split against the transforms:
    returns c = (eps - a - u) n_1/l_1 and verifies exactly that
    K_Y + theta is equivalent to c*T + (r-1)*S over the base.  The returned
    divisor is the residue of that identity and is always zero."""
    eps = ensure_rational(eps)
    if data.a is None or data.alphas is None:
        raise ValueError("decomposition data is missing the extraction side")
    u = (r - 1) * data.alpha_sum
    if data.u is not None and data.u != u:
        raise ValueError("decomposition data was built for a different r")
    v, sub = _reconstruct_extraction(y_model)
    n = y_model.distinguished_ray
    l = sub.new_ray
    y_fan = y_model.fan

    theta = (1 - eps) * ray_divisor(y_fan, l) + pullback(sub, r * horizontal_sum(v.fan))
    c = (eps - data.a - u) * Fraction(n[0], l[0])
    lhs = canonical_divisor(y_fan) + theta
    rhs = c * ray_divisor(y_fan, n) + (r - 1) * horizontal_sum(y_fan)
    witness = rel_lin_equiv(y_fan, lhs, rhs)
    if witness is None:
        raise InvariantViolation("class split identity failed")
    residue = lhs - rhs + character_divisor(y_fan, witness)
    if not residue.is_zero():
        raise InvariantViolation("class split left a nonzero residue")
    return c, residue
