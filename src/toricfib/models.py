"""The four fibration models attached to a pair of vertical divisors.

For a primitive vector n with positive first coordinate, the model V is
the fibration over the line whose fan replaces e_1 by n in the standard
fan; its fiber over the origin is the single prime divisor of n, with
multiplicity n_1.  Extracting a second vertical vector l from V gives Y,
and swapping the roles of n and l gives W and U.  The decompositions of l
on its smallest cone in the V-fan and of n on its smallest cone in the
W-fan carry all the coefficients the negativity certificate is built
from; ``DecompositionData`` stores only these, and the log discrepancy a
is computed from them.  ``decompose`` writes both in closed form from n
and l, with no fan and no r, on which neither depends.  The models
themselves are built for ``surface`` and for the two checks on Y, the
extraction identities and the class split.
Each fan is built once: ``model_Y`` returns the star subdivision of V that
made Y, and both checks read V, l and Y off it; W is the ``model_V`` cache
entry of l, and U the star subdivision of W at n.
The V model is read in one form, the lattice of the pairs (k, w) with
w = -k n' (mod n_1), on which a point of the support has log discrepancy
(k + psi(w))/n_1 (the lemma of ``model_V_mld``): ``model_V_mld`` takes
the minimum over the few box points of each slice k, and
``singular_classes`` lists the classes n' mod n_1 whose V model has a log
discrepancy below a threshold from the short vectors (k, w), with no fan:
``classes_below`` solves them from a table of ``short_vectors``, which
``scan`` builds once per sweep.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, NamedTuple, Sequence

from .exactmath import (
    InvariantViolation,
    LatticeVector,
    Rat,
    RationalVector,
    check_int,
    ensure_rational,
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
from .fan import Fan, fibration_fan, horizontal_rays

@dataclass(frozen=True)
class FibrationModel:
    """A fan over the affine line with a distinguished vertical ray: the
    support of the fiber over the origin (for V/W) or its transform."""

    fan: Fan
    distinguished_ray: LatticeVector

    def __post_init__(self) -> None:
        ray = lattice_vector(self.distinguished_ray)
        object.__setattr__(self, "distinguished_ray", ray)
        if ray not in self.fan.ray_set:
            raise ValueError("distinguished ray is not a ray of the fan")
        if ray[0] <= 0:
            raise ValueError("distinguished ray must have positive first coordinate")


@dataclass(frozen=True)
class DecompositionData:
    """Coefficients of the two smallest-cone decompositions.

    gamma and alphas come from writing l = gamma*n + sum(alpha_j h_j) on the
    V-fan, and a = gamma + sum(alphas) is the log discrepancy of l on V.
    betas come from the swapped decomposition n = (1/gamma) l +
    sum(beta_k h_k) on the W-fan.  The h_j and h_k are horizontal rays, and
    alphas and betas list only the strictly positive coefficients, sorted
    by ray.  A rational keeps a positive denominator, so x > 0 iff its
    numerator is.
    """

    gamma: Rat
    alphas: tuple[tuple[LatticeVector, Rat], ...]
    betas: tuple[tuple[LatticeVector, Rat], ...]

    def __post_init__(self) -> None:
        if self.gamma.numerator <= 0:
            raise ValueError("gamma must be positive")
        if any(c.numerator <= 0 for _, c in self.alphas):
            raise ValueError("alpha coefficients must be strictly positive")
        if any(c.numerator <= 0 for _, c in self.betas):
            raise ValueError("beta coefficients must be strictly positive")

    @property
    def alpha_sum(self) -> Rat:
        return sum((c for _, c in self.alphas), Fraction(0))

    @property
    def a(self) -> Rat:
        return self.gamma + self.alpha_sum


class YModelResult(NamedTuple):
    """Y, its boundary theta and the two decompositions, with the star
    subdivision that made Y: V's fan is ``sub.coarse``, l is
    ``sub.new_ray`` and Y's fan is ``sub.fine``."""

    model: FibrationModel
    theta: ToricDivisor
    data: DecompositionData
    sub: Subdivision


class WUModelResult(NamedTuple):
    w: FibrationModel
    u: FibrationModel


def _v_vector(d: int, vec: Sequence[int], name: str) -> LatticeVector:
    """A vertical vector of a model in d >= 2 dimensions: of length d,
    primitive and with positive first coordinate.  Messages call it
    ``name``."""
    check_int(d, "d", 2)
    vec = lattice_vector(vec)
    if len(vec) != d:
        raise ValueError("vector dimension does not match d")
    if math.gcd(*vec) != 1:
        raise ValueError(f"{name} must be primitive")
    if vec[0] <= 0:
        raise ValueError(f"{name} must have positive first coordinate")
    return vec


def _vertical_pair(
    d: int, n: Sequence[int], l: Sequence[int]
) -> tuple[LatticeVector, LatticeVector]:
    """n and l checked by ``_v_vector``, in that order, and distinct."""
    nvec = _v_vector(d, n, "n")
    lvec = _v_vector(d, l, "l")
    if lvec == nvec:
        raise ValueError("T and D must be distinct toric prime divisors")
    return nvec, lvec


@lru_cache(maxsize=16)
def _v_model(vec: LatticeVector) -> FibrationModel:
    return FibrationModel(fibration_fan(len(vec), vec), vec)


def model_V(d: int, n: Sequence[int]) -> FibrationModel:
    """The fibration model of a primitive vector n with n_1 > 0: its fan is
    ``fan.fibration_fan(d, n)``, whose maximal cones are spanned by n
    together with the (d-1)-subsets of the horizontal rays
    {e_2, ..., e_d, c}.  d and n are checked before the cache is read, so
    no verdict depends on what is cached."""
    return _v_model(_v_vector(d, n, "n"))


model_V.cache_info = _v_model.cache_info


def _slice_candidates(vec: LatticeVector, k: int) -> list[tuple[int, tuple[int, ...]]]:
    """The pairs (k + psi(w), w) of the box points of slice k of the V model
    of ``vec``, as the lemma of ``model_V_mld`` lists them: w = s with
    s = (-k n') mod n_1, and w = s - n_1 [s >= t] for each value t > 0 of
    s."""
    n1, d = vec[0], len(vec)
    s = [(-k * ni) % n1 for ni in vec[1:]]
    base = k + sum(s)
    candidates = [(base, tuple(s))]
    for t in set(s) - {0}:
        above = [x >= t for x in s]
        w = tuple([x - n1 if up else x for x, up in zip(s, above)])
        candidates.append((base - n1 * sum(above) + d * (n1 - t), w))
    return candidates


def model_V_mld(d: int, n: Sequence[int]) -> tuple[Rat, LatticeVector]:
    """The minimal log discrepancy of the V model of n with zero boundary
    and its lexicographically smallest minimizer: exactly what
    ``toric_mld(model_V(d, n).fan, zero_divisor(...))`` returns, computed in
    integers from n alone, with no fan, Smith normal form or rational
    elimination.  Raises the ``ValueError``s of ``model_V``.

    Let H = (e_2, ..., e_d, c) be the horizontal rays, which span the
    smooth fan of P^(d-1) in x_1 = 0 with the one relation sum(h) = 0.
    Write psi(w) = sum(``_fan_coordinates(w)``) = sum(w) + d max(0, -min(w))
    for w in Z^(d-1): the support function of that fan, linear on its
    cones, 1 on each h_i, positively homogeneous and >= max|w_i|.  Write
    n = (n_1, n').

    Lemma (the lattice form): the log discrepancy with zero boundary of a
    lattice point p of V_n is (k + psi(w))/n_1 with k = p_1 and
    w = n_1 p' - k n', and p -> (k, w) maps the lattice points of the
    support one to one onto the (k, w) with k >= 0 and w = -k n'
    (mod n_1), with inverse p = (k, (k n' + w)/n_1).  Proof:
    1. The support of V_n is x_1 >= 0: for p_1 >= 0,
       p = (p_1/n_1) n + (0, p' - p_1 n'/n_1), and the second term lies in
       a cone of the fan of P^(d-1) in x_1 = 0.
    2. For a lattice point p with k = p_1 >= 0, w = n_1 p' - k n' is
       congruent to -k n' mod n_1, and p is read back from (k, w).  With
       A = ``_fan_coordinates(w)``, n_1 p = k n + sum(A_i h_i), so
       p = (k/n_1) n + sum((A_i/n_1) h_i) on the cone <n, H minus h_m> of
       an h_m with A_m = 0, and its log discrepancy is (k + psi(w))/n_1.
    3. Those are the coordinates of p on every maximal cone
       sigma_j = <n, H minus h_j> that holds it: its coordinates a/n_1 on
       H minus h_j, extended by a_j = 0, have sum(a_i h_i) = w, so by the
       one relation a = A + c (1, ..., 1); a_m >= 0 gives c >= 0 and
       a_j = 0 gives c <= 0.  So p is a point of the half-open box of a
       cone exactly when k < n_1 and every A_i < n_1.
    4. A non-primitive p = m q, m >= 2, has q_1 = k/m >= 0 (step 1), and
       q_1 >= 1 unless k = 0, and q has the smaller value
       (k + psi(w))/(m n_1).

    Claim (the candidates): for 0 <= k < n_1 let s = (-k n') mod n_1 in
    [0, n_1)^(d-1).  The box points of slice k, over all d cones, are the
    points of w = s, with numerator k + sum(s), and of w = s - n_1 [s >= t]
    for each value t > 0 of s, with numerator
    k + sum(s) - n_1 #{i : s_i >= t} + d (n_1 - t).  Proof: by step 3 they
    are the w = s (mod n_1) with y = max(0, -min(w)) < n_1 and every
    w_i + y < n_1.  If y = 0, 0 <= w_i < n_1 forces w = s.  If y > 0, each
    w_i lies in [-y, n_1 - y), which holds one residue of s_i, so
    w_i = s_i - n_1 [s_i >= t] with t = n_1 - y in (0, n_1); and
    min(w) = -y makes t a value of s.  Conversely for such a t the
    smallest w_i is t - n_1, and w_i + n_1 - t < n_1 for every i, as
    w_i < t.  Then psi(w) = sum(w) + d (n_1 - t).

    Every nonzero box point has k >= 1 and numerator >= k + 1: k = 0 gives
    s = 0 and y = 0, the origin, and for 1 <= k < n_1, w = 0 would make
    n_1 divide k n_i for every i and so k, n being primitive; so w != 0 and
    psi(w) >= max|w_i| >= 1.  So mld(V_n) >= 1/n_1.

    As in ``toric_mld``, the d+1 rays enter with value 1 = n_1/n_1 and
    non-primitive points are skipped.  All values share the denominator
    n_1, so the minimum over (numerator, point) is the tie rule of
    ``toric_mld``.  The search keeps the best (numerator, point) so far,
    starting from the rays, and visits slice k only while k < the best
    numerator <= n_1: every candidate of slice k and of the slices after it
    has numerator > k, so once k reaches the best numerator none of them
    beats or ties it.  A candidate whose numerator is above the best is
    not built.  Every division by n_1 is checked, for every point built,
    and a remainder raises ``InvariantViolation``.
    """
    vec = _v_vector(d, n, "n")
    n1, tail = vec[0], vec[1:]
    best = min((n1, ray) for ray in (vec,) + horizontal_rays(d))
    for k in range(1, n1):
        if k >= best[0]:
            break
        for num, w in _slice_candidates(vec, k):
            if num > best[0]:
                continue
            point = [k]
            for ni, wi in zip(tail, w):
                q, rem = divmod(k * ni + wi, n1)
                if rem:
                    raise InvariantViolation("a V-model box point is not a lattice point")
                point.append(q)
            candidate = (num, tuple(point))
            if math.gcd(*point) == 1 and candidate < best:
                best = candidate
    return Fraction(best[0], n1), best[1]


def _fan_coordinates(w: Sequence[int]) -> list[int]:
    """The coordinates of sum(w_i e_{i+2}) on the rays e_2, ..., e_d, c of
    the smooth fan of P^{d-1}, all >= 0 and at least one of them 0."""
    y = max(0, -min(w))
    return [wi + y for wi in w] + [y]


def _class_solutions(
    k: int, ws: Sequence[tuple[int, ...]], n1: int
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The pairs (w, rho) with w in ``ws`` and rho in [0, n1)^(d-1) such
    that k rho = -w (mod n1).  With g = gcd(k, n1) there is none unless g
    divides every w_i, and then rho_i = -(w_i/g) (k/g)^-1 modulo n1/g,
    lifted in g ways each.  For g = 1, that one rho is built directly."""
    g = math.gcd(k, n1)
    if g == 1:
        inv = pow(k, -1, n1)
        for w in ws:
            yield w, tuple([-x * inv % n1 for x in w])
        return
    m = n1 // g
    inv = pow(k // g, -1, m)
    for w in ws:
        if not any(x % g for x in w):
            for rho in itertools.product(*(range(-(x // g) * inv % m, n1, m) for x in w)):
                yield w, rho


def short_vectors(d: int, cap: int) -> tuple[list[int], list[tuple[int, ...]]]:
    """The table of the nonzero w in Z^(d-1) with psi(w) <= cap - 2, sorted
    by (psi(w), w), as the list of their psi values and the list of the w,
    with psi the support function of the lemma of ``model_V_mld``.  As
    |w_i| <= psi(w), they all lie in the box [2 - cap, cap - 2]^(d-1) that
    is enumerated.  For cap' <= cap, the w with psi(w) < cap' - k, k >= 1,
    are a prefix of the table, in the order they have in the table of
    cap'."""
    box = itertools.product(range(2 - cap, cap - 1), repeat=d - 1)
    ball = sorted((sum(_fan_coordinates(w)), w) for w in box if any(w))
    del ball[bisect.bisect_left(ball, (cap - 1,)) :]
    return [psi for psi, _ in ball], [w for _, w in ball]


def classes_below(
    n1: int, cap: int, psis: Sequence[int], ws: Sequence[tuple[int, ...]]
) -> set[tuple[int, ...]]:
    """The classes rho in [0, n1)^(d-1) with gcd(n1, rho) = 1 for which some
    k >= 1 and w in the table (psis, ws) of ``short_vectors(d, cap')``,
    cap' >= cap, have k + psi(w) < cap and k rho = -w (mod n1): the solve
    step of ``singular_classes``.  Slice k reads the prefix of the w with
    psi(w) < cap - k, and k runs to cap - 2, past which that prefix is
    empty.  Every solution of ``_class_solutions`` is checked against its
    congruence, and one that fails raises ``InvariantViolation``."""
    found = set()
    for k in range(1, cap - 1):
        for w, rho in _class_solutions(k, ws[: bisect.bisect_left(psis, cap - k)], n1):
            for r, x in zip(rho, w):
                if (k * r + x) % n1:
                    raise InvariantViolation("a solved class does not satisfy k rho = -w (mod n_1)")
            if math.gcd(n1, *rho) == 1:
                found.add(rho)
    return found


def singular_classes(d: int, n1: int, thr: int | Rat) -> set[tuple[int, ...]]:
    """The classes rho in [0, n1)^(d-1) with gcd(n1, rho) = 1 for which
    ``model_V_mld(d, (n1,) + rho)[0] < thr``, for 0 < thr <= 1, found
    without visiting the other classes.  psi is the support function of
    the lemma of ``model_V_mld``; let C = ceil(thr n1).

    Lemma: for primitive n = (n1, n') with class rho = n' mod n1,
    ``model_V_mld(d, n)[0] < thr`` exactly when some (k, w) in
    Z x Z^(d-1) has k >= 1, k + psi(w) < C and k rho = -w (mod n1).
    Proof: by the lemma of ``model_V_mld``, such a (k, w) is a nonzero
    point p of the support of V_n, as w = -k n' (mod n1), with value
    (k + psi(w))/n1 < thr.  By its step 4, p divided by its content is a
    primitive point q with q_1 >= 1 and a value at most that.  As
    thr <= 1 the numerator of q is < n1, so q_1 < n1 and so is every
    coordinate of ``_fan_coordinates`` of the w of q, and by step 3 q is a
    box point, which ``model_V_mld`` compares: the mld is < thr.
    Conversely, a value < thr <= 1 is not that of a ray, so the minimizer
    is a primitive box point of a slice k >= 1, and its (k, w) has
    k + psi(w) < C.  As w mentions n' only mod n1, all lifts of a class
    share the verdict.

    Every such (k, w) has w != 0: w = 0 would make n1 divide k rho, and so
    k, but 1 <= k < C <= n1.  So psi(w) >= 1, k <= C - 2 and
    psi(w) <= C - k - 1 <= C - 2: the w are in the table of
    ``short_vectors(d, C)``, and ``classes_below`` solves their
    congruences and keeps the primitive solutions.  In particular no
    class is singular when C <= 2.
    """
    check_int(d, "d", 2)
    check_int(n1, "n1", 1)
    thr = ensure_rational(thr)
    if not 0 < thr <= 1:
        raise ValueError("thr must lie in (0, 1]")
    cap = -(-thr.numerator * n1 // thr.denominator)
    return classes_below(n1, cap, *short_vectors(d, cap))


def decompose(d: int, n: Sequence[int], l: Sequence[int]) -> DecompositionData:
    """The smallest-cone decompositions of l on V and of n on W, in closed
    form from n and l alone: no fan is built.  Raises the ``ValueError``s
    of ``model_V`` for n and of ``model_Y`` for l.

    Let H = (e_2, ..., e_d, c) be the horizontal rays, g = n_1 l - l_1 n
    and A = ``_fan_coordinates(g[1:])``, B = ``_fan_coordinates(-g[1:])``.

    Claim: l = gamma n + sum(alpha_j h_j) with gamma = l_1/n_1 and
    alpha_j = A_j/n_1 over the h_j with A_j > 0 is the unique
    decomposition of l on its smallest cone in the V-fan, and likewise
    n = lam l + sum(beta_k h_k) with lam = n_1/l_1 and beta_k = B_k/l_1 on
    the W-fan.  Proof: g_1 = n_1 l_1 - l_1 n_1 = 0, so g = sum(w_i e_{i+2})
    with w = g[1:].  As c = -(e_2 + ... + e_d), for every y
    w = sum((w_i + y) e_{i+2}) + y c, and y = max(0, -min w) makes every
    coefficient >= 0 and one of them 0: that of c when y = 0, and that of
    e_{i+2} at a minimal w_i when y > 0.  So A >= 0, sum(A_j h_j) = g, and
    the support S of A misses some h_m in H.  Dividing by n_1 gives
    l = gamma n + sum(alpha_j h_j) with every coefficient strictly positive
    (gamma > 0 as l_1, n_1 > 0), so l lies in the relative interior of
    <n, S>, a face of the maximal cone <n, H minus h_m> of V.  The cones of
    a fan meet in common faces, so their relative interiors are disjoint
    and <n, S> is the smallest cone containing l; its rays are part of a
    basis, so the coefficients are unique.  W is the V model of l, and
    l_1 n - n_1 l = -g, so the same argument with n and l swapped and B in
    place of A gives the decomposition of n on W.
    """
    nvec, lvec = _vertical_pair(d, n, l)
    n1, l1 = nvec[0], lvec[0]
    w = [n1 * li - l1 * ni for ni, li in zip(nvec[1:], lvec[1:])]
    horizontal = horizontal_rays(d)
    alpha_nums = _fan_coordinates(w)
    beta_nums = _fan_coordinates([-x for x in w])
    return DecompositionData(
        gamma=Fraction(l1, n1),
        alphas=tuple(sorted((h, Fraction(c, n1)) for h, c in zip(horizontal, alpha_nums) if c)),
        betas=tuple(sorted((h, Fraction(c, l1)) for h, c in zip(horizontal, beta_nums) if c)),
    )


def _theta(sub: Subdivision, r: int, eps: Rat) -> ToricDivisor:
    """(1 - eps) D + pullback(r * S_V) on the extraction ``sub`` of D from
    V, where S_V sums the horizontal prime divisors of V."""
    return (1 - eps) * ray_divisor(sub.fine, sub.new_ray) + pullback(
        sub, r * horizontal_sum(sub.coarse)
    )


def check_r_eps(r: int, eps: int | Rat) -> Rat:
    """eps as a Fraction, once r is checked to be an integer >= 1 and then
    eps to lie in (0, 1]."""
    check_int(r, "r", 1)
    eps = ensure_rational(eps)
    if not 0 < eps.numerator <= eps.denominator:
        raise ValueError("eps must lie in (0, 1]")
    return eps


def model_Y(
    v_model: FibrationModel, l: Sequence[int], r: int, eps: int | Rat
) -> YModelResult:
    """Extract the divisor D of l from V and assemble the perturbed
    boundary theta of ``_theta``."""
    eps = check_r_eps(r, eps)
    n = v_model.distinguished_ray
    data = decompose(v_model.fan.ambient_dim, n, l)
    sub = Subdivision.at(v_model.fan, l)
    return YModelResult(FibrationModel(sub.fine, n), _theta(sub, r, eps), data, sub)


def model_W_U(d: int, l: Sequence[int], n: Sequence[int]) -> WUModelResult:
    """The swapped models: W is ``model_V(d, l)``, the fibration model of
    l, and U extracts n from it.  The swapped decomposition is
    ``decompose``'s betas, with 1/gamma on l.  W is read from ``model_V``'s
    cache on the l that ``_vertical_pair`` has checked."""
    nvec, lvec = _vertical_pair(d, n, l)
    w = _v_model(lvec)
    sub = Subdivision.at(w.fan, nvec)
    return WUModelResult(w, FibrationModel(sub.fine, lvec))


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


def verify_extraction_identities(y: YModelResult) -> ExtractionReport:
    """Check exactly, on the Y-fan of ``model_Y``'s result:

    - K_Y + (1 - a) D equals the pullback of K_V, coefficient by
      coefficient;
    - K_Y + (1 - a) D + pullback(S_V) is trivial over the base, with a
      character witness;
    - n_1 T + l_1 D (the fiber over the origin) is trivial over the base.
    """
    sub, data = y.sub, y.data
    n, l, y_fan = y.model.distinguished_ray, sub.new_ray, sub.fine

    k_y = canonical_divisor(y_fan)
    d_div = ray_divisor(y_fan, l)
    t_div = ray_divisor(y_fan, n)
    crepant = k_y + (1 - data.a) * d_div == pullback(sub, canonical_divisor(sub.coarse))
    lc = k_y + (1 - data.a) * d_div + pullback(sub, horizontal_sum(sub.coarse))
    lc_witness = rel_lin_equiv(y_fan, lc, zero_divisor(y_fan))
    fiber = n[0] * t_div + l[0] * d_div
    fiber_witness = rel_lin_equiv(y_fan, fiber, zero_divisor(y_fan))
    return ExtractionReport(crepant, lc_witness, fiber_witness)


def log_canonical_class_split(y: YModelResult, r: int, eps: int | Rat) -> Rat:
    """The class of K_Y + theta over the base, split against the transforms,
    on the Y-fan of ``model_Y``'s result with theta rebuilt for r and eps:
    returns c = (eps - a - u) n_1/l_1 with u = (r-1) sum(alphas) and
    verifies exactly that K_Y + theta is equivalent to c*T + (r-1)*S over
    the base, with a zero residue."""
    eps = ensure_rational(eps)
    sub, data = y.sub, y.data
    u = (r - 1) * data.alpha_sum
    n, l, y_fan = y.model.distinguished_ray, sub.new_ray, sub.fine

    c = (eps - data.a - u) * Fraction(n[0], l[0])
    lhs = canonical_divisor(y_fan) + _theta(sub, r, eps)
    rhs = c * ray_divisor(y_fan, n) + (r - 1) * horizontal_sum(y_fan)
    witness = rel_lin_equiv(y_fan, lhs, rhs)
    if witness is None:
        raise InvariantViolation("class split identity failed")
    residue = lhs - rhs + character_divisor(y_fan, witness)
    if not residue.is_zero():
        raise InvariantViolation("class split left a nonzero residue")
    return c
