"""Independent brute-force oracles used to cross-check the fast paths.

These deliberately avoid the code paths they validate: box enumeration
scans an integer bounding box instead of solving congruences, the mld
oracle scans a bounding cube instead of reducing to box points, the
Fraction mld sums Fraction coefficients from the Smith normal form where
``toric_mld`` scores integer numerators over |det|, and the
fiber-multiplicity oracle re-derives coefficients by resolving until the
relevant cones are smooth and pulling back step by step.  The
face-compatibility oracle solves a linear program over the rationals with
sympy instead of enumerating facet hyperplanes.  The certificate oracle
reads both decompositions off the smallest containing cones of the built
V and W fans instead of the closed form, and glues them in Fractions.
The V-model mld oracle ``box_mld_below`` walks the half-open box of
each of the d maximal cones of V_n, slice by slice, from the coordinates
of n' on the horizontal rays of that cone, where ``models.model_V_mld``
lists the few box points of a slice from the lattice form (k, w) alone.
The scan oracle classifies and certifies every primitive n of the box one
at a time instead of once per residue class, and the class oracle
classifies every primitive residue class by ``box_mld_below`` where
``scan`` enumerates the singular classes from short lattice vectors and
counts the total by Moebius inversion; it weighs a class by the lifts of
a ``range`` where ``scan`` counts them by floor division.  The
cofactor adjugate takes n^2 determinants, each by elimination, where
``exactmath.inverse`` writes out the nine 2 x 2 cofactors at order 3 and
runs one elimination at any other order.  The
sublattice index, the oracle of ``fan.multiplicity``, is the product of
the Smith invariant factors where ``multiplicity`` reads |det| off the
cone's inverse.  The
Fraction certificate runs the tail of ``criterion.certify`` and the checks
of ``DecompositionData`` and ``CertificateReport`` by Fraction arithmetic,
where the package compares integers.  The generic encoder walks each
report's ``dataclasses.fields`` where ``serialize.encode`` reads a field
plan.

The fiber divisor and multiplicity, the eps-lc predicate and the check of
a report's explicit bounds feed no result of the package and live here,
where the tests still read them, as do the inputs several test files
share: the benchmark's user-fan pool and random full-dimensional cones,
and ``rebind_everywhere``, with which guard tests replace a function in
every toricfib module that holds it.
"""

from __future__ import annotations

import math
import operator
import random
import sys
from fractions import Fraction
from dataclasses import fields, is_dataclass
from itertools import product
from pathlib import Path
from typing import Any, Iterator, Sequence

from sympy import Eq, symbols
from sympy.solvers.simplex import lpmax

from toricfib import criterion, serialize
from toricfib.criterion import (
    CertificateReport,
    ExplicitBounds,
    ScanSummary,
    epsilon_prime,
)
from toricfib.divisors import (
    Subdivision,
    ToricDivisor,
    pullback,
    toric_mld,
)
from toricfib.exactmath import (
    InvariantViolation,
    LatticeVector,
    Rat,
    det,
    ensure_rational,
    is_primitive,
    lattice_vector,
    parallelepiped_points,
    primitive,
    smith_normal_form,
    solve_in_basis,
)
from toricfib.fan import Cone, Fan, horizontal_rays, multiplicity, smallest_containing_cone
from toricfib.models import DecompositionData, FibrationModel, _v_vector, decompose, model_V


# The mld-userfan pool of the benchmark: 300 user fans in dimension 3,
# read only.
POOL = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "userfan_d3.json"


def rebind_everywhere(monkeypatch, original, replacement) -> None:
    """Rebind every name of every toricfib module bound to ``original``."""
    for name, module in list(sys.modules.items()):
        if name == "toricfib" or name.startswith("toricfib."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, replacement)


def pool_fan_doc(entry: dict) -> dict:
    """The fan document of a pool entry, in the form ``fan_from_dict`` reads."""
    return {
        "ambient_dim": len(entry["rays"][0]),
        "maximal_cones": [[entry["rays"][i] for i in cone] for cone in entry["cones"]],
    }


def random_full_cone(rng: random.Random, d: int, bound: int = 5) -> Cone:
    """A full-dimensional cone on d primitive rays drawn from [-bound, bound]^d."""
    while True:
        draws = [tuple(rng.randint(-bound, bound) for _ in range(d)) for _ in range(d)]
        if all(any(v) for v in draws):
            try:
                return Cone(tuple(primitive(v) for v in draws))
            except ValueError:
                continue


def box_lattice_points(generators: list[LatticeVector]) -> list[tuple[LatticeVector, tuple]]:
    """Half-open box points by scanning the integer bounding box and testing
    membership with solve_in_basis; per-coordinate bounds are the sums of
    absolute generator entries."""
    d = len(generators[0])
    bounds = [sum(abs(g[i]) for g in generators) for i in range(d)]
    found = []
    for point in product(*(range(-b, b + 1) for b in bounds)):
        coeffs = solve_in_basis(generators, point)
        if coeffs is None:
            continue
        if all(0 <= c < 1 for c in coeffs):
            found.append((point, coeffs))
    found.sort(key=lambda item: item[0])
    return found


def adjugate(matrix: Sequence[Sequence[int]]) -> list[list[int]]:
    """Integer adjugate by cofactors, adj(A) A = det(A) I: n^2 separate
    determinants by ``exactmath.det``'s elimination, where
    ``exactmath.inverse`` writes the order-3 cofactors out as products and
    runs one elimination at any other order."""
    a = [[int(e) for e in row] for row in matrix]
    n = len(a)
    if n == 1:
        return [[1]]
    adj = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [
                [a[r][c] for c in range(n) if c != j]
                for r in range(n)
                if r != i
            ]
            adj[j][i] = (-1) ** (i + j) * det(minor)
    return adj


def sublattice_index(vectors: Sequence[Sequence[int]]) -> int:
    """Index of the sublattice spanned by ``vectors`` inside the saturation
    of their rational span, as the product of the Smith invariant factors
    of the matrix whose columns they are; ValueError when the vectors are
    dependent."""
    vecs = [lattice_vector(vt) for vt in vectors]
    d = len(vecs[0])
    k = len(vecs)
    if k > d:
        raise ValueError("generators not independent")
    columns = [[g[i] for g in vecs] for i in range(d)]
    _, dg, _ = smith_normal_form(columns)
    diag = [dg[i][i] for i in range(k)]
    if any(x == 0 for x in diag):
        raise ValueError("generators not independent")
    return math.prod(diag)


class _ConeEvaluator:
    """Integer-only membership and discrepancy evaluation on one
    full-dimensional cone, via the adjugate of its ray matrix."""

    def __init__(self, cone: Cone, boundary: ToricDivisor):
        # rays as columns: coefficients c solve  (ray matrix) c = point
        matrix = [[ray[i] for ray in cone.rays] for i in range(cone.ambient_dim)]
        self.base = det(matrix)
        self.adj = adjugate(matrix)
        self.sign = 1 if self.base > 0 else -1
        self.weights = [1 - boundary.coefficient(r) for r in cone.rays]
        self.dim = cone.ambient_dim

    def numerators(self, point: LatticeVector) -> list[int] | None:
        nums = [
            self.sign * sum(self.adj[i][j] * point[j] for j in range(self.dim))
            for i in range(self.dim)
        ]
        if any(n < 0 for n in nums):
            return None
        return nums

    def value(self, nums: list[int]) -> Fraction:
        return sum(
            (Fraction(n, abs(self.base)) * w for n, w in zip(nums, self.weights)),
            Fraction(0),
        )


def brute_force_mld(fan: Fan, boundary: ToricDivisor) -> tuple[Fraction, LatticeVector]:
    """Minimum discrepancy over every primitive lattice point of a bounding
    cube intersected with the support; per-coordinate bounds are one plus
    the sums of absolute ray entries over the whole fan."""
    d = fan.ambient_dim
    bounds = [1 + sum(abs(r[i]) for r in fan.rays) for i in range(d)]
    evaluators = [_ConeEvaluator(c, boundary) for c in fan.maximal_cones]
    best: tuple[Fraction, LatticeVector] | None = None
    for point in product(*(range(-b, b + 1) for b in bounds)):
        if all(x == 0 for x in point):
            continue
        for ev in evaluators:
            nums = ev.numerators(point)
            if nums is None:
                continue
            rep = primitive(point)
            if rep != point:
                break  # the primitive representative is scanned separately
            candidate = (ev.value(nums), rep)
            if best is None or candidate < best:
                best = candidate
            break
    assert best is not None
    return best


def fraction_toric_mld(fan: Fan, boundary: ToricDivisor) -> tuple[Fraction, LatticeVector]:
    """``divisors.toric_mld`` in Fractions: every box point of every cone,
    from the Smith normal form, with its Fraction coefficients, summed
    against the Fraction weights 1 - b read through ``coefficient``, and
    the minimum of the (value, point) pairs over the rays and the primitive
    box points."""
    weights = {ray: 1 - boundary.coefficient(ray) for ray in fan.rays}
    candidates: list[tuple[Fraction, LatticeVector]] = [(w, ray) for ray, w in weights.items()]
    for cone in fan.maximal_cones:
        cone_weights = [weights[r] for r in cone.rays]
        for point, coeffs in parallelepiped_points(cone.rays):
            if math.gcd(*point) != 1:  # the origin, or not primitive
                continue
            value = sum((c * w for c, w in zip(coeffs, cone_weights)), Fraction(0))
            candidates.append((value, point))
    return min(candidates)


def fiber_divisor(fan: Fan) -> ToricDivisor:
    """Pullback of the origin of the base: coefficient u_1 at every ray u."""
    return ToricDivisor.make(fan, {r: Fraction(r[0]) for r in fan.rays})


def fiber_multiplicity(fan: Fan, t: Sequence[int]) -> int:
    """Multiplicity of the prime divisor of the ray t in the fiber over the
    origin of the base: the first coordinate of t."""
    vec = lattice_vector(t)
    if vec not in fan.ray_set:
        raise ValueError(f"{vec} is not a ray of the fan")
    if vec[0] <= 0:
        raise ValueError("not a fiber component")
    return vec[0]


def is_epsilon_lc(fan: Fan, boundary: ToricDivisor, eps: int | Rat) -> bool:
    """Whether the pair has mld >= eps, for eps in (0, 1]."""
    eps = ensure_rational(eps)
    if not 0 < eps <= 1:
        raise ValueError("eps must lie in (0, 1]")
    value, _ = toric_mld(fan, boundary)
    return value >= eps


def smooth_refinement_fiber_coefficient(model: FibrationModel) -> Fraction:
    """Coefficient of the distinguished ray in the pullback of the fiber
    divisor to a refinement where every cone containing that ray is smooth.

    Subdivides at box points until the relevant cones are smooth, composing
    the divisor pullback step by step.
    """
    fan = model.fan
    target = model.distinguished_ray
    divisor = fiber_divisor(fan)
    while True:
        bad = next(
            (
                c
                for c in fan.maximal_cones
                if target in c.rays and multiplicity(c) > 1
            ),
            None,
        )
        if bad is None:
            break
        candidates = [
            pt
            for pt, _ in parallelepiped_points(bad.rays)
            if any(pt) and is_primitive(pt)
        ]
        sub = Subdivision.at(fan, candidates[0])
        divisor = pullback(sub, divisor)
        fan = sub.fine
    return divisor.coefficient(target)


def lp_meet_in_common_face(c1: Cone, c2: Cone) -> bool:
    """Whether two full-dimensional simplicial cones meet in the cone of
    their shared rays, by an exact linear program.

    A point x = sum(lam_i u_i) = sum(mu_j w_j) with lam, mu >= 0 of both
    cones lies in the shared face exactly when lam vanishes on c1's
    unshared rays, so the cones meet in that face exactly when the sum of
    those lam_i, capped at 1, has maximum 0.
    """
    d = c1.ambient_dim
    lam = symbols(f"lam0:{d}")
    mu = symbols(f"mu0:{d}")
    shared = set(c1.rays) & set(c2.rays)
    outside = sum(x for x, ray in zip(lam, c1.rays) if ray not in shared)
    constraints = [x >= 0 for x in lam + mu] + [outside <= 1]
    for k in range(d):
        constraints.append(
            Eq(
                sum(x * ray[k] for x, ray in zip(lam, c1.rays)),
                sum(y * ray[k] for y, ray in zip(mu, c2.rays)),
            )
        )
    best, _ = lpmax(outside, constraints)
    return best == 0


def surface_intersection(
    rays: list[LatticeVector], coefficients: dict[LatticeVector, Fraction], ray: LatticeVector
) -> Fraction:
    """Intersection of sum(c_v D_v) with the curve of the interior ray u of
    a 2-dimensional fan whose rays are listed in angular order, either way
    round, from the neighbours u_-, u_+ of u alone.  With the determinants
    signed so that a = det(u_-, u) and b = det(u, u_+) are positive (each
    cone is less than a half-turn), D_{u_-}.C_u = 1/a, D_{u_+}.C_u = 1/b,
    D_u.C_u = -det(u_-, u_+) / (a b), and every other D_v misses C_u.  The
    self intersection follows from the other two because every character
    divisor pairs to zero with C_u and b u_- + a u_+ = det(u_-, u_+) u; it
    is positive when u_- and u_+ are more than a half-turn apart, as on
    P^2."""
    i = rays.index(ray)
    before, after = rays[i - 1], rays[i + 1]
    sign = 1 if det([before, ray]) > 0 else -1
    left = sign * det([before, ray])
    right = sign * det([ray, after])
    return (
        Fraction(coefficients.get(before, 0), left)
        + Fraction(coefficients.get(after, 0), right)
        - Fraction(coefficients.get(ray, 0) * sign * det([before, after]), left * right)
    )


def decompose_on_fan(fan: Fan, apex: LatticeVector, vec: LatticeVector):
    """Write vec on its smallest cone in the fan; the apex ray (the fan's
    vertical generator) must participate, everything else is horizontal."""
    table = dict(zip(*smallest_containing_cone(fan, vec)))
    weight = table.pop(apex)
    rest = tuple(sorted(table.items()))
    assert all(ray[0] == 0 for ray, _ in rest)
    return weight, rest


def fan_decomposition(d: int, n: LatticeVector, l: LatticeVector) -> DecompositionData:
    """The decomposition data read off the built V fan of n and W fan of l,
    whose weights on l and on n must be inverse: lam gamma = 1."""
    gamma, alphas = decompose_on_fan(model_V(d, n).fan, n, l)
    lam, betas = decompose_on_fan(model_V(d, l).fan, l, n)
    assert lam * gamma == 1
    return DecompositionData(gamma, alphas, betas)


def fan_certify(d: int, r: int, eps: Fraction, n: LatticeVector, l: LatticeVector) -> CertificateReport:
    """The certificate of valid input on the fan route: decompositions from
    ``fan_decomposition``, the glue gamma*n - l = sum(gamma beta_k h_k) =
    -sum(alpha_j h_j) checked in Fractions, and every report quantity
    written out from its definition."""
    data = fan_decomposition(d, n, l)
    gamma, a, u = data.gamma, data.a, (r - 1) * data.alpha_sum
    for i in range(d):
        diff = gamma * n[i] - l[i]
        assert diff == sum((gamma * c * ray[i] for ray, c in data.betas), Fraction(0))
        assert diff == -sum((c * ray[i] for ray, c in data.alphas), Fraction(0))
    eps_prime = eps / (3 * d * r)
    lhs = eps - a - u
    rhs = (r - 1) * sum((gamma * c for _, c in data.betas), Fraction(0))
    bounds = None
    if a < eps_prime:
        bounds = ExplicitBounds(
            u_bounded=eps - a - u >= eps - r * a,
            beta_terms_bounded=all(gamma * c < 2 * a for _, c in data.betas),
            margin_strict=eps - r * a > (r - 1) * (d - 1) * 2 * a,
        )
    return CertificateReport(
        d=d, r=r, eps=eps, eps_prime=eps_prime, n=n, l=l, a=a, gamma=gamma, u=u,
        lam=1 / gamma, alphas=data.alphas, betas=data.betas, lhs=lhs, rhs=rhs,
        fires=lhs > rhs, bounds=bounds,
    )


def verify_explicit_bounds(report: CertificateReport) -> bool:
    """Check the explicit bounds of a report with a below the threshold.

    Only claimed for a < eps_prime; when they all hold the certificate must
    have fired, and a report violating that is a bug worth crashing on.
    """
    if report.a >= report.eps_prime:
        raise ValueError("explicit bounds are only claimed below eps_prime")
    bounds = report.bounds
    if bounds is None:
        raise InvariantViolation("report below the threshold carries no bounds")
    if bounds.all_hold and not report.fires:
        raise InvariantViolation("explicit bounds hold but the certificate did not fire")
    return bounds.all_hold


def support_contains(fan: Fan, v: Sequence[int | Fraction]) -> bool:
    """Whether v lies in the support of ``fan``, by a search of its
    maximal cones."""
    return fan.containing_cone(v) is not None


def primitive_family(d: int, bound: int) -> Iterator[LatticeVector]:
    """All primitive n with 0 < n_1 <= bound and |n_i| <= bound, in
    lexicographic order."""
    for n in product(range(1, bound + 1), *[range(-bound, bound + 1)] * (d - 1)):
        if math.gcd(*n) == 1:
            yield n


def _v_cones(
    vec: LatticeVector, horizontal: tuple[LatticeVector, ...]
) -> list[tuple[tuple[LatticeVector, ...], tuple[int, ...]]]:
    """For each maximal cone <n, H minus h_j> of the V model, its horizontal
    rays and the integer coordinates b of n' = n[1:] in them: b = n' when c
    is dropped; b_i = n'_i - n'_j and b_c = -n'_j when e_j is dropped."""
    tail = vec[1:]
    cones = [(horizontal[:-1], tail)]
    for j, nj in enumerate(tail):
        b = tuple(ni - nj for i, ni in enumerate(tail) if i != j) + (-nj,)
        cones.append((horizontal[:j] + horizontal[j + 1 :], b))
    return cones


def box_mld_below(d: int, n: Sequence[int], thr: int | Rat) -> tuple[Rat, LatticeVector] | None:
    """``models.model_V_mld(d, n)`` when its value is below ``thr``, else
    None, by the half-open boxes of the d maximal cones of V_n, visiting
    only the slices k < thr n_1; any thr > 1 gives ``model_V_mld`` itself.
    Raises the ``ValueError``s of ``model_V`` for n.

    Let H = (e_2, ..., e_d, c) be the horizontal rays.  The d-1 rays of
    H minus h_j are a lattice basis of x_1 = 0; let b be the coordinates of
    n' in it (``_v_cones``).  The box of sigma_j = <n, H minus h_j> holds
    one point of each first coordinate k in [0, n_1): with
    a_i = (-k b_i) mod n_1 it is (k n + sum(a_i h_i))/n_1, of log
    discrepancy (k + sum(a_i))/n_1.  For 1 <= k < n_1 that numerator is
    >= k + 1, since all a_i = 0 would make n_1 divide k.  With
    thr = p/q a value is below thr exactly when its numerator is below
    C = ceil(p n_1/q).  The search keeps the best (numerator, point) from
    the bound (C, ()), with the d+1 rays (numerator n_1) when n_1 < C, and
    visits slice k only while k < the best numerator.
    """
    vec = _v_vector(d, n, "n")
    thr = ensure_rational(thr)
    n1 = vec[0]
    cap = -(-thr.numerator * n1 // thr.denominator)
    if cap <= 1:
        return None
    horizontal = horizontal_rays(d)
    best: tuple[int, LatticeVector] = (cap, ())
    if n1 < cap:
        best = min((n1, ray) for ray in (vec,) + horizontal)
    # per cone, row i pairs n_i with the i-th coordinates of its horizontal rays
    cones = [
        ([(ni, hs) for ni, *hs in zip(vec, *rays)], b)
        for rays, b in _v_cones(vec, horizontal)
    ]
    mul = operator.mul
    for k in range(1, n1):
        if k >= best[0]:
            break
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
    if not best[1]:
        return None
    return Fraction(best[0], n1), best[1]


def scan_instance(
    d: int, r: int, eps: Rat, eps_p: Rat, n: LatticeVector
) -> tuple[LatticeVector, bool, CertificateReport | None]:
    """One instance of ``box_scan``: n, whether it is eps_prime-lc, and,
    when it is not, the certificate of n with its own mld minimizer as l.
    ``certify`` is read through ``criterion`` so that a test patching it
    reaches the oracle too."""
    below = box_mld_below(d, n, eps_p)
    if below is None:
        return n, True, None
    minimizer = below[1]
    if minimizer[0] <= 0:
        raise InvariantViolation("an mld minimizer below the threshold must be vertical")
    return n, False, criterion.certify(d, r, eps, n, minimizer)


def box_scan(d: int, r: int, eps: Rat, bound: int) -> ScanSummary:
    """``criterion.scan`` one instance at a time: every n of
    ``primitive_family`` classified and, when singular, certified by
    ``scan_instance``, in lexicographic order."""
    eps = Fraction(eps)
    eps_p = epsilon_prime(d, r, eps)
    results = [scan_instance(d, r, eps, eps_p, n) for n in primitive_family(d, bound)]
    reports = [rep for _, is_lc, rep in results if not is_lc]
    return ScanSummary(
        d=d,
        r=r,
        eps=eps,
        eps_prime=eps_p,
        bound=bound,
        total=len(results),
        epsilon_lc=len(results) - len(reports),
        singular=len(reports),
        fired=sum(1 for rep in reports if rep.fires),
        failures=tuple(rep for rep in reports if not rep.fires),
    )


def _lift_range(rho: int, n1: int, bound: int) -> range:
    """The x in [-bound, bound] with x = rho mod n1, in increasing order."""
    return range((rho + bound) % n1 - bound, bound + 1, n1)


def class_scan(d: int, r: int, eps: Rat, bound: int) -> ScanSummary:
    """``criterion.scan`` one primitive residue class at a time: every
    rho in [0, n_1)^(d-1) with gcd(n_1, rho) = 1 is weighted by its lifts
    in the box (``_lift_range``) and classified by ``box_mld_below`` at
    eps_prime, whose minimizer must then be vertical."""
    eps = Fraction(eps)
    eps_p = epsilon_prime(d, r, eps)
    total = singular = 0
    for n1 in range(1, bound + 1):
        counts = [len(_lift_range(x, n1, bound)) for x in range(n1)]
        for rho in product(range(n1), repeat=d - 1):
            if math.gcd(n1, *rho) != 1:
                continue
            weight = math.prod(counts[x] for x in rho)
            total += weight
            below = box_mld_below(d, (n1,) + rho, eps_p)
            if below is None:
                continue
            if below[1][0] <= 0:
                raise InvariantViolation("an mld minimizer below the threshold must be vertical")
            singular += weight
    return ScanSummary(
        d=d,
        r=r,
        eps=eps,
        eps_prime=eps_p,
        bound=bound,
        total=total,
        epsilon_lc=total - singular,
        singular=singular,
        fired=singular,
        failures=(),
    )


def fraction_decomposition_checks(gamma, alphas, betas) -> None:
    """The checks of ``DecompositionData`` by Fraction arithmetic, with its
    messages."""
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    if any(c <= 0 for _, c in alphas):
        raise ValueError("alpha coefficients must be strictly positive")
    if any(c <= 0 for _, c in betas):
        raise ValueError("beta coefficients must be strictly positive")


def fraction_report_checks(d, r, eps, eps_prime, lhs, rhs, fires) -> None:
    """The checks of ``CertificateReport`` by Fraction arithmetic, with its
    messages."""
    if fires != (lhs > rhs):
        raise InvariantViolation("fires must equal the strict comparison lhs > rhs")
    if eps_prime != eps / (3 * d * r):
        raise InvariantViolation("eps_prime must equal eps / (3 d r)")


def fraction_certify(d: int, r: int, eps: Rat, n: LatticeVector, l: LatticeVector) -> CertificateReport:
    """``criterion.certify`` of valid input with its tail by Fraction
    arithmetic: the decompositions of ``models.decompose``, checked by
    ``fraction_decomposition_checks``, then u = (r - 1) sum(alphas),
    lam = 1/gamma, eps_prime = eps/(3 d r), lhs = eps - a - u,
    rhs = (r - 1) gamma sum(betas), the verdict lhs > rhs and, when
    a < eps_prime, the explicit bounds from their definitions."""
    eps = ensure_rational(eps)
    assert 0 < eps <= 1
    data = decompose(d, n, l)
    fraction_decomposition_checks(data.gamma, data.alphas, data.betas)
    a, u = data.a, (r - 1) * data.alpha_sum
    eps_p = eps / (3 * d * r)
    lhs = eps - a - u
    rhs = (r - 1) * data.gamma * sum((c for _, c in data.betas), Fraction(0))
    bounds = None
    if a < eps_p:
        bounds = ExplicitBounds(
            u_bounded=u <= (r - 1) * a,
            beta_terms_bounded=all(data.gamma * beta < 2 * a for _, beta in data.betas),
            margin_strict=eps - r * a > (r - 1) * (d - 1) * 2 * a,
        )
    fraction_report_checks(d, r, eps, eps_p, lhs, rhs, lhs > rhs)
    return CertificateReport(
        d=d, r=r, eps=eps, eps_prime=eps_p, n=tuple(n), l=tuple(l), a=a, gamma=data.gamma,
        u=u, lam=1 / data.gamma, alphas=data.alphas, betas=data.betas, lhs=lhs, rhs=rhs,
        fires=lhs > rhs, bounds=bounds,
    )


def generic_encode(value: Any) -> Any:
    """``serialize.encode`` by a walk of ``dataclasses.fields`` with
    ``isinstance`` tests on every value, with the same legends, renames,
    derived properties and constants."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (tuple, list)):
        return [generic_encode(item) for item in value]
    if not is_dataclass(value):
        raise TypeError(f"cannot encode {type(value).__name__} exactly")
    cls = type(value)
    doc = {
        serialize._RENAMED.get(f.name, f.name): generic_encode(getattr(value, f.name))
        for f in fields(value)
    }
    for name in serialize._DERIVED.get(cls, ()):
        doc[name] = getattr(value, name)
    doc.update(serialize._CONSTANTS.get(cls, {}))
    if cls in serialize._ENVELOPES:
        kind, legend = serialize._ENVELOPES[cls]
        doc.update(schema_version=serialize.SCHEMA_VERSION, kind=kind, legend=legend)
    return doc
