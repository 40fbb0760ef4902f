"""The negativity certificate for the transformed fiber divisor.

For models built from vertical vectors n (fiber support T) and l (the
extracted divisor D) with parameters r and eps, the certificate compares

    lhs = eps - a - u        against        rhs = (r - 1) * sum(gamma * beta_k)

with exact rationals; a strict lhs > rhs certifies that the transform of T
sits in the divisorial negative part of K_Y + theta over the base.  Below
the threshold eps' = eps/(3 d r) a set of explicit bounds guarantees the
strict inequality, and ``scan`` sweeps whole families checking exactly
that.  It classifies by ``models.model_V_mld_below`` at eps', which visits
only the box-point slices k < eps' n_1 of the V model, and it sweeps by
residue class: whether n is eps'-lc, and its mld when it is not, depend on
n only through n_1 and n' mod n_1 (a lemma proved in ``scan``), so each
class is classified once and weighted by its number of lifts in the box.
The lifts share the class's minimizer, moved, and its verdict, so a
singular class is certified once, and only the lifts of a class that does
not fire one by one.  No class with n_1 <= 1/eps' is classified at all.
The certificate reads only the two smallest-cone decompositions of
``models.decompose``, so it builds no fan: the models Y, W and U live in
``models`` and are exercised by the tests, with the two checks on Y
(``verify_extraction_identities``, ``log_canonical_class_split``) reading
the star subdivision that ``model_Y`` returns.

The certificate runs in integers.  With eps = p/q and the integer
numerators A_j = n_1 alpha_j and B_k = l_1 beta_k of the decompositions,
which ``_check_decompositions`` proves and returns, write N = l_1 + sum(A).
The checks give gamma = l_1/n_1, a = gamma + sum(alphas) and
u = (r - 1) sum(alphas), so a = N/n_1, u = (r - 1) sum(A)/n_1 and
gamma beta_k = B_k/n_1.  Then lhs = (p n_1 - q(N + (r - 1) sum(A)))/(q n_1),
rhs = (r - 1) sum(B)/n_1, and every comparison of ``certify`` is one of
integers, multiplied through by the positive q n_1 (``certify`` lists
them).  Fractions are built only for the fields of the report.
"""

from __future__ import annotations

import itertools
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .exactmath import (
    InvariantViolation,
    LatticeVector,
    Rat,
    ensure_rational,
    lattice_vector,
)
from .models import DecompositionData, decompose, horizontal_rays, model_V_mld_below


@dataclass(frozen=True)
class ExplicitBounds:
    """The three bounds that force the certificate below the threshold:
    u is dominated by (r-1)a, every gamma*beta_k stays under 2a, and the
    margin eps - r*a clears (r-1)(d-1)*2a strictly."""

    u_bounded: bool
    beta_terms_bounded: bool
    margin_strict: bool

    @property
    def all_hold(self) -> bool:
        return self.u_bounded and self.beta_terms_bounded and self.margin_strict


@dataclass(frozen=True)
class CertificateReport:
    """Everything the certificate computed for one instance, plus the
    verdict.  ``fires`` is the strict inequality lhs > rhs.  Both checks
    cross-multiply by positive denominators: lhs > rhs iff
    lhs.num rhs.den > rhs.num lhs.den, and eps_prime = eps/(3 d r) iff
    eps_prime.num eps.den 3 d r = eps.num eps_prime.den."""

    d: int
    r: int
    eps: Rat
    eps_prime: Rat
    n: LatticeVector
    l: LatticeVector
    a: Rat
    gamma: Rat
    u: Rat
    lam: Rat
    alphas: tuple[tuple[LatticeVector, Rat], ...]
    betas: tuple[tuple[LatticeVector, Rat], ...]
    lhs: Rat
    rhs: Rat
    fires: bool
    bounds: ExplicitBounds | None

    def __post_init__(self) -> None:
        lhs, rhs, eps, eps_p = self.lhs, self.rhs, self.eps, self.eps_prime
        if self.fires != (lhs.numerator * rhs.denominator > rhs.numerator * lhs.denominator):
            raise InvariantViolation("fires must equal the strict comparison lhs > rhs")
        if eps_p.numerator * eps.denominator * 3 * self.d * self.r != eps.numerator * eps_p.denominator:
            raise InvariantViolation("eps_prime must equal eps / (3 d r)")


def epsilon_prime(d: int, r: int, eps: int | Rat) -> Rat:
    """The threshold eps / (3 d r) below which the explicit bounds apply."""
    if not isinstance(d, int) or isinstance(d, bool) or d < 2:
        raise ValueError("d must be an integer >= 2")
    if not isinstance(r, int) or isinstance(r, bool) or r < 1:
        raise ValueError("r must be an integer >= 1")
    eps = ensure_rational(eps)
    if not 0 < eps.numerator <= eps.denominator:
        raise ValueError("eps must lie in (0, 1]")
    return Fraction(eps.numerator, eps.denominator * 3 * d * r)


def _check_decompositions(
    d: int, r: int, n: LatticeVector, l: LatticeVector, data: DecompositionData
) -> tuple[int, list[int]]:
    """Prove in integers that ``data`` holds the smallest-cone
    decompositions of l on V and of n on W, and return sum(A) and the list
    of the B_k, where A_j = n_1 alpha_j and B_k = l_1 beta_k are integers.
    With g = n_1 l - l_1 n, the glue check asks gamma = l_1/n_1, that
    every A_j and B_k is an integer, sum(A_j h_j) = g and
    sum(B_k h_k) = -g; the face check asks that each side's horizontal
    rays miss at least one of H = (e_2, ..., e_d, c).  With lam = 1/gamma
    and the strict positivity of every coefficient, which
    ``DecompositionData`` checks, this puts l in the relative interior of a
    face <n, S> of the V cone <n, H minus h_m>, which is then its smallest
    cone, and n likewise on W.  Last, u = (r - 1) sum(alphas) is checked as
    u.num n_1 = (r - 1) sum(A) u.den.
    """
    n1, l1 = n[0], l[0]
    if data.gamma.numerator * n1 != l1 * data.gamma.denominator:
        raise InvariantViolation("the two smallest-cone decompositions do not glue")
    g = [n1 * li - l1 * ni for ni, li in zip(n, l)]
    horizontal = set(horizontal_rays(d))
    sides = []
    for coeffs, scale, sign in ((data.alphas, n1, 1), (data.betas, l1, -1)):
        rays = {ray for ray, _ in coeffs}
        if len(rays) != len(coeffs) or not rays < horizontal:
            raise InvariantViolation("a decomposition does not lie on a cone of the fan")
        total = [0] * d
        nums = []
        for ray, c in coeffs:
            num, rem = divmod(c.numerator * scale, c.denominator)
            if rem:
                raise InvariantViolation("the two smallest-cone decompositions do not glue")
            nums.append(num)
            total = [t + num * x for t, x in zip(total, ray)]
        if any(t != sign * gi for t, gi in zip(total, g)):
            raise InvariantViolation("the two smallest-cone decompositions do not glue")
        sides.append(nums)
    alpha_total = sum(sides[0])
    if data.u.numerator * n1 != (r - 1) * alpha_total * data.u.denominator:
        raise InvariantViolation("u != (r - 1) * sum(alphas)")
    return alpha_total, sides[1]


def certify(
    d: int, r: int, eps: int | Rat, n: Sequence[int], l: Sequence[int]
) -> CertificateReport:
    """Evaluate the certificate inequality exactly for (n, l).

    After the input checks (raising ``ValueError``), ``decompose`` writes
    the two smallest-cone decompositions in closed form and
    ``_check_decompositions`` proves in integers that they are; no fan,
    subdivision or divisor is built.

    The verdict and the bounds are integer comparisons.  With eps = p/q,
    N = n_1 a = l_1 + sum(A) (``a_num``) and the B_k of
    ``_check_decompositions`` (see the module docstring), multiplying each
    side by q n_1 > 0 gives:
    - fires, lhs > rhs: p n_1 - q(N + (r - 1) sum(A)) > q (r - 1) sum(B);
    - a < eps_prime = p/(3 d r q): 3 d r q N < p n_1;
    - u <= (r - 1) a: (r - 1) sum(A) <= (r - 1) N;
    - gamma beta_k < 2a: B_k < 2N, for every k;
    - eps - r a > (r - 1)(d - 1) 2a: p n_1 - q r N > 2 q (r - 1)(d - 1) N.
    """
    eps = ensure_rational(eps)
    nvec, lvec = lattice_vector(n), lattice_vector(l)
    eps_p = epsilon_prime(d, r, eps)
    data = decompose(d, nvec, lvec, r)
    alpha_total, beta_nums = _check_decompositions(d, r, nvec, lvec, data)

    p, q, n1 = eps.numerator, eps.denominator, nvec[0]
    a_num = lvec[0] + alpha_total
    lhs_num = p * n1 - q * (a_num + (r - 1) * alpha_total)
    rhs_num = (r - 1) * sum(beta_nums)
    bounds = None
    if 3 * d * r * q * a_num < p * n1:
        bounds = ExplicitBounds(
            u_bounded=(r - 1) * alpha_total <= (r - 1) * a_num,
            beta_terms_bounded=all(b < 2 * a_num for b in beta_nums),
            margin_strict=p * n1 - q * r * a_num > 2 * q * (r - 1) * (d - 1) * a_num,
        )
    return CertificateReport(
        d=d,
        r=r,
        eps=eps,
        eps_prime=eps_p,
        n=nvec,
        l=lvec,
        a=data.a,
        gamma=data.gamma,
        u=data.u,
        lam=data.lam,
        alphas=data.alphas,
        betas=data.betas,
        lhs=Fraction(lhs_num, q * n1),
        rhs=Fraction(rhs_num, n1),
        fires=lhs_num > q * rhs_num,
        bounds=bounds,
    )


@dataclass(frozen=True)
class ScanSummary:
    """Outcome of sweeping all primitive n with 0 < n_1 <= bound and
    |n_i| <= bound.  Instances split into the eps_prime-lc class (fiber
    multiplicity bounded by the external boundedness theorem, nothing to
    certify) and the singular class, where the mld minimizer is taken as l
    and the certificate must fire; any non-firing singular instance is a
    failure and is returned in full."""

    d: int
    r: int
    eps: Rat
    eps_prime: Rat
    bound: int
    total: int
    epsilon_lc: int
    singular: int
    fired: int
    failures: tuple[CertificateReport, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def _lift_range(rho: int, n1: int, bound: int) -> range:
    """The x in [-bound, bound] with x = rho mod n1, in increasing order."""
    return range((rho + bound) % n1 - bound, bound + 1, n1)


def _scan_n1(
    args: tuple[int, int, Rat, Rat, int, int],
) -> tuple[int, int, int, int, list[CertificateReport]]:
    """The count, the eps_prime-lc count, the singular and the fired counts
    of the primitive n of the box with first coordinate n1, and the reports
    of its failures in lexicographic order, swept by residue class as
    ``scan`` describes."""
    d, r, eps, eps_p, bound, n1 = args
    lifts = [_lift_range(rho, n1, bound) for rho in range(n1)]
    counts = [len(xs) for xs in lifts]
    # when ceil(eps_prime n1) <= 1, model_V_mld_below is None for every class
    classify = eps_p.numerator * n1 > eps_p.denominator
    total = lc = singular = fired = 0
    failures: list[CertificateReport] = []
    for rho in itertools.product(range(n1), repeat=d - 1):
        if math.gcd(n1, *rho) != 1:
            continue
        weight = math.prod(counts[x] for x in rho)
        total += weight
        below = model_V_mld_below(d, (n1,) + rho, eps_p) if classify else None
        if below is None:
            lc += weight
            continue
        k, *m = below[1]
        if k <= 0:
            raise InvariantViolation("an mld minimizer below the threshold must be vertical")
        singular += weight
        if certify(d, r, eps, (n1,) + rho, below[1]).fires:
            fired += weight
            continue
        for lift in itertools.product(*(lifts[x] for x in rho)):
            moved = (k,) + tuple(mi + k * ((y - x) // n1) for mi, x, y in zip(m, rho, lift))
            failures.append(certify(d, r, eps, (n1,) + lift, moved))
    failures.sort(key=lambda rep: rep.n)
    return total, lc, singular, fired, failures


def scan(
    d: int, r: int, eps: int | Rat, bound: int, jobs: int | None = None
) -> ScanSummary:
    """Classify every primitive n with 0 < n_1 <= bound and |n_i| <= bound
    and certify the singular ones, with the failures in lexicographic
    order.  An n is eps_prime-lc when ``model_V_mld_below(d, n, eps_prime)``
    finds no value below eps_prime; otherwise its minimizer is l.

    The sweep runs by residue class, one task per n_1.  Write n = (n_1, n')
    and rho = n' mod n_1 in [0, n_1)^(d-1).  The n of the box with first
    coordinate n_1 and residue rho are the lifts n' = rho + n_1 t inside
    the box; they number the product over i of
    #{x in [-bound, bound] : x = rho_i mod n_1}, read off a ``range``.
    The task counts the lifts of every class with gcd(n_1, rho) = 1 and
    classifies its representative (n_1,) + rho once: an eps_prime-lc
    class adds its whole weight to ``epsilon_lc``, a singular one to
    ``singular``, and to ``fired`` too when the certificate of its
    representative and minimizer fires.  Only a class that does not fire
    certifies its lifts, with the minimizer moved as in step 5, and sorts
    these failures by n.  No class is classified when
    ceil(eps_prime n_1) <= 1, where ``model_V_mld_below`` visits no slice.
    Joining the tasks in n_1 order gives the failures in lexicographic
    order.

    Lemma: for every thr > 0, whether ``model_V_mld_below(d, n, thr)`` is
    None, and its value when it is not, are the same for every lift
    n = (n_1, rho + n_1 t) of a class; for thr <= 1 the minimizer (k, m')
    of the representative moves to (k, m' + k t) on the lift, and
    ``certify`` gives every lift the same verdict.  Proof, with k, b, a_i
    and the box points as in ``model_V_mld``:
    1. gcd(n_1, n') = gcd(n_1, n' mod n_1), so the lifts of a class are
       all primitive or all not.
    2. The b of ``_v_cones`` is integer-linear in n', so b mod n_1, each
       a_i = (-k b_i) mod n_1 and each numerator k + sum(a_i) depend only
       on the class.
    3. The box point p = (k n + sum(a_i h_i))/n_1 has p_1 = k, and a lift
       moves it by k (0, t), which leaves gcd(p) unchanged: the primitive
       box points of the lifts match slice by slice and cone by cone,
       with the same numerators.
    4. The d+1 rays have numerator n_1 for every lift.
    The value is the least numerator below ceil(thr n_1) among these
    candidates, over n_1, or None when there is none; it is the same for
    every lift.  So no draw with thr > 1 breaks the lemma: the rays then
    compete, but with the same numerator n_1 for every lift.
    5. For thr <= 1 the rays never compete, so every candidate is a box
       point, and those of slice k all move by k (0, t).  A translation
       keeps the lexicographic order, and points of different slices
       differ in their first coordinate k, which no lift moves; so the
       (numerator, point) order is the same on every lift, and the lift's
       minimizer is the class minimizer moved by k (0, t).
    6. ``certify`` computes fires, lhs, rhs and bounds from n_1, l_1 and
       g = n_1 l - l_1 n only.  Moving n by n_1 (0, t) and l by k (0, t),
       with l_1 = k, leaves g unchanged, so they are the class's.
    ``scan`` uses thr = eps_prime = eps/(3 d r) <= 1/6.

    ``jobs`` caps the worker processes (None: the usable CPUs).  The pool
    maps over the n_1 tasks and starts min(jobs, usable CPUs, bound)
    workers, since it forks all of them at once; the sweep runs in this
    process when that is 1."""
    eps = ensure_rational(eps)
    eps_p = epsilon_prime(d, r, eps)
    if not isinstance(bound, int) or isinstance(bound, bool) or bound < 1:
        raise ValueError("bound must be an integer >= 1")
    tasks = [(d, r, eps, eps_p, bound, n1) for n1 in range(1, bound + 1)]
    cpus = len(os.sched_getaffinity(0))
    if jobs is None:
        jobs = cpus
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    workers = min(jobs, cpus, len(tasks))
    if workers == 1:
        results = [_scan_n1(task) for task in tasks]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_scan_n1, tasks))

    totals, lcs, singulars, fireds, failures = zip(*results)
    return ScanSummary(
        d=d,
        r=r,
        eps=eps,
        eps_prime=eps_p,
        bound=bound,
        total=sum(totals),
        epsilon_lc=sum(lcs),
        singular=sum(singulars),
        fired=sum(fireds),
        failures=tuple(itertools.chain.from_iterable(failures)),
    )
