"""The negativity certificate for the transformed fiber divisor.

For models built from vertical vectors n (fiber support T) and l (the
extracted divisor D) with parameters r and eps, the certificate compares

    lhs = eps - a - u        against        rhs = (r - 1) * sum(gamma * beta_k)

with exact rationals; a strict lhs > rhs certifies that the transform of T
sits in the divisorial negative part of K_Y + theta over the base.  Below
the threshold eps' = eps/(3 d r) a set of explicit bounds forces the
strict inequality (the lemma of ``certify``), and ``scan`` sweeps whole
families counting the instances below it, one n_1 at a time and without
visiting the residue classes n' mod n_1 one by one.  It counts the
primitive n of the box by Moebius inversion over the primes of n_1, and
the singular ones, those whose ``models.model_V_mld`` is below eps', as
the lifts of the classes that ``models.singular_classes`` enumerates from
the short vectors (k, w), w = -k n' (mod n_1), of the V model's lattice:
whether n is eps'-lc depends on n only through n_1 and n' mod n_1.  A
singular n needs no certificate: its minimizer has a < eps', where the
certificate always fires.  No n_1 <= 2/eps' has a singular class.
The certificate reads only the two smallest-cone decompositions of
``models.decompose``, so it builds no fan: the models Y, W and U live in
``models`` and are exercised by the tests, with the two checks on Y
(``verify_extraction_identities``, ``log_canonical_class_split``) reading
the star subdivision that ``model_Y`` returns.

The certificate runs in integers.  With eps = p/q and the integer
numerators A_j = n_1 alpha_j and B_k = l_1 beta_k of the decompositions,
which ``_check_decompositions`` proves and returns, write N = l_1 + sum(A).
The checks give gamma = l_1/n_1, so a = gamma + sum(alphas) = N/n_1,
u = (r - 1) sum(alphas) = (r - 1) sum(A)/n_1, lam = 1/gamma = n_1/l_1 and
gamma beta_k = B_k/n_1; no decomposition stores a, u or lam.  Then
lhs = (p n_1 - q(N + (r - 1) sum(A)))/(q n_1), rhs = (r - 1) sum(B)/n_1,
and every comparison of ``certify`` is one of integers, multiplied
through by the positive q n_1 (``certify`` lists them).  Fractions are
built only for the fields of the report, a, u and lam among them.
"""

from __future__ import annotations

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
from .models import DecompositionData, check_r_eps, decompose, horizontal_rays, singular_classes


@dataclass(frozen=True)
class ExplicitBounds:
    """The three bounds that force the certificate below the threshold:
    u is dominated by (r-1)a, every gamma*beta_k stays under 2a, and the
    margin eps - r*a clears (r-1)(d-1)*2a strictly.  ``certify`` proves
    that they hold whenever a < eps_prime."""

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
    eps = check_r_eps(r, eps)
    return Fraction(eps.numerator, eps.denominator * 3 * d * r)


def _check_decompositions(
    d: int, n: LatticeVector, l: LatticeVector, data: DecompositionData
) -> tuple[int, list[int]]:
    """Prove in integers that ``data`` holds the smallest-cone
    decompositions of l on V and of n on W, and return sum(A) and the list
    of the B_k, where A_j = n_1 alpha_j and B_k = l_1 beta_k are integers.
    With g = n_1 l - l_1 n, the glue check asks gamma = l_1/n_1, that
    every A_j and B_k is an integer, sum(A_j h_j) = g and
    sum(B_k h_k) = -g; the face check asks that each side's horizontal
    rays miss at least one of H = (e_2, ..., e_d, c).  Then
    n = (n_1/l_1) l + sum(beta_k h_k), with n_1/l_1 = 1/gamma.  With the
    strict positivity of every coefficient, which ``DecompositionData``
    checks, this puts l in the relative interior of a face <n, S> of the
    V cone <n, H minus h_m>, which is then its smallest cone, and n
    likewise on W.
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
    return sum(sides[0]), sides[1]


def certify(
    d: int, r: int, eps: int | Rat, n: Sequence[int], l: Sequence[int]
) -> CertificateReport:
    """Evaluate the certificate inequality exactly for (n, l).

    After the input checks (raising ``ValueError``), ``decompose`` writes
    the two smallest-cone decompositions in closed form and
    ``_check_decompositions`` proves in integers that they are; no fan,
    subdivision or divisor is built.  The report's a = N/n_1,
    u = (r - 1) sum(A)/n_1 and lam = n_1/l_1 are built from the proved
    integers.

    The verdict and the threshold are integer comparisons.  With eps = p/q,
    N = n_1 a = l_1 + sum(A) (``a_num``) and the B_k of
    ``_check_decompositions`` (see the module docstring), multiplying each
    side by q n_1 > 0 gives:
    - fires, lhs > rhs: p n_1 - q(N + (r - 1) sum(A)) > q (r - 1) sum(B);
    - a < eps_prime = p/(3 d r q): 3 d r q N < p n_1.
    The explicit bounds read, in the same way:
    - u <= (r - 1) a: (r - 1) sum(A) <= (r - 1) N;
    - gamma beta_k < 2a: B_k < 2N, for every k;
    - eps - r a > (r - 1)(d - 1) 2a: p n_1 - q r N > 2 q (r - 1)(d - 1) N.

    Lemma: when a < eps_prime, all three bounds hold and the certificate
    fires.  So ``bounds`` is all true there, with no comparison made, and
    None above the threshold.  Proof: extend A and B by zeros to all of
    H = (e_2, ..., e_d, c).  ``_check_decompositions`` proves
    sum(A_j h_j) = g and sum(B_k h_k) = -g, and that B misses some h_m.
    So sum((A_i + B_i) h_i) = 0, and since sum(h) = 0 is the only relation
    among H, A + B = t (1, ..., 1).  As B >= 0 and B_m = 0,
    t = A_m = max(A) <= sum(A) < N (l_1 > 0), and sum(A) + sum(B) = d t,
    so fires reads q(N + (r - 1) d t) < p n_1 for every input.  Suppose
    3 d r q N < p n_1.  Then:
    - (r - 1) sum(A) <= (r - 1) N, as r >= 1;
    - B_k = t - A_k <= t < N < 2N;
    - p n_1 - q r N > q r N (3d - 1) > 2 q (r - 1)(d - 1) N, as
      r (3d - 1) - 2 (r - 1)(d - 1) = d r + r + 2d - 2 > 0;
    - fires: q(N + (r - 1) d t) <= q N (1 + (r - 1) d) <= 3 d r q N
      < p n_1.
    """
    eps = ensure_rational(eps)
    nvec, lvec = lattice_vector(n), lattice_vector(l)
    eps_p = epsilon_prime(d, r, eps)
    data = decompose(d, nvec, lvec)
    alpha_total, beta_nums = _check_decompositions(d, nvec, lvec, data)

    p, q, n1, l1 = eps.numerator, eps.denominator, nvec[0], lvec[0]
    a_num = l1 + alpha_total
    u_num = (r - 1) * alpha_total
    lhs_num = p * n1 - q * (a_num + u_num)
    rhs_num = (r - 1) * sum(beta_nums)
    below = 3 * d * r * q * a_num < p * n1
    return CertificateReport(
        d=d,
        r=r,
        eps=eps,
        eps_prime=eps_p,
        n=nvec,
        l=lvec,
        a=Fraction(a_num, n1),
        gamma=data.gamma,
        u=Fraction(u_num, n1),
        lam=Fraction(n1, l1),
        alphas=data.alphas,
        betas=data.betas,
        lhs=Fraction(lhs_num, q * n1),
        rhs=Fraction(rhs_num, n1),
        fires=lhs_num > q * rhs_num,
        bounds=ExplicitBounds(True, True, True) if below else None,
    )


@dataclass(frozen=True)
class ScanSummary:
    """Outcome of sweeping all primitive n with 0 < n_1 <= bound and
    |n_i| <= bound: ``total`` of them, counted by Moebius inversion, of
    which ``singular`` have ``models.model_V_mld`` below eps_prime, counted
    as the lifts of the enumerated singular classes, and ``epsilon_lc`` are
    the rest.  The eps_prime-lc ones have fiber multiplicity bounded by the
    external boundedness theorem and nothing to certify; for a singular
    one the mld minimizer is taken as l and the certificate fires by the
    lemma of ``certify``, so ``scan`` reports fired = singular and no
    failures.  ``failures`` would hold the reports of non-firing singular
    instances."""

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


def _lift_range(rho: int, n1: int, bound: int) -> range:
    """The x in [-bound, bound] with x = rho mod n1, in increasing order."""
    return range((rho + bound) % n1 - bound, bound + 1, n1)


def _primitive_count(d: int, n1: int, bound: int) -> int:
    """The number of primitive n = (n1, n') with n' in [-bound, bound]^(d-1).

    Lemma: it is the sum of mu(e) (2 floor(bound/e) + 1)^(d-1) over the
    squarefree divisors e of n1, with mu(e) = (-1)^(number of primes of e).
    Proof: n is primitive when no prime p of n1 divides every n'_i.  For
    e | n1 the n' with e | n'_i for every i number
    #{t in [-bound, bound] : e | t}^(d-1) = (2 floor(bound/e) + 1)^(d-1),
    the multiples of e in [-bound, bound] being 0 and +-e, ..., +-e
    floor(bound/e).  Inclusion-exclusion over the primes of n1 counts each
    n' whose common primes with n1 form a nonempty set P with weight
    sum over the subsets S of P of (-1)^|S| = 0, and the others once.
    """
    terms = [(1, 1)]
    rest, p = n1, 2
    while p * p <= rest:
        if rest % p == 0:
            terms += [(e * p, -mu) for e, mu in terms]
            while rest % p == 0:
                rest //= p
        p += 1
    if rest > 1:
        terms += [(e * rest, -mu) for e, mu in terms]
    return sum(mu * (2 * (bound // e) + 1) ** (d - 1) for e, mu in terms)


def _scan_n1(args: tuple[int, Rat, int, int]) -> tuple[int, int, int]:
    """The count, the eps_prime-lc count and the singular count of the
    primitive n of the box with first coordinate n1, as ``scan``
    describes: the total by ``_primitive_count``, the singular classes by
    ``models.singular_classes``, each weighted by its lifts."""
    d, eps_p, bound, n1 = args
    total = _primitive_count(d, n1, bound)
    classes = singular_classes(d, n1, eps_p)
    singular = sum(math.prod(len(_lift_range(x, n1, bound)) for x in rho) for rho in classes)
    return total, total - singular, singular


def scan(
    d: int, r: int, eps: int | Rat, bound: int, jobs: int | None = None
) -> ScanSummary:
    """Count every primitive n with 0 < n_1 <= bound and |n_i| <= bound,
    and the eps_prime-lc and the singular ones among them.  An n is
    eps_prime-lc when ``models.model_V_mld(d, n)`` is at least eps_prime;
    otherwise its minimizer is l, and the certificate of (n, l) fires
    (step 3), so ``fired`` is ``singular`` and there are no failures: no
    certificate and no mld is computed.

    The sweep runs one task per n_1.  Write n = (n_1, n') and
    rho = n' mod n_1 in [0, n_1)^(d-1).  The n of the box with first
    coordinate n_1 and class rho are the lifts n' = rho + n_1 t inside the
    box; they number the product over i of
    #{x in [-bound, bound] : x = rho_i mod n_1}, read off a ``range``.  The
    task counts the primitive n by ``_primitive_count``, enumerates the
    singular classes by ``models.singular_classes`` at eps_prime, adds
    their lifts to ``singular`` and the rest to ``epsilon_lc``.

    Lemma: the singular n of the box are the lifts of the classes of
    ``singular_classes(d, n_1, eps_prime)``, and the certificate of each,
    with its minimizer as l, fires.  Proof:
    1. gcd(n_1, n') = gcd(n_1, n' mod n_1), so the lifts of a class are
       all primitive or all not, and the classes of the primitive n are
       the rho with gcd(n_1, rho) = 1.
    2. The lemma of ``singular_classes`` (eps_prime <= 1/6 <= 1) reads n
       only through n_1 and w = -k n' = -k rho (mod n_1): every lift of a
       class is singular exactly when the class is listed.
    3. The minimizer l of a singular n is a primitive box point of a slice
       1 <= k < n_1 (the proof of that lemma): l is vertical, l != n, and
       its log discrepancy, the value, is the a of ``certify`` and below
       eps_prime.  The lemma of ``certify`` makes the certificate fire.

    ``jobs`` caps the worker processes: None (the usable CPUs) or an
    integer >= 1.  The pool maps over the n_1 tasks and starts
    min(jobs, usable CPUs, bound) workers, since it forks all of them at
    once; the sweep runs in this process when that is 1."""
    eps = ensure_rational(eps)
    eps_p = epsilon_prime(d, r, eps)
    if not isinstance(bound, int) or isinstance(bound, bool) or bound < 1:
        raise ValueError("bound must be an integer >= 1")
    if jobs is not None and (not isinstance(jobs, int) or isinstance(jobs, bool) or jobs < 1):
        raise ValueError("jobs must be an integer >= 1")
    tasks = [(d, eps_p, bound, n1) for n1 in range(1, bound + 1)]
    cpus = len(os.sched_getaffinity(0))
    workers = min(jobs or cpus, cpus, len(tasks))
    if workers == 1:
        results = [_scan_n1(task) for task in tasks]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_scan_n1, tasks))

    total, lc, singular = map(sum, zip(*results))
    return ScanSummary(
        d=d,
        r=r,
        eps=eps,
        eps_prime=eps_p,
        bound=bound,
        total=total,
        epsilon_lc=lc,
        singular=singular,
        fired=singular,
        failures=(),
    )
