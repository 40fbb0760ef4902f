"""The negativity certificate for the transformed fiber divisor.

For models built from vertical vectors n (fiber support T) and l (the
extracted divisor D) with parameters r and eps, the certificate compares

    lhs = eps - a - u        against        rhs = (r - 1) * sum(gamma * beta_k)

with exact rationals; a strict lhs > rhs certifies that the transform of T
sits in the divisorial negative part of K_Y + theta over the base.  Below
the threshold eps' = eps/(3 d r) a set of explicit bounds forces the
strict inequality (the lemma of ``certify``), and ``scan`` sweeps whole
families counting the instances below it without visiting the residue
classes n' mod n_1 one by one.  It counts the primitive n of the box in
one Moebius sum over e <= bound, and the singular ones, those whose
``models.model_V_mld`` is below eps', as the lifts of the classes that
``models.classes_below`` solves from the short vectors (k, w),
w = -k n' (mod n_1), of the V model's lattice: whether n is eps'-lc
depends on n only through n_1 and n' mod n_1.  No n_1 <= 2/eps' has a
singular class, so only the n_1 above it are solved, each from a prefix
of one table of short vectors built once per sweep.  A singular n needs
no certificate: its minimizer has a < eps', where the certificate always
fires.
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

import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .exactmath import (
    InvariantViolation,
    LatticeVector,
    Rat,
    check_int,
)
from .models import (
    DecompositionData,
    check_r_eps,
    classes_below,
    decompose,
    horizontal_rays,
    short_vectors,
)


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


def _checked_eps(d: int, r: int, eps: int | Rat) -> tuple[Rat, Rat]:
    """eps as a Fraction and eps_prime = eps / (3 d r), once d, r and eps
    are checked, in that order."""
    check_int(d, "d", 2)
    eps = check_r_eps(r, eps)
    return eps, Fraction(eps.numerator, eps.denominator * 3 * d * r)


def epsilon_prime(d: int, r: int, eps: int | Rat) -> Rat:
    """The threshold eps / (3 d r) below which the explicit bounds apply."""
    return _checked_eps(d, r, eps)[1]


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

    After the input checks (raising ``ValueError``; d, r and eps first, as
    in ``epsilon_prime``, then n and l, which ``decompose`` checks),
    ``decompose`` writes the two smallest-cone decompositions in closed
    form and ``_check_decompositions`` proves in integers that they are;
    no fan, subdivision or divisor is built.  The report's a = N/n_1,
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
    eps, eps_p = _checked_eps(d, r, eps)
    data = decompose(d, n, l)
    nvec, lvec = tuple(n), tuple(l)
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


def _scan_n1(args: tuple[int, int, int, list[int], list[tuple[int, ...]]]) -> int:
    """The number of singular n of the box with first coordinate n1: the
    lifts of the classes ``models.classes_below`` solves at
    C = ceil(eps_prime n1) from the sweep's short-vector table.  A class
    rho has the product over i of the lift counts of its rho_i.

    The x in [-bound, bound] with x = rho mod n1 number
    floor((bound - rho)/n1) - floor((-bound - 1 - rho)/n1).  Proof: they
    are the x = rho + n1 t with -bound - 1 < rho + n1 t <= bound, that is
    the integers t with (-bound - 1 - rho)/n1 < t <= (bound - rho)/n1, and
    a half-open interval (a, b] holds floor(b) - floor(a) integers."""
    n1, cap, bound, psis, ws = args
    singular = 0
    for rho in classes_below(n1, cap, psis, ws):
        lifts = 1
        for x in rho:
            lifts *= (bound - x) // n1 - (-bound - 1 - x) // n1
        singular += lifts
    return singular


def scan(
    d: int, r: int, eps: int | Rat, bound: int, jobs: int = 1
) -> ScanSummary:
    """Count every primitive n with 0 < n_1 <= bound and |n_i| <= bound,
    and the eps_prime-lc and the singular ones among them.  An n is
    eps_prime-lc when ``models.model_V_mld(d, n)`` is at least eps_prime;
    otherwise its minimizer is l, and the certificate of (n, l) fires
    (step 3 below), so ``fired`` is ``singular`` and there are no
    failures: no certificate and no mld is computed.

    Lemma (the total): the primitive n of the box number
    sum over e <= bound of mu(e) (2 floor(bound/e) + 1)^(d-1) floor(bound/e),
    with mu the Moebius function, fixed by mu(1) = 1 and sum over e | m
    of mu(e) = 0 for m > 1: the loop takes mu(e), in increasing e, off
    every proper multiple of e.  By the time the loop reaches e, every
    proper divisor of e has been taken off it, so mu(e) is final there:
    the loop adds the term of e to the total at once, and skips the e
    with mu(e) = 0, which take nothing off their multiples and add
    nothing.  Proof: n is primitive when gcd(n) = 1, and
    [gcd(n) = 1] = sum over e | gcd(n) of mu(e); summed over the box
    with the two sums swapped, each e counts the n with e | n_i for every
    i, floor(bound/e) values of n_1 times (2 floor(bound/e) + 1)^(d-1)
    values of n', the multiples of e in [-bound, bound] being 0 and
    +-e, ..., +-e floor(bound/e).

    Write n = (n_1, n'), rho = n' mod n_1 in [0, n_1)^(d-1) and
    C = ceil(eps_prime n_1).  The n of the box with first coordinate n_1
    and class rho are the lifts n' = rho + n_1 t inside the box; they
    number the product over i of #{x in [-bound, bound] : x = rho_i mod
    n_1}, counted by floor division in ``_scan_n1``.  By the step
    k <= C - 2 of the lemma of ``models.singular_classes``, no n_1 with
    C <= 2, that is n_1 <= 2/eps_prime, has a singular class, so the
    sweep runs one task for each n_1 from floor(2/eps_prime) + 1 to
    bound, largest first.
    The task solves the singular classes by ``models.classes_below`` at C,
    as ``singular_classes(d, n_1, eps_prime)`` does, and counts their
    lifts.  Every task reads one table, ``models.short_vectors(d, C_max)``
    with C_max = ceil(eps_prime bound) >= C, of which the solve step reads
    the prefixes that the table of C holds.

    Lemma (the singular n): the singular n of the box are the lifts of the
    classes of ``singular_classes(d, n_1, eps_prime)``, and the
    certificate of each, with its minimizer as l, fires.  Proof:
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

    ``jobs`` caps the worker processes, an integer >= 1; the default 1
    runs the sweep in this process and starts no pool.  The pool maps
    over the n_1 tasks, the largest and costliest first so that the last
    ones to finish are short, and starts min(jobs, usable CPUs, tasks)
    workers, since it forks all of them at once; the sweep runs in this
    process when that is at most 1.  The worker machinery
    (``concurrent.futures.process`` and ``multiprocessing``) is imported
    when the first pool starts, so a process that starts none, every
    ``certify``, ``mld`` and ``example`` run and every scan at jobs=1
    among them, never loads it."""
    eps, eps_p = _checked_eps(d, r, eps)
    check_int(bound, "bound", 1)
    check_int(jobs, "jobs", 1)
    mu = [0, 1] + [0] * (bound - 1)
    total = 0
    for e in range(1, bound + 1):
        if mu[e]:
            for m in range(2 * e, bound + 1, e):
                mu[m] -= mu[e]
            total += mu[e] * (2 * (bound // e) + 1) ** (d - 1) * (bound // e)

    p, q = eps_p.numerator, eps_p.denominator
    psis, ws = short_vectors(d, -(-p * bound // q))
    tasks = [(n1, -(-p * n1 // q), bound, psis, ws) for n1 in range(bound, 2 * q // p, -1)]
    cpus = len(os.sched_getaffinity(0))
    workers = min(jobs, cpus, len(tasks))
    if workers <= 1:
        singular = sum(map(_scan_n1, tasks))
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            singular = sum(pool.map(_scan_n1, tasks))

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
