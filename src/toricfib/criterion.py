"""The negativity certificate for the transformed fiber divisor.

For models built from vertical vectors n (fiber support T) and l (the
extracted divisor D) with parameters r and eps, the certificate compares

    lhs = eps - a - u        against        rhs = (r - 1) * sum(gamma * beta_k)

with exact rationals; a strict lhs > rhs certifies that the transform of T
sits in the divisorial negative part of K_Y + theta over the base.  Below
the threshold eps/(3 d r) a set of explicit bounds guarantees the strict
inequality, and ``scan`` sweeps whole families checking exactly that.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .exactmath import (
    InvariantViolation,
    LatticeVector,
    Rat,
    ensure_rational,
    lattice_vector,
)
from .models import DecompositionData, model_V, model_V_mld, model_W_U, model_Y


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
    verdict.  ``fires`` is the strict inequality lhs > rhs."""

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
        if self.fires != (self.lhs > self.rhs):
            raise InvariantViolation("fires must equal the strict comparison lhs > rhs")
        if self.eps_prime != self.eps / (3 * self.d * self.r):
            raise InvariantViolation("eps_prime must equal eps / (3 d r)")


def epsilon_prime(d: int, r: int, eps: int | Rat) -> Rat:
    """The threshold eps / (3 d r) below which the explicit bounds apply."""
    if not isinstance(d, int) or isinstance(d, bool) or d < 2:
        raise ValueError("d must be an integer >= 2")
    if not isinstance(r, int) or isinstance(r, bool) or r < 1:
        raise ValueError("r must be an integer >= 1")
    eps = ensure_rational(eps)
    if not 0 < eps <= 1:
        raise ValueError("eps must lie in (0, 1]")
    return eps / (3 * d * r)


def _explicit_bounds(d: int, r: int, eps: Rat, data: DecompositionData) -> ExplicitBounds:
    a = data.a
    u = (r - 1) * data.alpha_sum
    u_bounded = eps - a - u >= eps - r * a
    beta_terms = all(data.gamma * beta < 2 * a for _, beta in data.betas)
    margin = eps - r * a > (r - 1) * (d - 1) * 2 * a
    return ExplicitBounds(u_bounded, beta_terms, margin)


def certify(
    d: int, r: int, eps: int | Rat, n: Sequence[int], l: Sequence[int]
) -> CertificateReport:
    """Build all four models for (n, l), fill the decomposition data, and
    evaluate the certificate inequality exactly."""
    eps = ensure_rational(eps)
    nvec, lvec = lattice_vector(n), lattice_vector(l)
    eps_p = epsilon_prime(d, r, eps)
    v = model_V(d, nvec)
    _, _, ydata = model_Y(v, lvec, r, eps)
    _, _, wdata = model_W_U(d, lvec, nvec)
    data = ydata.merged_with(wdata)

    # the two decompositions glue: gamma*n - l = sum(gamma beta_k f_k) = -sum(alpha_j e_j)
    for i in range(d):
        lhs_coord = data.gamma * nvec[i] - lvec[i]
        beta_coord = sum((data.gamma * c * ray[i] for ray, c in data.betas), Fraction(0))
        alpha_coord = -sum((c * ray[i] for ray, c in data.alphas), Fraction(0))
        if lhs_coord != beta_coord or lhs_coord != alpha_coord:
            raise InvariantViolation("the two smallest-cone decompositions do not glue")

    lhs = eps - data.a - data.u
    rhs = (r - 1) * data.gamma * data.beta_sum
    bounds = _explicit_bounds(d, r, eps, data) if data.a < eps_p else None
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
        lhs=lhs,
        rhs=rhs,
        fires=lhs > rhs,
        bounds=bounds,
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


def primitive_family(d: int, bound: int) -> Iterator[LatticeVector]:
    """All primitive n with 0 < n_1 <= bound and |n_i| <= bound, in
    lexicographic order."""
    from math import gcd

    def rest(depth: int) -> Iterator[tuple[int, ...]]:
        if depth == 0:
            yield ()
            return
        for value in range(-bound, bound + 1):
            for tail in rest(depth - 1):
                yield (value,) + tail

    for n1 in range(1, bound + 1):
        for tail in rest(d - 1):
            vec = (n1,) + tail
            if gcd(*(abs(e) for e in vec)) == 1:
                yield vec


def _scan_instance(
    args: tuple[int, int, Rat, Rat, LatticeVector],
) -> tuple[LatticeVector, bool, CertificateReport | None]:
    d, r, eps, eps_p, n = args
    value, minimizer = model_V_mld(d, n)
    if value >= eps_p:
        return n, True, None
    if minimizer[0] <= 0:
        raise InvariantViolation(
            "an mld minimizer below the threshold must be vertical"
        )
    return n, False, certify(d, r, eps, n, minimizer)


def scan(
    d: int, r: int, eps: int | Rat, bound: int, jobs: int | None = None
) -> ScanSummary:
    """Classify every primitive n in the family and certify the singular
    ones, in deterministic instance order.  ``jobs`` controls worker
    processes; None takes the available parallelism."""
    eps = ensure_rational(eps)
    eps_p = epsilon_prime(d, r, eps)
    if not isinstance(bound, int) or isinstance(bound, bool) or bound < 1:
        raise ValueError("bound must be an integer >= 1")
    instances = [(d, r, eps, eps_p, n) for n in primitive_family(d, bound)]
    if jobs is None:
        jobs = os.cpu_count() or 1
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    if jobs == 1 or len(instances) < 4:
        results = [_scan_instance(item) for item in instances]
    else:
        chunk = max(1, len(instances) // (jobs * 8))
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_scan_instance, instances, chunksize=chunk))

    lc = sum(1 for _, is_lc, _ in results if is_lc)
    reports = [rep for _, is_lc, rep in results if not is_lc]
    fired = sum(1 for rep in reports if rep.fires)
    failures = tuple(rep for rep in reports if not rep.fires)
    return ScanSummary(
        d=d,
        r=r,
        eps=eps,
        eps_prime=eps_p,
        bound=bound,
        total=len(results),
        epsilon_lc=lc,
        singular=len(reports),
        fired=fired,
        failures=failures,
    )
