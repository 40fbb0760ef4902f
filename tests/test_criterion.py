import random
from fractions import Fraction

import pytest

from toricfib.criterion import (
    _scan_instance,
    certify,
    epsilon_prime,
    primitive_family,
    scan,
    verify_explicit_bounds,
)
from toricfib.exactmath import is_primitive


class TestEpsilonPrime:
    def test_values(self):
        assert epsilon_prime(3, 2, Fraction(1, 2)) == Fraction(1, 36)
        assert epsilon_prime(2, 1, Fraction(1)) == Fraction(1, 6)

    def test_monotone_in_r(self):
        values = [epsilon_prime(2, r, Fraction(1, 2)) for r in range(1, 6)]
        assert values == sorted(values, reverse=True)
        assert len(set(values)) == len(values)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            epsilon_prime(1, 1, Fraction(1, 2))
        with pytest.raises(ValueError):
            epsilon_prime(2, 0, Fraction(1, 2))
        with pytest.raises(ValueError):
            epsilon_prime(2, 1, Fraction(3, 2))


class TestCertify:
    @pytest.mark.parametrize("n", range(2, 30))
    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_chain_family_closed_form(self, n, r):
        eps = Fraction(1, 2)
        report = certify(2, r, eps, (n, 1), (1, 0))
        assert report.a == Fraction(2, n)
        assert report.gamma == Fraction(1, n)
        assert report.lam == n
        assert report.lhs == eps - Fraction(2, n) - Fraction(r - 1, n)
        assert report.rhs == Fraction(r - 1, n)
        assert report.fires == (eps > Fraction(2 * r, n))

    def test_no_fire_when_eps_too_small(self):
        report = certify(2, 1, Fraction(1, 4), (4, 1), (1, 0))
        # eps <= a + u means lhs <= 0 <= rhs
        assert report.lhs <= 0 <= report.rhs
        assert not report.fires

    def test_dimension_three_degenerate_rhs(self):
        report = certify(3, 1, Fraction(1, 2), (4, 1, 1), (1, 0, 1))
        assert report.rhs == 0
        assert report.a == Fraction(3, 2)
        assert not report.fires

    def test_deterministic(self):
        first = certify(2, 2, Fraction(1, 3), (7, 2), (1, 0))
        second = certify(2, 2, Fraction(1, 3), (7, 2), (1, 0))
        assert first == second

    def test_fires_matches_exact_inequality(self):
        rng = random.Random(41)
        for _ in range(40):
            d = rng.choice((2, 3))
            n = tuple([rng.randint(1, 9)] + [rng.randint(-9, 9) for _ in range(d - 1)])
            l = tuple([rng.randint(1, 9)] + [rng.randint(-9, 9) for _ in range(d - 1)])
            if not (is_primitive(n) and is_primitive(l)) or n == l:
                continue
            r = rng.randint(1, 3)
            eps = Fraction(rng.randint(1, 6), 6)
            report = certify(d, r, eps, n, l)
            gamma_beta = (r - 1) * sum(
                (report.gamma * c for _, c in report.betas), Fraction(0)
            )
            assert report.fires == (eps - report.a - report.u > gamma_beta)


class TestExplicitBounds:
    def test_chain_family_below_threshold(self):
        # a = 2/n < eps/(3dr) needs n > 12 r / eps
        eps = Fraction(1, 2)
        for r in (1, 2, 3):
            n = 24 * r + 1
            report = certify(2, r, eps, (n, 1), (1, 0))
            assert report.a < report.eps_prime
            assert verify_explicit_bounds(report)
            assert report.fires

    def test_r_one_reduces_to_positivity(self):
        report = certify(2, 1, Fraction(1, 2), (25, 1), (1, 0))
        assert report.bounds is not None
        assert report.bounds.margin_strict == (Fraction(1, 2) - report.a > 0)
        assert verify_explicit_bounds(report)

    def test_precondition_enforced(self):
        report = certify(2, 1, Fraction(1, 2), (4, 1), (1, 0))
        assert report.a >= report.eps_prime
        with pytest.raises(ValueError, match="below eps_prime"):
            verify_explicit_bounds(report)

    def test_implication_on_singular_families(self):
        # families engineered so a < eps_prime genuinely holds
        cases = []
        for big in (49, 50, 73, 96):
            cases.append((2, (big, 1), (1, 0)))
        for big in (55, 81, 100):
            cases.append((3, (big, 1, 1), (1, 0, 0)))
        for big in (61, 90):
            cases.append((4, (big, 1, 1, 1), (1, 0, 0, 0)))
        hit = 0
        for d, n, l in cases:
            for r in (1, 2, 3):
                for eps in (Fraction(1, 3), Fraction(1, 2), Fraction(1)):
                    report = certify(d, r, eps, n, l)
                    if report.a >= report.eps_prime:
                        continue
                    hit += 1
                    assert verify_explicit_bounds(report)
                    assert report.fires
        assert hit > 20  # the probe must not be vacuous


class TestPrimitiveFamily:
    def test_bound_one(self):
        assert list(primitive_family(2, 1)) == [(1, -1), (1, 0), (1, 1)]

    def test_all_primitive_and_ordered(self):
        family = list(primitive_family(3, 3))
        assert all(is_primitive(n) and n[0] >= 1 for n in family)
        assert family == sorted(family)
        assert len(family) == len(set(family))


class TestScan:
    def test_bound_one_is_smooth_only(self):
        summary = scan(2, 1, Fraction(1, 2), 1, jobs=1)
        assert summary.total == 3
        assert summary.epsilon_lc == 3
        assert summary.singular == 0
        assert summary.ok

    def test_d2_zero_failures(self):
        summary = scan(2, 1, Fraction(1, 2), 20, jobs=1)
        assert summary.singular == summary.fired
        assert summary.ok

    def test_d2_singular_instances_fire(self):
        # bound 26 puts the chain-family tail below the threshold
        summary = scan(2, 1, Fraction(1, 2), 26, jobs=1)
        assert summary.singular > 0
        assert summary.fired == summary.singular
        assert summary.ok

    def test_d3_zero_failures(self):
        summary = scan(3, 2, Fraction(1, 3), 8, jobs=1)
        assert summary.ok
        assert summary.total == summary.epsilon_lc + summary.singular

    def test_d3_singular_instances_certified(self):
        # (N,1,1) has mld 2/N, below eps' = 1/54 from N = 109 on
        eps = Fraction(1, 3)
        eps_p = epsilon_prime(3, 2, eps)
        for n in [(109, 1, 1), (110, 1, 1), (150, 1, 1)]:
            _, is_lc, report = _scan_instance((3, 2, eps, eps_p, n))
            assert not is_lc
            assert report.a == Fraction(2, n[0])
            assert report.fires
            assert verify_explicit_bounds(report)
        assert _scan_instance((3, 2, eps, eps_p, (113, 2, 1))) == ((113, 2, 1), True, None)

    def test_parallel_matches_serial(self):
        serial = scan(2, 1, Fraction(1, 2), 26, jobs=1)
        parallel = scan(2, 1, Fraction(1, 2), 26, jobs=2)
        assert serial == parallel

    def test_bound_validation(self):
        with pytest.raises(ValueError):
            scan(2, 1, Fraction(1, 2), 0)
