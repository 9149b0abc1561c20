"""Valuations, primality, and budgeted factorization."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import factorint, nextprime, prevprime, primerange

from walklevel import arith
from walklevel.arith import TRIAL_DIVISION_BOUND, divisors, factorize, is_prime, v_p
from walklevel.cli import build_parser
from walklevel.errors import FactorizationError

# primes that trial division leaves to rho: just above 10^4, up to 10^6
RHO_PRIMES = (
    list(primerange(10**4, 10**4 + 120))
    + [nextprime(10**5), prevprime(3 * 10**5), nextprime(5 * 10**5)]
    + list(primerange(10**6 - 200, 10**6))
)
TRIAL_PRIMES = [2, 3, 5, 7, 97, 997, prevprime(10**4)]


def sympy_factors(n):
    return {int(p): e for p, e in factorint(n).items()}


class TestPrimality:
    def test_small(self):
        primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
        for n in range(50):
            assert is_prime(n) == (n in primes)

    def test_carmichael(self):
        for n in (561, 1105, 1729, 2465, 41041):
            assert not is_prime(n)

    def test_large(self):
        assert is_prime(2**61 - 1)
        assert not is_prime((2**31 - 1) * (2**61 - 1))


class TestFactorize:
    def test_small(self):
        assert factorize(49248) == {2: 5, 3: 4, 19: 1}
        assert factorize(-1539) == {3: 4, 19: 1}
        assert factorize(1) == {}

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            factorize(0)

    def test_big_semiprime(self):
        p, q = 1000003, 1000033
        assert factorize(p * q) == {p: 1, q: 1}

    def test_rho_path(self):
        # both factors above the trial-division bound
        p, q = 10000019, 10000079
        assert factorize(p * q) == {p: 1, q: 1}

    def test_budget_exhaustion_reports_cofactor(self):
        # a semiprime far beyond any tiny rho budget
        p = 2**89 - 1
        q = 2**107 - 1
        with pytest.raises(FactorizationError) as info:
            factorize(p * q, budget=10)
        assert info.value.cofactor > 1
        assert (p * q) % info.value.cofactor == 0


class TestTrialBoundary:
    """Trial division stops at TRIAL_DIVISION_BOUND = 10^4; rho takes the rest."""

    def test_bound_covers_the_mates_level_cap(self):
        cap = build_parser().parse_args(["mates"]).level_cap
        assert cap <= TRIAL_DIVISION_BOUND

    def test_rho_takes_primes_above_the_bound(self, count_calls):
        calls = count_calls(arith._pollard_brent)
        p, q = RHO_PRIMES[0], RHO_PRIMES[1]
        assert factorize(p * q) == {p: 1, q: 1}
        assert calls == [p * q]

    def test_primes_and_powers_above_the_bound(self):
        for p in RHO_PRIMES:
            for e in (1, 2, 3):
                assert factorize(p**e) == {p: e}, (p, e)

    def test_mixed_trial_and_rho_primes(self):
        for i, p in enumerate(RHO_PRIMES):
            small = TRIAL_PRIMES[i % len(TRIAL_PRIMES)]
            q = RHO_PRIMES[-1 - i]
            n = small**3 * p * q**2
            assert factorize(n) == sympy_factors(n), n
            assert factorize(-n) == sympy_factors(n), n

    @given(
        st.lists(st.sampled_from(RHO_PRIMES), min_size=1, max_size=4),
        st.lists(st.sampled_from(TRIAL_PRIMES), max_size=4),
    )
    @settings(max_examples=60, deadline=None)
    def test_drawn_products(self, large, small):
        n = 1
        for p in large + small:
            n *= p
        assert factorize(n) == sympy_factors(n)


class TestHelpers:
    def test_divisors(self):
        assert divisors({2: 2, 3: 1}) == [1, 2, 3, 4, 6, 12]
        assert divisors({3: 2}) == [1, 3, 9]
        assert divisors({}) == [1]

    def test_v_p_sign_ignored(self):
        assert v_p(-270, 3) == 3
