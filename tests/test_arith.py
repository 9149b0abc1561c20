"""Valuations, primality, and budgeted factorization."""

import pytest

from walklevel.arith import divisors, factorize, is_prime, v_p
from walklevel.errors import FactorizationError


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


class TestHelpers:
    def test_divisors(self):
        assert divisors({2: 2, 3: 1}) == [1, 2, 3, 4, 6, 12]
        assert divisors({3: 2}) == [1, 3, 9]
        assert divisors({}) == [1]

    def test_v_p_sign_ignored(self):
        assert v_p(-270, 3) == 3
