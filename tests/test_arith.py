"""Valuations, primality, and budgeted factorization."""

import random
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import factorize_ref
from sympy import factorint, nextprime, prevprime, primerange

from walklevel import arith
from walklevel.arith import TRIAL_DIVISION_BOUND, divisors, factorize, is_prime, v_p
from walklevel.cli import build_parser
from walklevel.errors import FactorizationError
from walklevel.graphs import walk_matrix
from walklevel.intmat import det
from walklevel.sweep import derive_stream, random_graph

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


# 9973 is the largest prime below the trial bound, 10007 the smallest above it
BOUNDARY_NUMBERS = (
    [9973**k for k in range(1, 6)]
    + [10007, 10007**2, 9973 * 10007, 10007**2 * 9973, 10007**3, 2 * 10007**2,
       9967 * 9973, 9967**2 * 9973**3 * 10007, 10001**2, 10003 * 10007]
)


def seeded_normalized_dets(seed, orders):
    """det W / 2^floor(n/2) of the first controllable draw at each order."""
    out = []
    for n in orders:
        for attempt in range(1000):
            d = det(walk_matrix(random_graph(derive_stream(seed, n, attempt), n, 1, 2)))
            if d:
                out.append(d >> n // 2)
                break
    return out


class TestPrimorialGcd:
    """factorize takes n's trial primes from gcd(n, product of the primes
    below 10^4); the frozen wheel loop is the reference, key order included."""

    def check(self, n):
        got = factorize(n)
        expected = factorize_ref(n)
        assert got == expected == sympy_factors(abs(n)), n
        assert list(got) == list(expected), n

    def test_primorial(self):
        assert arith._PRIMORIAL == prod(primerange(2, TRIAL_DIVISION_BOUND))
        assert arith._PRIMORIAL.bit_length() == 14277
        # a cofactor free of trial primes is prime below the next prime's square
        assert arith._PRIME_BELOW == nextprime(TRIAL_DIVISION_BOUND) ** 2

    def test_boundary_numbers(self):
        for n in BOUNDARY_NUMBERS:
            self.check(n)
            self.check(-n)

    def test_many_trial_primes_with_high_exponents(self):
        primes = list(primerange(2, TRIAL_DIVISION_BOUND))
        rng = random.Random(13)
        for _ in range(60):
            n = 1
            for p in rng.sample(primes, rng.randint(1, 40)):
                n *= p ** rng.randint(1, 25)
            if rng.random() < 0.5:
                n *= rng.choice(RHO_PRIMES) ** rng.randint(1, 2)
            self.check(n)
            self.check(-n)

    def test_small_numbers(self):
        for n in range(1, 3000):
            self.check(n)
            self.check(-n)

    def test_normalized_dets_of_walk_matrices(self):
        for seed in (0, 42):
            for nd in seeded_normalized_dets(seed, range(6, 19)):
                self.check(nd)

    def test_rho_gets_the_same_inputs(self, count_calls):
        calls = count_calls(arith._pollard_brent)
        for n in BOUNDARY_NUMBERS + seeded_normalized_dets(42, range(6, 19)):
            factorize(n)
        new = list(calls)
        calls.clear()
        for n in BOUNDARY_NUMBERS + seeded_normalized_dets(42, range(6, 19)):
            factorize_ref(n)
        assert new == calls
        assert len(calls) > 0

    def test_same_error_on_an_exhausted_budget(self):
        n = 3**4 * 9973 * (2**89 - 1) * (2**107 - 1)
        with pytest.raises(FactorizationError) as got:
            factorize(n, budget=10)
        with pytest.raises(FactorizationError) as expected:
            factorize_ref(n, budget=10)
        # the error names the input, where the frozen loop names what trial
        # division left
        assert got.value.n == n
        assert str(got.value).startswith(f"could not fully factor {n}: ")
        assert got.value.factored == expected.value.factored == {3: 4, 9973: 1}
        assert got.value.cofactor == expected.value.cofactor


class TestHelpers:
    def test_divisors(self):
        assert divisors({2: 2, 3: 1}) == [1, 2, 3, 4, 6, 12]
        assert divisors({3: 2}) == [1, 3, 9]
        assert divisors({}) == [1]

    def test_v_p_sign_ignored(self):
        assert v_p(-270, 3) == 3
