"""Exact integer arithmetic helpers: p-adic valuations and factoring.

Factoring first takes g = gcd(n, P), where P is the product of the primes
below ``TRIAL_DIVISION_BOUND`` = 10^4 (a 14,277-bit number built once at
import). The primes dividing g are exactly the small primes of n; walking
them in increasing order, up to the point where p^2 > g leaves g itself
prime, replaces about 1,200 big-integer remainders with one gcd and a few
small-integer ones. The cofactor has no prime below 10^4, so below 10007^2
it is prime; otherwise it goes to Brent's cycle variant of Pollard rho
(Brent 1980), which finds a prime factor p in about sqrt(p) steps, with an
explicit work budget so callers can fail loudly instead of hanging on
adversarial inputs. The bound stays at least the default
``walklevel mates --level-cap`` (1000), so every prime below that cap is
found without rho.
"""

from __future__ import annotations

import math
from typing import Mapping

from .errors import FactorizationError

TRIAL_DIVISION_BOUND = 10**4


def _primes_below(bound: int) -> tuple[int, ...]:
    """The primes below ``bound``, by the sieve of Eratosthenes."""
    sieve = bytearray([1]) * bound
    sieve[:2] = b"\0\0"
    for p in range(2, math.isqrt(bound - 1) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, bound, p)))
    return tuple(p for p in range(bound) if sieve[p])


_TRIAL_PRIMES = _primes_below(TRIAL_DIVISION_BOUND)
_PRIMORIAL = math.prod(_TRIAL_PRIMES)
# a cofactor free of trial primes and below this square of the next prime is prime
_PRIME_BELOW = 10007**2

# Deterministic Miller-Rabin witness set for n < 3.3 * 10**24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def v_p(m: int, p: int) -> int:
    """p-adic valuation of a nonzero integer (sign ignored)."""
    if m == 0:
        raise ValueError("valuation of 0 is undefined")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    m = abs(m)
    k = 0
    while m % p == 0:
        m //= p
        k += 1
    return k


def is_prime(n: int) -> bool:
    """Miller-Rabin to the first 13 prime bases.

    Exact for n < psi_13 ~ 3.3 * 10**24 (Sorenson-Webster 2017). Above that
    a True is a strong probable prime, not a proof; normalized determinants
    pass that size at about n = 16.
    """
    if n < 2:
        return False
    for small in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % small == 0:
            return n == small
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        if a % n == 0:
            continue
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_brent(n: int, budget: int, seed: int = 1) -> int | None:
    """One Brent-rho attempt; returns a nontrivial factor or None."""
    if n % 2 == 0:
        return 2
    y, c, m = 2 + seed, 1 + seed, 128
    g, r, q = 1, 1, 1
    x = ys = y
    steps = 0
    while g == 1:
        x = y
        for _ in range(r):
            y = (y * y + c) % n
        k = 0
        while k < r and g == 1:
            ys = y
            for _ in range(min(m, r - k)):
                y = (y * y + c) % n
                q = q * abs(x - y) % n
            g = math.gcd(q, n)
            k += m
            steps += m
            if steps > budget:
                return None
        r *= 2
    if g == n:
        g = 1
        while g == 1:
            ys = (ys * ys + c) % n
            g = math.gcd(abs(x - ys), n)
            steps += 1
            if steps > budget:
                return None
    return g if g != n else None


def factorize(n: int, budget: int = 10**6) -> dict[int, int]:
    """Prime factorization of |n| as {prime: exponent}.

    Raises FactorizationError (with the partial result) if the rho budget
    runs out on some cofactor.
    """
    if n == 0:
        raise ValueError("cannot factor 0")
    n = abs(n)
    out: dict[int, int] = {}
    rest = n  # what trial division leaves
    g = math.gcd(n, _PRIMORIAL)  # the product of n's distinct trial primes
    for p in _TRIAL_PRIMES:
        if p * p > g:
            break
        if g % p == 0:
            g //= p
            rest = _strip(rest, p, out)
    if g > 1:  # no trial prime up to sqrt(g) divides it, so it is prime
        rest = _strip(rest, g, out)
    if rest == 1:
        return out
    if rest < _PRIME_BELOW:
        out[rest] = 1
        return out

    stack = [rest]
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        f = None
        for seed in range(8):
            f = _pollard_brent(m, budget, seed)
            if f is not None and 1 < f < m:
                break
            f = None
        if f is None:
            raise FactorizationError(n, out, m)
        stack.append(f)
        stack.append(m // f)
    return out


def _strip(n: int, p: int, out: dict[int, int]) -> int:
    """n with every factor p divided out; out[p] gets the exponent."""
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    out[p] = e
    return n


def divisors(factors: Mapping[int, int]) -> list[int]:
    """All positive divisors of the number factored as {prime: exponent}, ascending."""
    out = [1]
    for p, e in factors.items():
        out = [d * p**j for d in out for j in range(e + 1)]
    return sorted(out)
