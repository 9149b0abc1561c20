"""Exact integer arithmetic helpers: p-adic valuations and factoring.

Factoring is trial division up to ``TRIAL_DIVISION_BOUND`` = 10^4 followed
by Brent's cycle variant of Pollard rho (Brent 1980), which finds a prime
factor p in about sqrt(p) steps, with an explicit work budget so callers
can fail loudly instead of hanging on adversarial inputs. The bound stays
at least the default ``walklevel mates --level-cap`` (1000), so every prime
below that cap is found by trial division.
"""

from __future__ import annotations

import math
from typing import Mapping

from .errors import FactorizationError

TRIAL_DIVISION_BOUND = 10**4

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
    for p in (2, 3, 5):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    d = 7
    wheel = (4, 2, 4, 2, 4, 6, 2, 6)
    i = 0
    while d * d <= n and d <= TRIAL_DIVISION_BOUND:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += wheel[i]
        i = (i + 1) % 8
    if n == 1:
        return out
    if d * d > n:
        out[n] = out.get(n, 0) + 1
        return out

    stack = [n]
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
            raise FactorizationError(abs(n), out, m)
        stack.append(f)
        stack.append(m // f)
    return out


def divisors(factors: Mapping[int, int]) -> list[int]:
    """All positive divisors of the number factored as {prime: exponent}, ascending."""
    out = [1]
    for p, e in factors.items():
        out = [d * p**j for d in out for j in range(e + 1)]
    return sorted(out)
