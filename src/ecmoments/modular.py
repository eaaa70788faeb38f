"""Prime sieving, Legendre symbols, and linear/quadratic character sum closed forms."""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

def sieve_primes(count: int) -> list[int]:
    """First `count` primes, ascending, by sieve of Eratosthenes."""
    if count < 1:
        return []
    if count < 6:
        return [2, 3, 5, 7, 11][:count]
    # n-th prime < n (ln n + ln ln n) for n >= 6
    bound = int(count * (math.log(count) + math.log(math.log(count)))) + 10
    mask = np.ones(bound, dtype=bool)
    mask[:2] = False
    for q in range(2, int(math.isqrt(bound)) + 1):
        if mask[q]:
            mask[q * q :: q] = False
    return [int(q) for q in np.flatnonzero(mask)[:count]]


_primes: list[int] = sieve_primes(64)


def prime_index_of(p: int) -> int:
    """1-based index of p among the primes (index 1 is 2); ValueError when p is composite."""
    global _primes
    count = len(_primes)
    while _primes[-1] < p:
        count *= 2
        _primes = sieve_primes(count)
    i = bisect.bisect_left(_primes, p)
    if i == len(_primes) or _primes[i] != p:
        raise ValueError("%r is not prime" % (p,))
    return i + 1


def _check_odd_prime_modulus(p: int) -> None:
    if not isinstance(p, int) or p < 3 or p % 2 == 0:
        raise ValueError("modulus must be an odd prime, got %r" % (p,))


def legendre_symbol(a: int, p: int) -> int:
    """Legendre symbol (a|p) in {-1, 0, 1}, by Euler's criterion."""
    _check_odd_prime_modulus(p)
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


@dataclass(frozen=True, eq=False)
class LegendreTable:
    """chi[x] = (x|p) for 0 <= x < p; the array is read-only after construction."""

    p: int
    chi: np.ndarray


def build_legendre_table(p: int) -> LegendreTable:
    """Tabulate the quadratic character mod p in O(p) by marking the squares."""
    _check_odd_prime_modulus(p)
    chi = np.full(p, -1, dtype=np.int8)
    chi[0] = 0
    half = np.arange(1, (p - 1) // 2 + 1, dtype=np.int64)
    chi[(half * half) % p] = 1
    chi.setflags(write=False)
    return LegendreTable(p, chi)


@lru_cache(maxsize=16)
def cached_legendre_table(p: int) -> LegendreTable:
    """build_legendre_table(p), kept for the 16 most recently used primes."""
    return build_legendre_table(p)


def linear_legendre_sum(a: int, b: int, p: int) -> int:
    """sum over x mod p of chi(a x + b): p * chi(b) when p | a, else 0."""
    _check_odd_prime_modulus(p)
    if a % p == 0:
        return p * legendre_symbol(b, p)
    return 0


def quadratic_legendre_sum(a: int, b: int, c: int, p: int) -> int:
    """sum over t mod p of chi(a t^2 + b t + c).

    Equals (p - 1) chi(a) when p divides b^2 - 4ac, and -chi(a) otherwise;
    p | a degenerates to the linear case.
    """
    _check_odd_prime_modulus(p)
    if a % p == 0:
        return linear_legendre_sum(b, c, p)
    if (b * b - 4 * a * c) % p == 0:
        return (p - 1) * legendre_symbol(a, p)
    return -legendre_symbol(a, p)
