"""Prime sieving, Legendre symbols, and linear/quadratic character sum closed forms."""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import compress, islice
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

# the largest prime the trace engine takes: its Horner pass and the inverses in
# trace_tables multiply two residues in int64
_MAX_MODULUS = 3037000499  # isqrt(2^63 - 1)

# _mask[n] == 1 exactly when n is prime, for n < len(_mask); grown on demand
_mask = bytearray(2)


def _prime_mask(n: int) -> bytearray:
    """The shared primality mask, first grown to cover 0..n (by a factor of at least 5/4)."""
    global _mask
    if n < len(_mask):
        return _mask
    size = max(n + 1, len(_mask) * 5 // 4)
    mask = bytearray(b"\x00\x01") * (size // 2 + 1)  # the odd numbers
    del mask[size:]
    mask[1:3] = b"\x00\x01"  # 1 is not prime, 2 is
    zeros = memoryview(bytes(size // 6 + 1))
    for q in range(3, math.isqrt(size - 1) + 1, 2):
        if mask[q]:
            hits = len(range(q * q, size, 2 * q))  # odd multiples from q^2
            mask[q * q :: 2 * q] = zeros[:hits]
    _mask = mask
    return mask


def nth_prime_bound(n: int) -> int:
    """An upper bound on the n-th prime (11 for every n < 6)."""
    if n < 6:
        return 11
    return int(n * (math.log(n) + math.log(math.log(n)))) + 10  # p_n < n (ln n + ln ln n)


def sieve_primes(count: int) -> list[int]:
    """First `count` primes, ascending, by sieve of Eratosthenes."""
    if count < 1:
        return []
    mask = _prime_mask(nth_prime_bound(count))
    return list(islice(compress(range(len(mask)), mask), count))


def prime_index_of(p: int) -> int:
    """1-based index of p among the primes (index 1 is 2); ValueError when p is composite."""
    index = prime_indices((p,)).get(p)
    if index is None:
        raise ValueError("%r is not prime" % (p,))
    return index


def prime_indices(ps) -> dict[int, int]:
    """{p: index of p among the primes} for the primes in ps, in one pass over the mask to max(ps)."""
    wanted = sorted(p for p in set(ps) if p >= 2)
    # one snapshot: a thread growing the mask may replace it
    mask = _prime_mask(wanted[-1] if wanted else 0)
    out: dict[int, int] = {}
    below, lo = 0, 0  # primes below lo
    for p in wanted:
        below += mask.count(1, lo, p)
        lo = p
        if mask[p]:
            out[p] = below + 1
    return out


def _check_odd_prime_modulus(p: int) -> None:
    """ValueError unless p is an odd prime, decided on the shared mask (grown to p if need be)."""
    if not isinstance(p, int) or p < 3 or not _prime_mask(p)[p]:
        raise ValueError("modulus must be an odd prime, got %r" % (p,))


def legendre_symbol(a: int, p: int) -> int:
    """Legendre symbol (a|p) in {-1, 0, 1}, by Euler's criterion."""
    _check_odd_prime_modulus(p)
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def build_legendre_table(p: int) -> np.ndarray:
    """The read-only int8 array chi with chi[x] = (x|p) for 0 <= x < p.

    Tabulates the quadratic character in O(p) by marking the squares.
    ValueError unless p is an odd prime.
    """
    import numpy as np

    _check_odd_prime_modulus(p)
    chi = np.full(p, -1, dtype=np.int8)
    chi[0] = 0
    half = np.arange(1, (p - 1) // 2 + 1, dtype=np.int64)
    chi[(half * half) % p] = 1
    chi.setflags(write=False)
    return chi


@lru_cache(maxsize=16)
def cached_legendre_table(p: int) -> np.ndarray:
    """build_legendre_table(p) for 16 recent p; read only by tests, cleared by bench/run.py."""
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
