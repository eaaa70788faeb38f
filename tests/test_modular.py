"""Prime sieving, prime indices, Legendre tables, and the linear/quadratic sum lemmas."""

import tracemalloc

import numpy as np
import pytest
import sympy

from ecmoments import (
    build_legendre_table,
    legendre_symbol,
    linear_legendre_sum,
    prime_index_of,
    quadratic_legendre_sum,
    sieve_primes,
)
from ecmoments import modular
from ecmoments.modular import cached_legendre_table


def odd_primes_upto(bound):
    return [p for p in sieve_primes(bound) if 2 < p <= bound]


# ------------------------------------------------------------------ primes


def test_sieve_primes_examples():
    assert sieve_primes(1) == [2]
    assert sieve_primes(5) == [2, 3, 5, 7, 11]
    assert sieve_primes(1000)[-1] == 7919
    assert sieve_primes(0) == []


def test_sieve_primes_matches_sympy():
    got = sieve_primes(500)
    want = list(sympy.primerange(2, got[-1] + 1))
    assert got == want


def test_prime_index_of():
    assert prime_index_of(2) == 1
    assert prime_index_of(5) == 3
    assert prime_index_of(1987) == 300
    assert prime_index_of(1997) == 302
    primes = sieve_primes(400)
    for i, p in enumerate(primes, start=1):
        assert prime_index_of(p) == i
    for n in (0, 1, 4, 100, 1001):
        with pytest.raises(ValueError):
            prime_index_of(n)


def test_prime_indices_agree_with_prime_index_of():
    primes = sieve_primes(400)
    assert modular.prime_indices(reversed(primes)) == {p: i for i, p in enumerate(primes, 1)}
    # composites, 0, 1 and negatives are left out; a repeated p counts once
    assert modular.prime_indices([1997, 9, 5, 5, 0, 1, -7, 2, 1001]) == {2: 1, 5: 3, 1997: 302}
    assert modular.prime_indices([]) == {}


def test_is_prime_matches_sympy_exhaustive():
    """prime_index_of decides primality: it raises on every non-prime, Carmichael numbers included."""
    for n in list(range(-3, 5000)) + [561, 1105, 1729, 41041, 825265]:
        if sympy.isprime(n):
            prime_index_of(n)
        else:
            with pytest.raises(ValueError):
                prime_index_of(n)


def test_prime_index_of_holds_one_byte_per_integer(monkeypatch):
    """At p = 10000019 the primality mask is a bytearray: about 10 MB held, not a list of ints."""
    monkeypatch.setattr(modular, "_mask", bytearray(2))
    tracemalloc.start()
    try:
        assert prime_index_of(10000019) == 664580  # sympy.primepi(10000019)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held <= 20 * 10**6 and peak <= 20 * 10**6, (held, peak)


# ------------------------------------------------------------- chi and table


def test_legendre_symbol_examples():
    assert legendre_symbol(0, 7) == 0
    assert legendre_symbol(2, 7) == 1  # 4^2 = 16 = 2 mod 7
    assert legendre_symbol(2, 5) == -1  # squares mod 5 are {1, 4}
    # arbitrary integers reduce mod p first
    assert legendre_symbol(-48, 7) == legendre_symbol(1, 7) == 1
    assert legendre_symbol(10**30 + 2, 7) == legendre_symbol((10**30 + 2) % 7, 7)


def test_legendre_symbol_rejects_bad_modulus():
    for p in (2, 4, 0, -7, 1, 9, 15, 21):
        with pytest.raises(ValueError):
            legendre_symbol(3, p)


def test_legendre_symbol_matches_sympy():
    for p in odd_primes_upto(199):
        for a in range(p):
            assert legendre_symbol(a, p) == sympy.legendre_symbol(a, p), (a, p)


def test_legendre_table_examples():
    assert build_legendre_table(3).tolist() == [0, 1, -1]
    assert build_legendre_table(5).tolist() == [0, 1, -1, -1, 1]
    assert int((build_legendre_table(7) == 1).sum()) == 3


def test_legendre_table_matches_symbol_and_is_balanced():
    for p in odd_primes_upto(199):
        chi = build_legendre_table(p)
        assert chi[0] == 0
        assert int((chi == 1).sum()) == (p - 1) // 2
        assert int((chi == -1).sum()) == (p - 1) // 2
        assert int(chi.sum()) == 0
    chi97 = build_legendre_table(97)
    for a in range(97):
        assert int(chi97[a]) == legendre_symbol(a, 97)


@pytest.mark.parametrize("n", [9, 15, 21])
def test_legendre_table_rejects_odd_composite_modulus(n):
    with pytest.raises(ValueError):
        build_legendre_table(n)
    with pytest.raises(ValueError):
        cached_legendre_table(n)


def test_legendre_table_is_read_only():
    table = build_legendre_table(11)
    with pytest.raises(ValueError):
        table[0] = 1


def test_chi_multiplicativity():
    for p in odd_primes_upto(199):
        chi = build_legendre_table(p).astype(np.int64)
        a = np.arange(p)
        prod = chi[np.multiply.outer(a, a) % p]
        assert np.array_equal(prod, np.multiply.outer(chi, chi))


# ----------------------------------------------------------------- sum lemmas


def test_linear_sum_examples():
    assert linear_legendre_sum(0, 1, 7) == 7
    assert linear_legendre_sum(3, 5, 7) == 0
    assert linear_legendre_sum(14, 3, 7) == 7 * legendre_symbol(3, 7)
    for p in (2, 9, 15):
        with pytest.raises(ValueError):
            linear_legendre_sum(1, 1, p)


def test_quadratic_sum_examples():
    assert quadratic_legendre_sum(1, 0, 0, 5) == 4  # disc 0: (p-1) chi(a)
    assert quadratic_legendre_sum(1, 0, -1, 7) == -1  # disc 4, p does not divide
    assert quadratic_legendre_sum(7, 3, 5, 7) == linear_legendre_sum(3, 5, 7)
    for p in (2, 9, 21):
        with pytest.raises(ValueError):
            quadratic_legendre_sum(2, 0, 0, p)


def test_sum_lemmas_exhaustive_small():
    """Both lemmas against literal term-by-term sums, all coefficients mod p."""
    for p in odd_primes_upto(37):
        chi = cached_legendre_table(p)
        for a in range(p):
            for b in range(p):
                brute = sum(int(chi[(a * x + b) % p]) for x in range(p))
                assert linear_legendre_sum(a, b, p) == brute, (a, b, p)
                for c in range(p):
                    brute = sum(int(chi[(a * t * t + b * t + c) % p]) for t in range(p))
                    assert quadratic_legendre_sum(a, b, c, p) == brute, (a, b, c, p)


def test_linear_sum_exhaustive_199():
    """Brute force via value-count correlation, every (a, b) mod p, p <= 199."""
    for p in odd_primes_upto(199):
        chi = cached_legendre_table(p).astype(np.float64)
        x = np.arange(p, dtype=np.int64)
        shift = chi[(x[:, None] + x[None, :]) % p]  # shift[v, b] = chi(v + b)
        counts = np.zeros((p, p))
        np.add.at(counts, (np.repeat(x, p), ((x[:, None] * x[None, :]) % p).ravel()), 1.0)
        brute = counts @ shift  # brute[a, b] = sum_x chi(a x + b), exact in float64
        for a in range(p):
            row = brute[a]
            for b in range(p):
                assert linear_legendre_sum(a, b, p) == row[b], (a, b, p)


def test_sums_accept_out_of_range_coefficients():
    for p in (5, 13, 97):
        for a, b, c in ((-1, 10**20, -3), (p, 2 * p + 1, -p)):
            chi = cached_legendre_table(p)
            brute = sum(int(chi[(a * t * t + b * t + c) % p]) for t in range(p))
            assert quadratic_legendre_sum(a, b, c, p) == brute
