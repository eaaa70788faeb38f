"""Trace computation against the point-count oracle, and exact moment sums."""

import math
import random

import numpy as np
import pytest
from direct_sweep import direct_short_traces, direct_traces
from hypothesis import given, settings
from hypothesis import strategies as st

from ecmoments import (
    cached_legendre_table,
    corpus_family,
    family,
    fiber_at,
    discriminant,
    moment_sums,
    point_count_oracle,
    rank6_family,
    sieve_primes,
    sym_sum,
    trace_at,
    traces_mod_p,
)
from ecmoments.families import Fiber
from ecmoments.traces import (
    _correlate_with_chi,
    _exact_sum,
    _inverse_table,
    _sums_from_traces,
    short_traces,
    trace_tables,
)


# --------------------------------------------------------------------- traces


def test_trace_zero_family():
    zero = family("zero", 0, 0, 0, 0, 0)
    table = cached_legendre_table(5)
    # A = B = 0: sum of chi(x^3) over x mod 5 vanishes
    assert trace_at(zero, 0, 5, table) == 0


def test_trace_matches_point_count():
    fam = corpus_family("1_0_0_-1_t")
    table = cached_legendre_table(5)
    for t in range(5):
        fib = fiber_at(fam, t, 5)
        assert trace_at(fam, t, 5, table) == 5 - point_count_oracle(fib)


def test_trace_hasse_bound_on_nonsingular_fibers():
    fam = corpus_family("1_1_-3_1_t")
    p = 7
    table = cached_legendre_table(p)
    for t in range(p):
        a = trace_at(fam, t, p, table)
        if discriminant(fiber_at(fam, t, p)) != 0:
            assert a * a <= 4 * p
        else:
            # singular cubic: node contributes +-1, cusp contributes 0
            assert abs(a) <= 1


def test_trace_rejects_mismatched_table():
    fam = corpus_family("1_0_0_-1_t")
    with pytest.raises(ValueError):
        trace_at(fam, 0, 7, cached_legendre_table(5))


def test_point_count_examples():
    assert point_count_oracle(Fiber(5, 0, 0)) == 5
    assert point_count_oracle(Fiber(3, 0, 0)) == 3


def test_point_count_chi_identity():
    # #affine = p + sum_x chi(x^3 + Ax + B)
    for p in (5, 7, 11):
        table = cached_legendre_table(p)
        for a in range(p):
            for b in range(p):
                fib = Fiber(p, a, b)
                s = sum(int(table.chi[(x * x * x + a * x + b) % p]) for x in range(p))
                assert point_count_oracle(fib) == p + s


def test_traces_mod_p_matches_scalar():
    rng = random.Random(3)
    fams = [corpus_family(n) for n in ("1_0_0_-1_t", "0_0_0_-t2_t4", "1_t_-1_-t-1_0")]
    for fam in fams:
        for p in (5, 31, 101):
            table = cached_legendre_table(p)
            vec = traces_mod_p(fam, p, table)
            assert len(vec) == p
            for t in rng.sample(range(p), min(p, 12)):
                assert int(vec[t]) == trace_at(fam, t, p, table)


# --------------------------------------------------------------- trace tables


def test_short_traces_exhaustive_to_127():
    """Table lookup equals the direct character sum at every (A, B), odd p <= 127."""
    for p in [q for q in sieve_primes(31) if 2 < q <= 127]:
        grid = np.arange(p * p, dtype=np.int64)
        a, b = grid // p, grid % p
        got = short_traces(a, b, cached_legendre_table(p))
        assert np.array_equal(got, direct_short_traces(a, b, p)), p


def _small_poly(max_degree):
    return st.lists(st.integers(-6, 6), max_size=max_degree + 1)


# general shapes, plus y^2 = x^3 + a6(t) (c4 = 0, j = 0) and y^2 = x^3 + a4(t) x
# (c6 = 0, j = 1728), whose fibers all sit on the tables' special lines
_families = st.one_of(
    st.builds(lambda *a: family("gen", *a), _small_poly(0), _small_poly(1), _small_poly(0),
              _small_poly(3), _small_poly(4)),
    st.builds(lambda a6: family("j0", 0, 0, 0, 0, a6), _small_poly(4)),
    st.builds(lambda a4: family("j1728", 0, 0, 0, a4, 0), _small_poly(3)),
)


@settings(max_examples=120, deadline=None)
@given(fam=_families, p=st.sampled_from([q for q in sieve_primes(46) if q > 2]))
def test_traces_mod_p_matches_direct_sweep(fam, p):
    assert np.array_equal(traces_mod_p(fam, p), direct_traces(fam, p))


@pytest.mark.parametrize("fam", [rank6_family(), corpus_family("0_0_0_-t2_t4")],
                         ids=lambda f: f.name)
def test_traces_mod_p_large_prime_matches_direct_sweep(fam):
    assert np.array_equal(traces_mod_p(fam, 10007), direct_traces(fam, 10007))


def test_trace_tables_special_lines():
    tt = trace_tables(101)
    assert tt.zero_b[0] == tt.a_zero[0] == 0  # a(0, 0) = -sum chi(x^3) = 0
    assert tt.ss.dtype == tt.zero_b.dtype == tt.a_zero.dtype == np.int64
    assert not tt.ss.flags.writeable


def test_inverse_table():
    for p in (3, 5, 101, 10007):
        inv = _inverse_table(p)
        assert inv[0] == 0
        assert np.all(np.arange(1, p) * inv[1:] % p == 1)


def test_correlation_rejects_inexact_float():
    # a constant weight correlates to exactly 0, but at 2^52 the transform's
    # rounding error reaches the units place
    p = 101
    weights = np.full((1, p), float(1 << 52))
    with pytest.raises(ArithmeticError):
        _correlate_with_chi(weights, cached_legendre_table(p).chi)


def test_trace_caches_are_bounded():
    for cache in (cached_legendre_table, trace_tables):
        assert cache.cache_info().maxsize is not None
        cache.cache_clear()  # functools caches, so callers can reset them


def test_trace_periodicity_in_t():
    rng = random.Random(17)
    corpus = [
        corpus_family(n)
        for n in ("1_0_0_-1_t", "1_0_0_t_0", "0_0_0_-t2_t4", "1_t_-19_-t-1_0")
    ]
    for _ in range(50):
        fam = rng.choice(corpus)
        p = rng.choice([5, 7, 13, 29, 53])
        t = rng.randrange(3 * p)
        table = cached_legendre_table(p)
        assert trace_at(fam, t, p, table) == trace_at(fam, t + p, p, table)


# -------------------------------------------------------------------- moments


def test_moment_sums_examples():
    fam = corpus_family("1_0_0_-1_t")
    rec = moment_sums(fam, 7, r_max=2)
    assert rec.S[1] == 0
    assert rec.p == 7 and rec.prime_index == 4
    t3 = moment_sums(corpus_family("0_0_0_-t2_t4"), 7, r_max=2)
    assert t3.S[1] == -2 * 7


def test_moment_sums_known_values_p5():
    # hand computation: the t-fiber reduces to A=2, B=2+t mod 5, and
    # -sum chi(x^3+2x+B) gives traces (-1,-1,-1,4,-1) for t=0..4
    rec = moment_sums(corpus_family("1_0_0_-1_t"), 5, r_max=7)
    traces = [-1, -1, -1, 4, -1]
    for r in range(1, 8):
        assert rec.S[r] == sum(a**r for a in traces), r
    assert rec.S[2] == 20


def test_moment_sums_matches_brute_force_powers():
    for name in ("1_1_-1_1_t", "1_-2_0_t_0", "0_0_0_-t2_t4"):
        fam = corpus_family(name)
        for p in (5, 13, 31):
            table = cached_legendre_table(p)
            traces = [trace_at(fam, t, p, table) for t in range(p)]
            rec = moment_sums(fam, p, r_max=8)
            for r in range(1, 9):
                assert rec.S[r] == sum(a**r for a in traces)


def test_moment_sums_validation():
    fam = corpus_family("1_0_0_-1_t")
    for r_max in (0, 9, -1):
        with pytest.raises(ValueError):
            moment_sums(fam, 5, r_max=r_max)
    for p in (2, 4, 15, 1):
        with pytest.raises(ValueError):
            moment_sums(fam, p)


def test_moment_sums_deterministic():
    fam = corpus_family("1_t_-19_-t-1_0")
    a = moment_sums(fam, 101, r_max=7)
    b = moment_sums(fam, 101, r_max=7)
    assert a == b


def test_moment_invariants_small_grid():
    for name in ("1_0_0_-1_t", "0_1_3_1_t"):
        fam = corpus_family(name)
        for p in (101, 103, 107):
            rec = moment_sums(fam, p, r_max=6)
            env = math.isqrt(4 * p)
            for r in range(1, 7):
                assert abs(rec.S[r]) <= p * env**r
                if r % 2 == 0:
                    assert rec.S[r] >= 0
            # Sato-Tate scale: S2 ~ p^2 for a non-CM fiber family
            assert 0.5 <= rec.S[2] / p**2 <= 1.5


# --------------------------------------------------------- exact accumulation


def test_exact_sum_matches_python_sum():
    rng = np.random.default_rng(5)
    arr = rng.integers(-(2**35), 2**35, size=10_001, dtype=np.int64)
    assert _exact_sum(arr, 2**35) == int(sum(int(v) for v in arr))


def test_exact_sum_near_overflow_entries():
    # entries close to 2^61 force a chunk step of 1, the worst case
    arr = np.full(37, (1 << 61) - 5, dtype=np.int64)
    arr[3] = -((1 << 61) - 7)
    assert _exact_sum(arr, 1 << 61) == 36 * ((1 << 61) - 5) - ((1 << 61) - 7)


def test_exact_sum_object_dtype():
    vals = [3**50, -(3**50) + 1, 12]
    arr = np.array(vals, dtype=object)
    assert _exact_sum(arr, 3**50) == sum(vals)


def test_sums_from_traces_widening_path():
    # |a| ~ 2^10 with r_max 8 exceeds int64 headroom, forcing object dtype
    rng = np.random.default_rng(9)
    vals = rng.integers(-1024, 1025, size=503, dtype=np.int64)
    sums = _sums_from_traces(vals, 8)
    for r in range(1, 9):
        assert sums[r - 1] == sum(int(v) ** r for v in vals)
    # and the int64 fast path agrees where both are in range
    small = np.clip(vals, -7, 7)
    fast = _sums_from_traces(small, 8)
    for r in range(1, 9):
        assert fast[r - 1] == sum(int(v) ** r for v in small)


# ------------------------------------------------------------- symmetric sums


def test_sym_sum_examples():
    fam = corpus_family("1_0_0_-1_t")
    p = 101
    rec = moment_sums(fam, p, r_max=1)
    got = sym_sum(fam, p, 1)
    assert got.p == p and got.k == 1
    assert got.value == pytest.approx(rec.S[1] / math.sqrt(p))


def test_sym_sum_zero_traces():
    zero = family("zero", 0, 0, 0, 0, 0)
    # U_2(0) = -1 for every fiber, so the sum is exactly -p
    assert sym_sum(zero, 13, 2).value == pytest.approx(-13.0)
    assert sym_sum(zero, 13, 0).value == pytest.approx(13.0)


def test_sym_sum_validation_and_bound():
    fam = corpus_family("1_0_0_-1_t")
    with pytest.raises(ValueError):
        sym_sum(fam, 11, -1)
    for k in range(5):
        v = sym_sum(fam, 53, k).value
        assert abs(v) <= (k + 1) * 53 + 1e-9
