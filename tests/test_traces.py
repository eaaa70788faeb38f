"""Trace computation against the point-count oracle, and exact moment sums."""

import math
import random
import tracemalloc

import numpy as np
import pytest
from direct_sweep import direct_short_traces, direct_traces, point_count_enumeration, trace_at
from hypothesis import given, settings
from hypothesis import strategies as st

from ecmoments import (
    builtin_corpus,
    cached_legendre_table,
    corpus_family,
    family,
    fiber_at,
    discriminant,
    moment_sums,
    point_count_oracle,
    prime_index_of,
    rank6_family,
    sieve_primes,
    traces_mod_p,
)
from ecmoments import modular, traces
from ecmoments.families import Fiber
from ecmoments.traces import (
    _MAX_MODULUS,
    TraceTables,
    _birch_sums,
    _correlate_with_chi,
    _fast_length,
    _table_dtype,
    coefficient_rows,
    prime_moment_sums,
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
    counts = point_count_oracle([fiber_at(fam, t, 5) for t in range(5)])
    for t in range(5):
        assert trace_at(fam, t, 5, table) == 5 - counts[t]


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
    assert point_count_oracle([Fiber(5, 0, 0)]) == [5]
    assert point_count_oracle([Fiber(3, 0, 0), Fiber(3, 1, 0)]) == [3, 3]
    for mixed in ([], [Fiber(5, 0, 0), Fiber(7, 0, 0)]):  # no prime, or two
        with pytest.raises(ValueError):
            point_count_oracle(mixed)


def test_point_count_oracle_matches_enumeration():
    for p in [q for q in sieve_primes(11) if 2 < q <= 31]:
        fibers = [Fiber(p, a, b) for a in range(p) for b in range(p)]
        counts = point_count_oracle(fibers)  # every fiber of p from one table of square roots
        assert counts == [point_count_enumeration(fib) for fib in fibers], p


def test_point_count_chi_identity():
    # #affine = p + sum_x chi(x^3 + Ax + B)
    for p in (5, 7, 11):
        table = cached_legendre_table(p)
        fibers = [Fiber(p, a, b) for a in range(p) for b in range(p)]
        assert point_count_oracle(fibers) == [
            p + sum(int(table[(x * x * x + a * x + b) % p]) for x in range(p)) for _, a, b in fibers
        ]


def test_traces_mod_p_matches_scalar():
    rng = random.Random(3)
    fams = [corpus_family(n) for n in ("1_0_0_-1_t", "0_0_0_-t2_t4", "1_t_-1_-t-1_0")]
    for fam in fams:
        for p in (5, 31, 101):
            table = cached_legendre_table(p)
            vec = traces_mod_p(fam, p)
            assert len(vec) == p
            for t in rng.sample(range(p), min(p, 12)):
                assert int(vec[t]) == trace_at(fam, t, p, table)


# --------------------------------------------------------------- trace tables


def test_short_traces_exhaustive_to_127():
    """Table lookup equals the direct character sum at every (A, B), odd p <= 127."""
    for p in [q for q in sieve_primes(31) if 2 < q <= 127]:
        grid = np.arange(p * p, dtype=np.int64)
        a, b = grid // p, grid % p
        got = short_traces(a, b, trace_tables(p))
        assert np.array_equal(got, direct_short_traces(a, b, p)), p


def test_short_traces_leave_their_arguments_and_reject_residues_outside_0_to_p():
    tt = trace_tables(11)
    a, b = np.arange(11), np.arange(11)[::-1].copy()
    short_traces(a, b, tt)
    assert np.array_equal(a, np.arange(11)) and np.array_equal(b, np.arange(10, -1, -1))
    for bad in (11, -1):
        with pytest.raises(ValueError, match=r"\[0, 11\)"):
            short_traces(np.array([bad]), np.array([1]), tt)


@pytest.mark.parametrize("p", [8209, 16411])  # 2p - 1 just past 2^14 and 2^15
def test_short_traces_sampled_past_a_power_of_two(p):
    rng = np.random.default_rng(p)
    a, b = rng.integers(0, p, size=(2, 200))
    a[:20] = 0
    b[20:40] = 0
    got = short_traces(a, b, trace_tables(p))
    assert got.dtype == np.int16
    assert np.array_equal(got, direct_short_traces(a, b, p))


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
    zero = np.zeros(1, dtype=np.int64)
    assert short_traces(zero, zero, tt)[0] == 0  # a(0, 0) = -sum chi(x^3) = 0
    assert TraceTables._fields == ("p", "log", "ss", "va", "vb")
    assert (len(tt.log), len(tt.ss), len(tt.va), len(tt.vb)) == (101, 100, 4, 6)
    assert tt.ss.dtype == tt.va.dtype == tt.vb.dtype == np.int16
    assert tt.log.dtype == np.int64 and tt.log[1] == 0
    assert not any(arr.flags.writeable for arr in tt[1:])


def test_table_dtype_holds_the_hasse_range():
    # 2 isqrt(p) + 1 reaches 2^15 at p = 16384^2, where the Hasse bound
    # isqrt(4p) first exceeds int16
    for p, dtype in ((16384**2 - 1, np.int16), (16384**2, np.int32), (_MAX_MODULUS, np.int32)):
        assert _table_dtype(p) == dtype, p
        assert math.isqrt(4 * p) <= np.iinfo(dtype).max
    assert math.isqrt(4 * 16384**2) > np.iinfo(np.int16).max


def test_fast_length_is_the_least_even_5_smooth_length():
    def smooth(n):
        for q in (2, 3, 5):
            while n % q == 0:
                n //= q
        return n == 1

    expected = 2
    for m in range(1, 5001):
        while expected < m or not smooth(expected):
            expected += 2
        assert _fast_length(m) == expected, m


def test_trace_tables_memory_is_linear_with_a_small_constant():
    p = 100003
    prime_index_of(p)  # the sieve is its own cache
    np.fft.rfft(np.zeros(2))  # numpy 2 imports numpy.fft on first use; not inside the window
    tracemalloc.start()
    try:
        tt = trace_tables(p)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert tt.p == p
    assert held <= 11 * p and peak <= 100 * p, (held / p, peak / p)


def _peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("p", [10007, 100003])
def test_prime_moment_sums_memory_reads_traces_in_place(p):
    """Served families need no trace row, and the rest are read in the Horner pass's array."""
    fams = builtin_corpus()
    prime_index_of(p)
    coefficient_rows(fams)  # compute_invariants is cached
    np.fft.rfft(np.zeros(2))  # numpy 2 imports numpy.fft on first use; not inside the window
    tables = _peak(lambda: trace_tables(p))
    peak = _peak(lambda: prime_moment_sums(fams, p, 8))
    # p = 10007 reads the five unserved families in one block; at 100003 each is its own
    assert peak <= (200 * p if p == 10007 else tables + 5 * p), (peak / p, tables / p)


@pytest.fixture(scope="module")
def tables_1000003():
    return trace_tables(1000003)


def test_correlation_rejects_inexact_float():
    # a constant weight correlates to exactly 0, but at 2^52 the transform's
    # rounding error reaches the units place
    p = 101
    chi = cached_legendre_table(p)
    assert not _correlate_with_chi(np.full(p, 1.0), chi).any()
    with pytest.raises(ArithmeticError):
        _correlate_with_chi(np.full(p, float(1 << 52)), chi)


def test_trace_tables_run_one_fft_correlation(monkeypatch):
    calls, real = [], np.fft.irfft

    def irfft(spec, n):
        calls.append(n)
        return real(spec, n)

    monkeypatch.setattr(np.fft, "irfft", irfft)
    primes = [3, 5, 101, 10007]
    for p in primes:
        trace_tables(p)
    assert calls == [_fast_length(2 * p - 1) for p in primes]


def _cm_lines(tt, xs):
    """a(x, 0) and a(0, x) at nonzero x, read off the fields: va and vb by the class of l(x)."""
    return tt.va[tt.log[xs] % 4], tt.vb[tt.log[xs] % 6]


def test_cm_lines_equal_their_character_sums():
    # a(A, 0) and a(0, B) at every nonzero A and B, every odd p <= 500 (the 95th prime is 499)
    for p in sieve_primes(95)[1:]:
        tt = trace_tables(p)
        every, zero = np.arange(1, p), np.zeros(p - 1, dtype=np.int64)
        a_zero, zero_b = _cm_lines(tt, every)
        assert np.array_equal(a_zero, direct_short_traces(every, zero, p)), p
        assert np.array_equal(zero_b, direct_short_traces(zero, every, p)), p


@pytest.mark.parametrize("p", [99961, 99989, 100003, 99971, 1000003])  # 1, 5, 7, 11, 7 mod 12
def test_cm_lines_sampled_in_every_class_mod_12(p, tables_1000003):
    tt = tables_1000003 if p == 1000003 else trace_tables(p)
    sample = np.random.default_rng(p).integers(1, p, size=20)
    zero = np.zeros_like(sample)
    a_zero, zero_b = _cm_lines(tt, sample)
    assert np.array_equal(a_zero, direct_short_traces(sample, zero, p))
    assert np.array_equal(zero_b, direct_short_traces(zero, sample, p))
    # y^2 = x^3 + A x is supersingular when p = 3 mod 4, y^2 = x^3 + B when p = 2 mod 3
    assert tt.va.any() == (p % 4 == 1)
    assert tt.vb.any() == (p % 3 == 1)


def _even_power_sums(values, p):
    """[sum of v^(2R) for R = 1..4] over the Hasse-range values, in Python ints."""
    m = math.isqrt(4 * p)
    counts = np.bincount(values.astype(np.int64) + m, minlength=2 * m + 1).tolist()
    return [sum(c * v ** (2 * r) for c, v in zip(counts, range(-m, m + 1))) for r in range(1, 5)]


def _table_birch_sums(tt):
    """Birch's four sums through short_traces: each s != 0 stands for p - 1 pairs with AB != 0."""
    p = tt.p
    every, zero = np.arange(1, p), np.zeros(p - 1, dtype=np.int64)
    lines = (short_traces(every, every, tt), short_traces(zero, every, tt),
             short_traces(every, zero, tt))
    ss, zero_b, a_zero = (_even_power_sums(line, p) for line in lines)
    return [(p - 1) * s + b + a for s, b, a in zip(ss, zero_b, a_zero)]


def test_birch_identities_by_brute_force():
    for p in [q for q in sieve_primes(18) if q >= 5]:  # the 18th prime is 61
        chi = cached_legendre_table(p)
        a, b, x = np.ogrid[:p, :p, :p]
        traces_ab = -chi[(x**3 + a * x + b) % p].sum(axis=2, dtype=np.int64)
        assert [int((traces_ab ** (2 * r)).sum()) for r in range(1, 5)] == _birch_sums(p), p


@pytest.mark.parametrize("p", [10007, 100003, 1000003])
def test_birch_identities_on_the_tables(p, tables_1000003):
    tt = tables_1000003 if p == 1000003 else trace_tables(p)
    assert _table_birch_sums(tt) == _birch_sums(p)


def test_birch_identities_catch_a_changed_ss_entry():
    tt = trace_tables(10007)
    ss = tt.ss.copy()
    ss[1] += -1 if ss[1] > 0 else 1  # |ss[1]| moves by one
    got, want = _table_birch_sums(tt._replace(ss=ss)), _birch_sums(tt.p)
    assert all(g != w for g, w in zip(got, want))


@pytest.mark.parametrize("p", [5, 10007])
def test_trace_tables_raise_on_a_changed_ss_magnitude(p, monkeypatch):
    real = traces._correlate_with_chi

    def off_by_one(weight, chi):
        out = real(weight, chi)
        out[1] += 1  # a(1, 1) moves by one, so its square does
        return out

    trace_tables(p)
    monkeypatch.setattr(traces, "_correlate_with_chi", off_by_one)
    with pytest.raises(ArithmeticError, match="Birch"):
        trace_tables(p)


def test_ss_sums_to_minus_chi_of_minus_one_times_p():
    for p in [q for q in sieve_primes(60) if q > 2] + [10007, 100003]:
        assert int(trace_tables(p).ss.sum(dtype=np.int64)) == -(-1) ** (p // 2) * p, p


@pytest.mark.parametrize("p", [5, 10007])
def test_trace_tables_raise_on_a_global_sign_flip_of_ss(p, monkeypatch):
    real = traces._correlate_with_chi

    def negated(weight, chi):  # ss = -chi(-1) - C, so this C negates every ss entry
        return -2.0 * chi[p - 1] - real(weight, chi)

    tt = trace_tables(p)
    assert _table_birch_sums(tt._replace(ss=-tt.ss)) == _birch_sums(p)  # unseen by Birch
    monkeypatch.setattr(traces, "_correlate_with_chi", negated)
    with pytest.raises(ArithmeticError, match="-chi\\(-1\\) p"):
        trace_tables(p)


def test_table_caches_return_the_same_object():
    # the table is an array: == and hash do not work on it, so a cache hit
    # must hand back the very object it built
    tables = cached_legendre_table(101)
    assert cached_legendre_table(101) is tables
    with pytest.raises(TypeError):
        hash(tables)


def test_trace_caches_are_bounded():
    assert cached_legendre_table.cache_info().maxsize is not None
    cached_legendre_table.cache_clear()  # a functools cache, so callers can reset it


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
    assert rec.sums[0] == 0
    assert rec.p == 7 and rec.prime_index == 4
    t3 = moment_sums(corpus_family("0_0_0_-t2_t4"), 7, r_max=2)
    assert t3.sums[0] == -2 * 7


def test_moment_sums_known_values_p5():
    # hand computation: the t-fiber reduces to A=2, B=2+t mod 5, and
    # -sum chi(x^3+2x+B) gives traces (-1,-1,-1,4,-1) for t=0..4
    rec = moment_sums(corpus_family("1_0_0_-1_t"), 5, r_max=7)
    traces = [-1, -1, -1, 4, -1]
    for r in range(1, 8):
        assert rec.sums[r - 1] == sum(a**r for a in traces), r
    assert rec.sums[1] == 20


def test_moment_sums_matches_brute_force_powers():
    for name in ("1_1_-1_1_t", "1_-2_0_t_0", "0_0_0_-t2_t4"):
        fam = corpus_family(name)
        for p in (5, 13, 31):
            table = cached_legendre_table(p)
            traces = [trace_at(fam, t, p, table) for t in range(p)]
            rec = moment_sums(fam, p, r_max=8)
            for r in range(1, 9):
                assert rec.sums[r - 1] == sum(a**r for a in traces)


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
                assert abs(rec.sums[r - 1]) <= p * env**r
                if r % 2 == 0:
                    assert rec.sums[r - 1] >= 0
            # Sato-Tate scale: S2 ~ p^2 for a non-CM fiber family
            assert 0.5 <= rec.sums[1] / p**2 <= 1.5


# ------------------------------------------------------------ per-prime kernel


def _power_sums(traces, r_max):
    return tuple(sum(int(a) ** r for a in traces) for r in range(1, r_max + 1))


# y^2 = x^3 + t x + t^2 has a cusp (A = B = 0) at t = 0 for every p
_CUSP = family("cusp", 0, 0, 0, [0, 1], [0, 0, 1])


@settings(max_examples=80, deadline=None)
@given(fams=st.lists(_families, min_size=1, max_size=4),
       p=st.sampled_from([q for q in sieve_primes(46) if q > 2]),
       r_max=st.integers(1, 8))
def test_prime_moment_sums_match_direct_sweep(fams, p, r_max):
    fams = [_CUSP] + fams
    recs = prime_moment_sums(fams, p, r_max)
    assert [(r.family, r.p, r.r_max) for r in recs] == [(f.name, p, r_max) for f in fams]
    for fam, rec in zip(fams, recs):
        assert rec.sums == _power_sums(direct_traces(fam, p), r_max)


def _dtype_switch(r_max):
    """The last prime whose S_{r_max} is summed in int64, and the first in Python ints."""
    primes = [q for q in sieve_primes(1000) if q > 2]
    fits = [q * math.isqrt(4 * q) ** r_max < 1 << 63 for q in primes]
    k = fits.index(False)
    return primes[k - 1], primes[k]


@pytest.mark.parametrize("r_max", [7, 8])
def test_prime_moment_sums_on_both_sides_of_int64(r_max):
    fam = corpus_family("1_t_-19_-t-1_0")
    for p in _dtype_switch(r_max):
        (rec,) = prime_moment_sums([fam], p, r_max)
        assert rec.sums == _power_sums(direct_traces(fam, p), r_max), p


def test_moment_sums_at_p_100003():
    for name in ("1_0_0_-1_t", "0_0_0_-t2_t4"):
        fam = corpus_family(name)
        assert moment_sums(fam, 100003, 8).sums == _power_sums(traces_mod_p(fam, 100003), 8)


def test_prime_moment_sums_blocks_equal_one_family_calls(monkeypatch):
    fams = [corpus_family(n) for n in ("1_0_0_-1_t", "0_0_0_-t2_t4", "1_t_-19_-t-1_0",
                                       "1_1_-1_1_t", "0_1_3_1_t")] + [rank6_family()]
    p = 211
    singles = [moment_sums(fam, p, 7) for fam in fams]
    assert prime_moment_sums(fams, p, 7) == singles
    monkeypatch.setattr(traces, "_BLOCK_FIBERS", 4 * p)  # blocks of 4 and 2 families
    assert prime_moment_sums(fams, p, 7) == singles
    assert prime_moment_sums([], p, 7) == []


def test_prime_moment_sums_rejects_traces_outside_hasse_range(monkeypatch):
    fam, p = corpus_family("1_0_0_-1_t"), 101
    fib = next(f for f in (fiber_at(fam, t, p) for t in range(p)) if f.A * f.B % p)
    s = fib.A ** 3 * pow(fib.B, -2, p) % p
    real = trace_tables(p)
    ss = real.ss.copy()
    ss[real.log[s]] += 2 * math.isqrt(4 * p) + 1
    fake = TraceTables(p, real.log, ss, real.va, real.vb)
    monkeypatch.setattr(traces, "trace_tables", lambda q: fake)
    with pytest.raises(ArithmeticError, match="Hasse range"):
        moment_sums(fam, p)


@pytest.mark.parametrize("p", [17, 211, 10007])
def test_prime_moment_sums_raise_when_one_trace_moves_by_one(p, monkeypatch):
    fams = [corpus_family("1_0_0_-1_t"), rank6_family()]  # rank6_big: deg A = 3, deg B = 5
    real = traces._block_traces
    prime_moment_sums(fams, p)

    def off_by_one(rows, tt):
        out = real(rows, tt)
        out[-1, np.argmin(np.abs(out[-1]))] += 1  # stays inside the Hasse range
        return out

    monkeypatch.setattr(traces, "_block_traces", off_by_one)
    with pytest.raises(ArithmeticError, match="not 0 mod p=%d" % (p,)):
        prime_moment_sums(fams, p)


# every served corpus family; the six served families of bench/inputs.py's survey_families(1);
# and one family for each fallback the corpus lacks: 13 divides b1, 17 divides alpha, 19 beta
_SERVED = [corpus_family(n) for n in (
    "1_0_0_-1_t", "1_0_-2_1_t", "1_0_1_-1_t", "1_1_-1_1_t", "1_1_-3_1_t", "1_0_-3_1_t",
    "1_1_-2_1_t", "0_1_1_1_t", "0_1_3_1_t", "0_0_0_-t2_t4", "1_0_0_1_t")] + [
    family("s004_t1", 1, -1, 0, -5, [6, -2]), family("s006_t1", 1, -1, 1, 3, [-9, 2]),
    family("s025_t1", 0, 1, -1, -1, [2, 1]), family("s032_t1", 1, -2, 0, 4, [0, -1]),
    family("s035_t1", 0, -2, -1, 3, [-8, 1]), family("s045_t1", 1, -2, -1, -1, [4, -1]),
    family("b1_13", 0, 0, 0, 1, [1, 13]), family("alpha_17", 0, 0, 0, [0, 0, 17], [0, 0, 0, 0, 1]),
    family("beta_19", 0, 0, 0, [0, 0, 1], [0, 0, 0, 0, 19])]


def _assert_both_paths_agree(p):
    """prime_moment_sums equals S_1..S_8 of every row read off its traces, by the general kernel."""
    rows = coefficient_rows(_SERVED)
    kernel = traces._power_sums(traces._kernel_histograms(rows, trace_tables(p)), p, 8)
    assert [list(rec.sums) for rec in prime_moment_sums(_SERVED, p, 8, rows)] == kernel, p


def test_served_shapes_are_the_eleven_corpus_families_and_no_other():
    rows = coefficient_rows(builtin_corpus() + [rank6_family()])
    assert sum(row.served is not None for row in rows) == 11
    assert all(row.served for row in coefficient_rows(_SERVED))
    assert coefficient_rows([corpus_family("0_0_0_-t2_t4")])[0].served == ("quartic", -1296, 46656)
    assert coefficient_rows([corpus_family("1_0_0_1_t")])[0].served == ("vertical", 1269, 46656)


def test_class_path_equals_the_kernel_at_every_prime_to_1997():
    for p in [q for q in sieve_primes(302) if q > 3]:
        _assert_both_paths_agree(p)


@pytest.mark.parametrize("p", [100003, 100049, 1000003, 1000033])  # 3, 1, 3, 1 mod 4
def test_class_path_equals_the_kernel_at_large_primes(p):
    _assert_both_paths_agree(p)


def test_served_families_read_traces_only_where_p_divides_their_integers(monkeypatch):
    rows = coefficient_rows(_SERVED + [rank6_family()])
    read, real = [], traces._block_traces

    def block_traces(block, tt):
        read.extend(block)
        return real(block, tt)

    monkeypatch.setattr(traces, "_block_traces", block_traces)
    for p in (5, 7, 11, 13, 17, 19, 47, 53, 83, 101, 10007):
        read.clear()
        prime_moment_sums(_SERVED + [rank6_family()], p, 8, rows)
        assert read == [row for row in rows if not row.served or row.served[1] % p == 0
                        or row.served[2] % p == 0], p
    assert read == rows[-1:]  # at p = 10007 only rank6_big's traces are read


def test_moduli_beyond_int64_products_are_rejected_first(monkeypatch):
    def no_sieve(n):
        raise AssertionError("sieved up to %d" % (n,))

    monkeypatch.setattr(modular, "_prime_mask", no_sieve)
    fam = corpus_family("1_0_0_-1_t")
    p = 4294967311  # the first prime above 2^32
    for call in (lambda: prime_moment_sums([fam], p), lambda: moment_sums(fam, p),
                 lambda: traces_mod_p(fam, p)):
        with pytest.raises(ValueError, match="3037000499"):
            call()


@pytest.mark.parametrize("p", [2, 9, 15])
def test_tables_reject_moduli_that_are_not_odd_primes(p):
    fam = corpus_family("1_0_0_-1_t")
    for call in (lambda: trace_tables(p), lambda: traces_mod_p(fam, p),
                 lambda: prime_moment_sums([fam], p)):
        with pytest.raises(ValueError):
            call()
