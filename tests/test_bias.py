"""Residual series, sign tests, histograms, rank estimates, Catalan checks."""

import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.stats

from ecmoments import (
    BlockReport,
    CatalanCheck,
    Histogram,
    ResidualSeries,
    binomial_two_sided,
    block_stats,
    catalan,
    catalan_check,
    histogram,
    legendre_symbol,
    nagao_rank_estimate,
    odd_coefficient_series,
    prime_index_of,
    residual_series,
    sieve_primes,
)
from ecmoments.traces import MomentRecord


def _rec(p, sums, family="synthetic"):
    return MomentRecord(family, prime_index_of(p), p, tuple(sums))


def _primes(lo, hi):
    return [p for p in sieve_primes(60) if lo <= p <= hi]


# ------------------------------------------------------------ residual series


def test_residual_series_exact_template2_signs():
    # S2 = p^2 - 3p or p^2 - p makes the exponent-1 residual exactly -3 / -1
    recs = [
        _rec(p, (0, p * p - 3 * p if p % 4 == 1 else p * p - p)) for p in _primes(17, 199)
    ]
    series = residual_series(recs, 2, exponent=1)
    assert series.exponent == Fraction(1)
    for p, v in series.points:
        assert v == (-3.0 if p % 4 == 1 else -1.0)
    assert [p for p, _ in series.points] == sorted(p for p, _ in series.points)


def test_residual_series_on_engine_records(records_by_family):
    # the t-linear b6 family: (S2 - p^2)/p = -2 - chi_p(-3) past its threshold
    recs = [r for r in records_by_family["1_0_0_-1_t"] if 17 <= r.p <= 199]
    series = residual_series(recs, 2, exponent=1)
    for p, v in series.points:
        assert v == -2.0 - legendre_symbol(-3, p)


def test_residual_series_default_exponent():
    # S2 = p^2 - p, S4 = 2p^3 + p, S6 = 5p^4 - p^2 give residual numerators
    # -p, +p, -p^2; the default exponent is the half-integer e_r - 1/2
    recs = [_rec(p, (0, p * p - p, 0, 2 * p**3 + p, 0, 5 * p**4 - p * p)) for p in _primes(5, 61)]
    for r, e_r in ((2, 2), (4, 3), (6, 4)):
        assert residual_series(recs, r).exponent == Fraction(2 * e_r - 1, 2)
    for p, v in residual_series(recs, 2).points:
        assert v == pytest.approx(-p / (p * math.sqrt(p)))
    for p, v in residual_series(recs, 4, exponent=Fraction(5, 2)).points:
        assert v == pytest.approx(p / (p**2 * math.sqrt(p)))
    for p, v in residual_series(recs, 6, exponent=3).points:
        assert v == pytest.approx(-1.0 / p)


def test_residual_series_validation():
    recs = [_rec(p, (0, p * p)) for p in _primes(5, 31)]
    for bad_r in (1, 3, 5, 7, 9):
        with pytest.raises(ValueError):
            residual_series(recs, bad_r)
    with pytest.raises(ValueError):
        residual_series(recs, 2, exponent=2)
    with pytest.raises(ValueError):
        residual_series(recs, 2, exponent=Fraction(1, 2))
    with pytest.raises(ValueError):
        residual_series([], 2)
    with pytest.raises(ValueError):  # records lack S_4
        residual_series(recs, 4)


def test_odd_coefficient_series():
    recs = [_rec(p, (0, 0, -4 * p * p)) for p in _primes(5, 61)]
    series = odd_coefficient_series(recs, 3)
    assert series.exponent == Fraction(2)
    assert all(v == -4.0 for _, v in series.points)
    for bad_r in (2, 4, 9, 0):
        with pytest.raises(ValueError):
            odd_coefficient_series(recs, bad_r)


def test_odd_series_envelope_on_engine_records(records_by_family):
    # |S_7| <= p (2 sqrt p)^7, so the normalized value sits inside 128 sqrt p
    recs = [r for r in records_by_family["1_0_0_-1_t"] if r.p <= 199]
    series = odd_coefficient_series(recs, 7)
    for p, v in series.points:
        assert abs(v) <= 128 * math.sqrt(p)


# ----------------------------------------------------------------- block stats


def _series_from_values(values):
    ps = sieve_primes(len(values) + 2)[2:]
    return ResidualSeries("synthetic", 2, Fraction(1), tuple(zip(ps, values)))


def test_block_stats_constant_minus_one():
    series = _series_from_values([-1.0] * 120)
    rep = block_stats(series, 50)
    assert rep.block_means == (-1.0, -1.0, -1.0)
    assert (rep.n_pos, rep.n_neg, rep.n_zero) == (0, 3, 0)
    assert rep.grand_mean == -1.0
    assert rep.p_value == pytest.approx(0.25)  # 2 * (1/2)^3


def test_block_stats_alternating_signs_give_zero_trials():
    series = _series_from_values([1.0, -1.0] * 10)
    rep = block_stats(series, 2)
    assert rep.n_zero == 10 and rep.n_pos == rep.n_neg == 0
    assert rep.p_value == 1.0


def test_block_stats_grand_mean_is_pointwise():
    series = _series_from_values([1.0, 1.0, 1.0, 5.0])
    rep = block_stats(series, 3)
    assert rep.block_means == (1.0, 5.0)
    assert rep.grand_mean == 2.0  # mean of the points, not of the block means


def test_block_stats_validation():
    series = _series_from_values([1.0])
    with pytest.raises(ValueError):
        block_stats(series, 0)
    with pytest.raises(ValueError):
        block_stats(ResidualSeries("x", 2, Fraction(1), ()), 3)


def test_grand_mean_invariant_under_block_size(records_by_family):
    recs = records_by_family["1_0_0_-1_t"]
    series = residual_series(recs, 2, exponent=1)
    means = {block_stats(series, b).grand_mean for b in (1, 7, 50, 300)}
    assert len(means) == 1


# -------------------------------------------------------------- binomial test


def test_binomial_examples():
    assert binomial_two_sided(63, 100) == 0.012032975725363477
    assert abs(binomial_two_sided(63, 100) - 0.012) < 0.002
    assert binomial_two_sided(0, 0) == 1.0
    assert binomial_two_sided(3, 6) == 1.0
    with pytest.raises(ValueError):
        binomial_two_sided(5, 4)
    with pytest.raises(ValueError):
        binomial_two_sided(-1, 4)


def test_binomial_symmetry_and_range():
    for n in (1, 5, 12, 31):
        for k in range(n + 1):
            v = binomial_two_sided(k, n)
            assert v == binomial_two_sided(n - k, n)
            assert 0.0 < v <= 1.0


def test_binomial_matches_scipy():
    for n in range(1, 26):
        for k in range(n + 1):
            want = scipy.stats.binomtest(k, n, 0.5).pvalue
            assert binomial_two_sided(k, n) == pytest.approx(want, rel=1e-10)


# ------------------------------------------------------------------ histograms


def test_histogram_degenerate_single_bin():
    rep = BlockReport("f", 2, 50, (-1.0, -1.0, -1.0), 0, 3, 0, -1.0, 0.25)
    hist = histogram(rep, 5)
    assert hist == Histogram((-1.5, -0.5), (3,))


def test_histogram_two_even_bins():
    rep = BlockReport("f", 2, 1, (-2.0, -1.0, 0.0, 1.0), 1, 2, 1, -0.5, 1.0)
    hist = histogram(rep, 2)
    assert hist.bin_edges == (-2.0, -0.5, 1.0)
    assert hist.counts == (2, 2)


def test_histogram_properties(records_by_family):
    recs = records_by_family["0_0_0_-t2_t4"]
    rep = block_stats(residual_series(recs, 2, exponent=1), 25)
    hist = histogram(rep, 10)
    assert sum(hist.counts) == len(rep.block_means)
    assert list(hist.bin_edges) == sorted(set(hist.bin_edges))
    # numpy uses the same half-open-bins-last-closed convention
    want, _ = np.histogram(rep.block_means, bins=hist.bin_edges)
    assert list(hist.counts) == list(want)
    with pytest.raises(ValueError):
        histogram(rep, 0)


# --------------------------------------------------------------- rank estimate


def test_nagao_synthetic_rank_two():
    ps = [5, 7, 11, 13]
    recs = [_rec(p, (-2 * p,)) for p in ps]
    want = math.fsum(2.0 * math.log(p) for p in ps) / 13
    assert nagao_rank_estimate(recs, 13) == pytest.approx(want)


def test_nagao_zero_first_moments():
    recs = [_rec(p, (0,)) for p in (5, 7, 11)]
    assert nagao_rank_estimate(recs, 11) == 0.0
    assert nagao_rank_estimate([_rec(5, (0,))], 5) == 0.0


def test_nagao_cutoff_and_errors():
    recs = [_rec(p, (-p,)) for p in (5, 7, 11, 13)]
    a = nagao_rank_estimate(recs, 11)
    want = math.fsum(1.0 * math.log(p) for p in (5, 7, 11)) / 11
    assert a == pytest.approx(want)
    with pytest.raises(ValueError):
        nagao_rank_estimate(recs, 3)
    with pytest.raises(ValueError):
        nagao_rank_estimate([], 100)


# --------------------------------------------------------------------- catalan


def test_catalan_values_and_recurrence():
    assert [catalan(n) for n in range(6)] == [1, 1, 2, 5, 14, 42]
    for n in range(1, 8):
        assert catalan(n + 1) * (n + 2) == catalan(n) * 2 * (2 * n + 1)
    with pytest.raises(ValueError):
        catalan(-1)


def test_catalan_check_synthetic():
    recs = [_rec(p, (0, 0, -4 * p * p)) for p in _primes(5, 61)]
    chk = catalan_check(recs, 1, rank=2)
    assert chk == CatalanCheck(1, -4.0, -4.0, 1.0)
    zero = catalan_check(recs, 1, rank=0)
    assert zero.predicted == 0.0 and zero.ratio is None
    for k in (0, 4):
        with pytest.raises(ValueError):
            catalan_check(recs, k, rank=1)


def test_catalan_check_rank_one_engine(records_by_family):
    recs = records_by_family["1_t_-1_-t-1_0"]
    chk = catalan_check(recs, 1, rank=1)
    assert chk.predicted == -2.0
    assert chk.ratio is not None and 0.5 < chk.ratio < 1.5
