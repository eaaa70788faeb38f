"""Residual series, block sign statistics, histograms, and rank heuristics."""

from __future__ import annotations

import math
from fractions import Fraction
from operator import attrgetter
from typing import NamedTuple

from .families import R_MAX, MomentRecord


def catalan(n: int) -> int:
    """Catalan number C_n = binom(2n, n) / (n + 1)."""
    if n < 0:
        raise ValueError("n must be nonnegative, got %r" % (n,))
    return math.comb(2 * n, n) // (n + 1)


# r -> (M_r, e_r): main term of S_r is M_r * p^{e_r}; for r = 2R, M_r is the leading
# coefficient of Birch's moment polynomial, the Catalan number C_R, and e_r = R + 1
EVEN_MAIN_TERMS = {2 * R: (catalan(R), R + 1) for R in range(1, R_MAX // 2 + 1)}


def residual_exponents(r: int) -> tuple[Fraction, Fraction]:
    """The exponents residual_series may divide S_r's residual by: e_r - 1 and e_r - 1/2."""
    e_r = EVEN_MAIN_TERMS[r][1]
    return Fraction(e_r - 1), Fraction(2 * e_r - 1, 2)


class ResidualSeries(NamedTuple):
    family: str
    r: int
    exponent: Fraction
    points: tuple[tuple[int, float], ...]  # (p, value), ascending in p


def _by_p(records: list[MomentRecord], r: int) -> list[MomentRecord]:
    """The records sorted by p; ValueError when there are none or one lacks S_r."""
    recs = sorted(records, key=attrgetter("p"))
    if not recs:
        raise ValueError("no records")
    if min(map(len, map(attrgetter("sums"), recs))) < r:  # r_max of each, at C speed
        rec = next(rec for rec in recs if rec.r_max < r)
        raise ValueError(
            "record for p=%d has moments up to r=%d, need r=%d" % (rec.p, rec.r_max, r)
        )
    return recs


def residual_series(
    records: list[MomentRecord], r: int, exponent: Fraction | int | None = None
) -> ResidualSeries:
    """Normalized even-moment residuals (S_r - M_r p^{e_r}) / p^exponent.

    exponent may be e_r - 1 (units of the secondary term's sign) or
    e_r - 1/2 (units of the conjectured p^{e_r - 1/2} error envelope);
    the default is e_r - 1/2.
    """
    if r not in EVEN_MAIN_TERMS:
        raise ValueError("r must be one of %s, got %r" % (sorted(EVEN_MAIN_TERMS), r))
    m_r, e_r = EVEN_MAIN_TERMS[r]
    allowed = residual_exponents(r)
    exponent = allowed[1] if exponent is None else Fraction(exponent)
    if exponent not in allowed:
        raise ValueError("exponent must be %s or %s, got %s" % (*allowed, exponent))
    recs = _by_p(records, r)
    k = math.floor(exponent)  # exponent = k or k + 1/2
    half = exponent != k
    pts = []
    for rec in recs:
        num = rec.sums[r - 1] - m_r * rec.p ** e_r  # exact integer
        val = num / (rec.p ** k * math.sqrt(rec.p)) if half else num / rec.p ** k
        pts.append((rec.p, val))
    fam = recs[0].family
    return ResidualSeries(fam, r, exponent, tuple(pts))


def odd_coefficient_series(records: list[MomentRecord], r: int) -> ResidualSeries:
    """S_r / p^{(r+1)/2} for odd r; the conjectured main term is -C_{(r+1)/2} rank."""
    odd = range(1, R_MAX + 1, 2)
    if r not in odd:
        raise ValueError("r must be odd in 1..%d, got %r" % (odd[-1], r))
    q = (r + 1) // 2
    recs = _by_p(records, r)
    pts = tuple((rec.p, rec.sums[r - 1] / rec.p ** q) for rec in recs)
    return ResidualSeries(recs[0].family, r, Fraction(q), pts)


class BlockReport(NamedTuple):
    family: str
    r: int
    block_size: int
    block_means: tuple[float, ...]
    n_pos: int
    n_neg: int
    n_zero: int
    grand_mean: float
    p_value: float


def binomial_two_sided(k: int, n: int) -> float:
    """Exact two-sided sign-test p-value for k successes in n fair coin flips."""
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    if n == 0:
        return 1.0
    lo = min(k, n - k)
    if 2 * lo == n:
        return 1.0
    # the upper tail from n - lo mirrors the lower one, so the two-sided sum is twice it
    c = tail = 1
    for i in range(lo):
        c = c * (n - i) // (i + 1)  # C(n, i + 1), exact
        tail += c
    return 2 * tail / (1 << n)


def block_stats(series: ResidualSeries, block_size: int) -> BlockReport:
    """Means of consecutive disjoint blocks (last may be short) and their sign census.

    The p-value is the exact two-sided binomial tail on the positive/negative
    split; blocks with mean exactly zero are excluded from the test. The grand
    mean is the mean of all points, not of the block means.
    """
    if block_size < 1:
        raise ValueError("block_size must be >= 1, got %r" % (block_size,))
    vals = [v for _, v in series.points]
    if not vals:
        raise ValueError("empty series")
    means = tuple(
        math.fsum(vals[lo : lo + block_size]) / len(vals[lo : lo + block_size])
        for lo in range(0, len(vals), block_size)
    )
    n_pos = sum(1 for m in means if m > 0)
    n_neg = sum(1 for m in means if m < 0)
    n_zero = len(means) - n_pos - n_neg
    return BlockReport(
        family=series.family,
        r=series.r,
        block_size=block_size,
        block_means=means,
        n_pos=n_pos,
        n_neg=n_neg,
        n_zero=n_zero,
        grand_mean=math.fsum(vals) / len(vals),
        p_value=binomial_two_sided(n_pos, n_pos + n_neg),
    )


class Histogram(NamedTuple):
    bin_edges: tuple[float, ...]
    counts: tuple[int, ...]


def histogram(report: BlockReport, n_bins: int) -> Histogram:
    """Equal-width histogram of the block means over [min, max].

    Bins are left-closed right-open, the last closed; all-equal input
    degenerates to a single unit-width bin around the common value.
    """
    if n_bins < 1:
        raise ValueError("n_bins must be >= 1, got %r" % (n_bins,))
    vals = report.block_means
    if not vals:
        raise ValueError("no block means")
    lo, hi = min(vals), max(vals)
    if lo == hi:
        return Histogram((lo - 0.5, lo + 0.5), (len(vals),))
    edges = [lo + (hi - lo) * i / n_bins for i in range(n_bins)] + [hi]
    counts = [0] * n_bins
    for v in vals:
        k = min(int((v - lo) / (hi - lo) * n_bins), n_bins - 1)
        while k > 0 and v < edges[k]:  # float guard: keep v inside its bin
            k -= 1
        while k < n_bins - 1 and v >= edges[k + 1]:
            k += 1
        counts[k] += 1
    return Histogram(tuple(edges), tuple(counts))


def nagao_rank_estimate(records: list[MomentRecord], x: int) -> float:
    """(1/x) * sum over odd primes p <= x of (-S_1(p)/p) * log p.

    The negated first-moment average; it tends to the rank of the family's
    group of sections, and is exactly 0.0 whenever every S_1 vanishes.
    """
    pts = [rec for rec in _by_p(records, 1) if 2 < rec.p <= x]
    if not pts:
        raise ValueError("no records with p <= %r" % (x,))
    acc = math.fsum(-rec.sums[0] / rec.p * math.log(rec.p) for rec in pts)
    return acc / x


class CatalanCheck(NamedTuple):
    k: int
    observed_mean: float
    predicted: float
    ratio: float | None  # None when the prediction is zero (rank 0)


def catalan_check(observed_mean: float, k: int, rank: int) -> CatalanCheck:
    """observed_mean, the mean of S_{2k+1}/p^{k+1}, against the conjectured -C_{k+1} * rank."""
    if not 1 <= k <= (R_MAX - 1) // 2:
        raise ValueError("k must be in 1..%d, got %r" % ((R_MAX - 1) // 2, k))
    predicted = -catalan(k + 1) * rank
    ratio = observed_mean / predicted if predicted != 0 else None
    return CatalanCheck(k, observed_mean, float(predicted), ratio)
