"""Residual series, block sign statistics, histograms, and rank heuristics."""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .families import MomentRecord

# r -> (M_r, e_r): main term of S_r is M_r * p^{e_r}
EVEN_MAIN_TERMS = {2: (1, 2), 4: (2, 3), 6: (5, 4), 8: (14, 5)}


class ResidualSeries(NamedTuple):
    family: str
    r: int
    exponent: Fraction
    points: tuple[tuple[int, float], ...]  # (p, value), ascending in p


class SortedRecords(tuple):
    """One family's MomentRecords in ascending p, each with at least r_max moments."""

    r_max: int


def sort_records(records: list[MomentRecord], r_max: int) -> SortedRecords:
    """The records sorted by p and checked to hold S_1..S_r_max, once for many series.

    The series functions below take a SortedRecords as it is; any other list of
    records they sort and check on every call.
    """
    recs = SortedRecords(sorted(records, key=lambda rec: rec.p))
    if not recs:
        raise ValueError("no records")
    for rec in recs:
        if rec.r_max < r_max:
            raise ValueError(
                "record for p=%d has moments up to r=%d, need r=%d" % (rec.p, rec.r_max, r_max)
            )
    recs.r_max = r_max
    return recs


def _sorted_records(records: list[MomentRecord], r: int) -> SortedRecords:
    if isinstance(records, SortedRecords) and records.r_max >= r:
        return records
    return sort_records(records, r)


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
    exponent = Fraction(2 * e_r - 1, 2) if exponent is None else Fraction(exponent)
    if exponent not in (Fraction(e_r - 1), Fraction(2 * e_r - 1, 2)):
        raise ValueError("exponent must be %d or %d/2, got %s" % (e_r - 1, 2 * e_r - 1, exponent))
    recs = _sorted_records(records, r)
    pts = []
    for rec in recs:
        num = rec.sums[r - 1] - m_r * rec.p ** e_r  # exact integer
        if exponent.denominator == 1:
            val = num / rec.p ** exponent.numerator
        else:
            k = exponent.numerator // 2  # exponent = k + 1/2
            val = num / (rec.p ** k * math.sqrt(rec.p))
        pts.append((rec.p, val))
    fam = recs[0].family
    return ResidualSeries(fam, r, exponent, tuple(pts))


def odd_coefficient_series(records: list[MomentRecord], r: int) -> ResidualSeries:
    """S_r / p^{(r+1)/2} for odd r; the conjectured main term is -C_{(r+1)/2} rank."""
    if r % 2 == 0 or not 1 <= r <= 7:
        raise ValueError("r must be odd in 1..7, got %r" % (r,))
    q = (r + 1) // 2
    recs = _sorted_records(records, r)
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
    lo, hi = min(k, n - k), max(k, n - k)
    if lo == hi:
        return 1.0
    num = sum(math.comb(n, i) for i in range(lo + 1))
    num += sum(math.comb(n, i) for i in range(hi, n + 1))
    return num / (1 << n)


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
    pts = [rec for rec in _sorted_records(records, 1) if 2 < rec.p <= x]
    if not pts:
        raise ValueError("no records with p <= %r" % (x,))
    acc = math.fsum(-rec.sums[0] / rec.p * math.log(rec.p) for rec in pts)
    return acc / x


def catalan(n: int) -> int:
    """Catalan number C_n = binom(2n, n) / (n + 1)."""
    if n < 0:
        raise ValueError("n must be nonnegative, got %r" % (n,))
    return math.comb(2 * n, n) // (n + 1)


class CatalanCheck(NamedTuple):
    k: int
    observed_mean: float
    predicted: float
    ratio: float | None  # None when the prediction is zero (rank 0)


def catalan_check(records: list[MomentRecord], k: int, rank: int) -> CatalanCheck:
    """Mean of S_{2k+1}/p^{k+1} against the conjectured -C_{k+1} * rank."""
    if not 1 <= k <= 3:
        raise ValueError("k must be in 1..3, got %r" % (k,))
    series = odd_coefficient_series(records, 2 * k + 1)
    observed = math.fsum(v for _, v in series.points) / len(series.points)
    predicted = -catalan(k + 1) * rank
    ratio = observed / predicted if predicted != 0 else None
    return CatalanCheck(k, observed, float(predicted), ratio)
