"""Plain-text analysis report and SVG emission for a moments CSV."""

from __future__ import annotations

import math
import os
import re
from fractions import Fraction
from typing import NamedTuple

from .bias import (
    EVEN_MAIN_TERMS,
    BlockReport,
    CatalanCheck,
    block_stats,
    catalan_check,
    histogram,
    nagao_rank_estimate,
    odd_coefficient_series,
    residual_series,
    sort_records,
)
from .families import MomentRecord
from .io import RunConfig, atomic_write_files, load_families, read_moments_csv
from .svg import emit_histogram_svg

HISTOGRAM_BINS = 10


class FamilyReport(NamedTuple):
    """One family's part of the report, built once every part is computed."""

    name: str
    expected_rank: int | None
    n_primes: int
    p_first: int
    p_last: int
    gaps: tuple[int, ...]
    blocks: dict[tuple[int, int], BlockReport]  # (r, size)
    odd_means: dict[int, float]
    catalan: list[CatalanCheck]
    nagao: float
    svg_paths: list[str]


def _slug(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]+", "-", name)


def _fmt_exp(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else "%d/%d" % (q.numerator, q.denominator)


def _block_sizes(config: RunConfig) -> list[int]:
    sizes = [50, 10]
    if config.block_size not in sizes:
        sizes.append(config.block_size)
    return sizes


def run_report(csv_path, config: RunConfig) -> tuple[str, list[FamilyReport]]:
    """Build the bias report for every family in the CSV; writes SVGs under out_dir.

    The report covers grand-mean residuals for r = 2 (at the configured
    exponent), r = 4, 6 and 8 (at the half-integer envelope), block sign counts
    with exact binomial p-values, odd-moment means with their Catalan targets,
    and the first-moment rank estimate. Every SVG is rendered first and all
    are committed in one atomic_write_files batch.
    """
    config.validate()
    r_max, records = read_moments_csv(csv_path)
    if not records:
        raise ValueError("%s: no data rows" % (csv_path,))
    known = {fam.name: fam for fam in load_families(config)}
    by_family: dict[str, list[MomentRecord]] = {}
    for rec in records:
        by_family.setdefault(rec.family, []).append(rec)
    ordered_names = [n for n in known if n in by_family]
    ordered_names += [n for n in by_family if n not in known]

    lines: list[str] = []
    warnings: list[str] = []
    reports: list[FamilyReport] = []
    svgs: dict[str, str] = {}
    for name in ordered_names:
        recs = sort_records(by_family[name], r_max)  # by p, checked once for every series
        fam = known.get(name)
        idxs = [r.prime_index for r in recs]
        present = set(idxs)
        gaps = tuple(i for i in range(idxs[0], idxs[-1] + 1) if i not in present)
        if gaps:
            warnings.append(
                "warning: family %s: missing prime indices %s"
                % (name, ", ".join(map(str, gaps)))
            )
        rank = fam.expected_rank if fam else None
        p_first, p_last = recs[0].p, recs[-1].p
        lines.append("== family %s (expected rank %s) ==" % (name, "?" if rank is None else rank))
        lines.append(
            "primes: index %d..%d, p = %d..%d, n = %d"
            % (idxs[0], idxs[-1], p_first, p_last, len(recs))
        )
        blocks, odd_means, catalans, svg_paths = {}, {}, [], []
        for r in sorted(EVEN_MAIN_TERMS):
            if r > r_max:
                continue
            m_r, e_r = EVEN_MAIN_TERMS[r]
            exponent = Fraction(config.exponent2) if r == 2 else Fraction(2 * e_r - 1, 2)
            series = residual_series(recs, r, exponent)
            lines.append(
                "S%d residual (S%d - %d p^%d) / p^%s:" % (r, r, m_r, e_r, _fmt_exp(exponent))
            )
            for size in _block_sizes(config):
                blk = block_stats(series, size)
                blocks[(r, size)] = blk
                lines.append(
                    "  blocks of %d: %d blocks (+%d/-%d/0:%d), grand mean %.6f, "
                    "sign test p = %.6g"
                    % (size, len(blk.block_means), blk.n_pos, blk.n_neg, blk.n_zero,
                       blk.grand_mean, blk.p_value)
                )
                svg_name = "%s_S%d_b%d.svg" % (_slug(name), r, size)
                svg_path = os.path.join(config.out_dir, svg_name)
                title = "%s: S%d block means (size %d)" % (name, r, size)
                svgs[svg_path] = emit_histogram_svg(histogram(blk, HISTOGRAM_BINS), title)
                svg_paths.append(svg_path)
        for r in (3, 5, 7):
            if r > r_max:
                continue
            series = odd_coefficient_series(recs, r)
            mean = math.fsum(v for _, v in series.points) / len(series.points)
            odd_means[r] = mean
            lines.append("S%d / p^%d: mean %.6f" % (r, (r + 1) // 2, mean))
        if rank is not None:
            for k in (1, 2, 3):
                if 2 * k + 1 > r_max:
                    continue
                chk = catalan_check(recs, k, rank)
                catalans.append(chk)
                ratio_txt = "n/a" if chk.ratio is None else "%.4f" % chk.ratio
                lines.append(
                    "  catalan k=%d: observed %.6f, predicted %.1f, ratio %s"
                    % (k, chk.observed_mean, chk.predicted, ratio_txt)
                )
        else:
            lines.append("  catalan: no expected_rank configured, observed means only")
        nagao = nagao_rank_estimate(recs, p_last)
        lines.append(
            "rank estimate at x=%d: %.6f (raw first-moment average: %.6f)"
            % (p_last, nagao, -nagao)
        )
        lines.append("")
        reports.append(FamilyReport(name, rank, len(recs), p_first, p_last, gaps, blocks,
                                    odd_means, catalans, nagao, svg_paths))

    atomic_write_files(svgs)
    text = "\n".join(warnings + [""] + lines if warnings else lines) + "\n"
    return text, reports
