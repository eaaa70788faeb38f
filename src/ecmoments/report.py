"""Plain-text analysis report and SVG emission for a moments CSV."""

from __future__ import annotations

import math
import os
import re
from fractions import Fraction
from operator import attrgetter

from .bias import (
    EVEN_MAIN_TERMS,
    block_stats,
    catalan_check,
    histogram,
    nagao_rank_estimate,
    odd_coefficient_series,
    residual_series,
)
from .families import R_MAX, MomentRecord
from .io import (
    RunConfig,
    ValidationError,
    atomic_write_files,
    load_families,
    read_moments_csv,
    remove_files,
)
from .svg import emit_histogram_svg

HISTOGRAM_BINS = 10
_SVG_NAME = r"(.+)_S[1-9][0-9]*_b[1-9][0-9]*\.svg"  # <slug>_S<r>_b<size>.svg; compiled on use


def report_txt_path(config: RunConfig) -> str:
    return os.path.join(config.out_dir, "report.txt")


def _slug(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]+", "-", name)


def _fmt_exp(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else "%d/%d" % (q.numerator, q.denominator)


def _block_sizes(config: RunConfig) -> list[int]:
    sizes = [50, 10]
    if config.block_size not in sizes:
        sizes.append(config.block_size)
    return sizes


def run_report(csv_path, config: RunConfig) -> str:
    """Build the bias report for every family in the CSV; returns its text.

    The report covers grand-mean residuals for r = 2 (at the configured exponent)
    and each higher even r <= R_MAX (at the half-integer envelope), block sign counts
    with exact binomial p-values, odd-moment means with their Catalan targets,
    and the first-moment rank estimate. Families whose names map to one SVG
    name, letter case aside, are rejected before anything is rendered. The
    SVGs and report.txt are committed under out_dir in one atomic_write_files
    batch. Then every <slug>_S<r>_b<size>.svg there of a reported family that
    this run did not write is removed, durably.
    """
    config.validate()
    r_max, records = read_moments_csv(csv_path)
    r_max = min(r_max, R_MAX)  # a CSV written elsewhere may hold moments past those reported
    if not records:
        raise ValueError("%s: no data rows" % (csv_path,))
    known = {fam.name: fam for fam in load_families(config)}
    by_family: dict[str, list[MomentRecord]] = {}
    for rec in records:
        by_family.setdefault(rec.family, []).append(rec)
    ordered_names = [n for n in known if n in by_family]
    ordered_names += [n for n in by_family if n not in known]
    slugs: dict[str, str] = {}  # casefolded, so names that differ only in case collide too
    for name in ordered_names:
        slug = _slug(name)
        other = slugs.setdefault(slug.casefold(), name)
        if other != name:
            case = "" if _slug(other) == slug else " up to letter case"
            raise ValidationError("families %r and %r both map to SVG names %s_*%s"
                                  % (other, name, slug, case))

    lines: list[str] = []
    warnings: list[str] = []
    texts: dict[str, str] = {}  # path -> text of every file this run writes
    for name in ordered_names:
        recs = sorted(by_family[name], key=attrgetter("p"))
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
        for r in range(2, r_max + 1, 2):
            m_r, e_r = EVEN_MAIN_TERMS[r]
            series = residual_series(recs, r, config.exponent2 if r == 2 else None)
            lines.append("S%d residual (S%d - %d p^%d) / p^%s:"
                         % (r, r, m_r, e_r, _fmt_exp(series.exponent)))
            for size in _block_sizes(config):
                blk = block_stats(series, size)
                lines.append(
                    "  blocks of %d: %d blocks (+%d/-%d/0:%d), grand mean %.6f, "
                    "sign test p = %.6g"
                    % (size, len(blk.block_means), blk.n_pos, blk.n_neg, blk.n_zero,
                       blk.grand_mean, blk.p_value)
                )
                svg_name = "%s_S%d_b%d.svg" % (_slug(name), r, size)
                title = "%s: S%d block means (size %d)" % (name, r, size)
                texts[os.path.join(config.out_dir, svg_name)] = emit_histogram_svg(
                    histogram(blk, HISTOGRAM_BINS), title)
        odd_means = {}
        for r in range(3, r_max + 1, 2):
            series = odd_coefficient_series(recs, r)
            odd_means[r] = math.fsum(v for _, v in series.points) / len(series.points)
            lines.append("S%d / p^%d: mean %.6f" % (r, (r + 1) // 2, odd_means[r]))
        if rank is not None:
            for r, mean in odd_means.items():
                chk = catalan_check(mean, (r - 1) // 2, rank)
                ratio_txt = "n/a" if chk.ratio is None else "%.4f" % chk.ratio
                lines.append(
                    "  catalan k=%d: observed %.6f, predicted %.1f, ratio %s"
                    % (chk.k, chk.observed_mean, chk.predicted, ratio_txt)
                )
        else:
            lines.append("  catalan: no expected_rank configured, observed means only")
        nagao = nagao_rank_estimate(recs, p_last)
        lines.append(
            "rank estimate at x=%d: %.6f (raw first-moment average: %.6f)"
            % (p_last, nagao, -nagao)
        )
        lines.append("")

    text = "\n".join(warnings + [""] + lines if warnings else lines) + "\n"
    texts[report_txt_path(config)] = text
    atomic_write_files(texts)
    reported = {_slug(name) for name in ordered_names}
    svgs = [os.path.join(config.out_dir, entry) for entry in os.listdir(config.out_dir)
            if (m := re.fullmatch(_SVG_NAME, entry)) and m.group(1) in reported]
    remove_files([path for path in svgs if path not in texts])
    return text
