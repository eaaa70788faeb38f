"""Acceptance gates: one test per criterion, pass/fail visible under pytest -v.

Each test prints a one-line summary with the measured quantities so a failing
gate shows the numbers, not just the assertion.
"""

import math
import os
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
from direct_sweep import trace_at

from ecmoments import (
    RunConfig,
    binomial_two_sided,
    block_stats,
    builtin_corpus,
    cached_legendre_table,
    catalan,
    discover,
    family_file_text,
    linear_legendre_sum,
    nagao_rank_estimate,
    odd_coefficient_series,
    point_count_oracle,
    quadratic_legendre_sum,
    read_moments_csv,
    residual_series,
    run_moments,
    sieve_primes,
    summarize,
    traces_mod_p,
    verify_family,
    write_moments_csv,
)
from ecmoments.cli import main
from ecmoments.discovery import ALL_VERIFIED, INCONCLUSIVE, SOME_FALSIFIED, VERIFIED
from ecmoments.families import fiber_at, match_template
from ecmoments.traces import MomentRecord


def _gate(name, ok, detail):
    print("%s: %s (%s)" % (name, "PASS" if ok else "FAIL", detail))
    assert ok, "%s: %s" % (name, detail)


def test_criterion_01_legendre_sum_lemmas_exhaustive_to_97():
    """Both character-sum lemmas, every (a, b) and (a, b, c) mod p, odd p <= 97."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    checked = 0
    for p in [q for q in sieve_primes(25) if 2 < q <= 97]:
        chi = cached_legendre_table(p).astype(np.int64)
        xs = np.arange(p, dtype=np.int64)
        # shift[v, b] = chi[(v + b) % p]
        shift = chi[(xs[:, None] + xs[None, :]) % p]
        # linear: cnt[a, v] = #{x : a x = v}; brute[a, b] = sum_x chi[(a x + b) % p]
        ax = (xs[:, None] * xs[None, :]) % p
        cnt = np.zeros((p, p), dtype=np.float64)
        np.add.at(cnt, (np.repeat(xs, p), ax.ravel()), 1.0)
        brute_lin = (cnt @ shift).astype(np.int64)  # exact: values bounded by p << 2^53
        for a in range(p):
            for b in range(p):
                assert linear_legendre_sum(a, b, p) == brute_lin[a, b], (a, b, p)
        checked += p * p
        # quadratic, a != 0 mod p: h[b, v] = #{x : a x^2 + b x = v}
        want_chi_a = chi[xs % p]
        for a in range(1, p):
            vals = (a * xs[None, :] ** 2 % p + xs[:, None] * xs[None, :]) % p  # [b, x]
            h = np.zeros((p, p), dtype=np.float64)
            np.add.at(h, (np.repeat(xs, p), vals.ravel()), 1.0)
            brute = (h @ shift).astype(np.int64)  # brute[b, c]
            disc = (xs[:, None] ** 2 - 4 * a * xs[None, :]) % p
            expect = np.where(disc == 0, (p - 1) * int(want_chi_a[a]), -int(want_chi_a[a]))
            assert np.array_equal(brute, expect), (a, p)
            # tie the scalar implementation to the brute values at sampled points
            for b, c in zip(rng.integers(0, p, 8), rng.integers(0, p, 8)):
                assert quadratic_legendre_sum(a, int(b), int(c), p) == brute[b, c]
            checked += p * p
        # a = 0 mod p delegates to the linear lemma
        assert quadratic_legendre_sum(0, 3 % p, 1, p) == linear_legendre_sum(3 % p, 1, p)
    elapsed = time.perf_counter() - t0
    _gate(
        "criterion 1",
        elapsed < 10.0,
        "all %d (a,b[,c]) tuples exact for odd p <= 97 in %.2fs (< 10s)" % (checked, elapsed),
    )


def test_criterion_02_trace_oracle_exhaustive_to_61(corpus_families):
    """trace_at and traces_mod_p == p - brute point count: every family, odd p <= 61, every t."""
    n = 0
    for p in [q for q in sieve_primes(18) if 2 < q <= 61]:
        table = cached_legendre_table(p)
        for fam in corpus_families:
            engine = traces_mod_p(fam, p)
            counts = point_count_oracle([fiber_at(fam, t, p) for t in range(p)])
            for t in range(p):
                expected = p - counts[t]
                assert trace_at(fam, t, p, table) == expected, (fam.name, p, t)
                assert engine[t] == expected, (fam.name, p, t)
                n += 1
    _gate("criterion 2", True,
          "%d fibers, trace_at and traces_mod_p == p - #points with zero tolerance" % n)


def test_criterion_03_closed_forms_exact_to_200th_prime(corpus_families, records_by_family):
    """Template closed forms match the engine at every valid prime <= 1223."""
    t0 = time.perf_counter()
    n_families = 0
    n_valid = 0
    for fam in corpus_families:
        if match_template(fam) is None:
            continue
        recs = [r for r in records_by_family[fam.name] if r.p <= 1223]
        assert len(recs) == 198  # prime indices 3..200
        report = verify_family(fam, recs)
        assert report.all_ok, (fam.name, report.mismatches[:3])
        n_families += 1
        n_valid += report.n_valid
    elapsed = time.perf_counter() - t0
    _gate(
        "criterion 3",
        n_families == 14,
        "%d template families exact on their valid primes (%d checks) in %.2fs"
        % (n_families, n_valid, elapsed),
    )


def test_criterion_04_congruence_discovery_verdicts(records_by_family):
    """Mod-4 laws verified for the torsion family; rank-2 family never all-verified."""
    window = [r for r in records_by_family["1_0_0_t_0"] if 29 <= r.p <= 1223]
    fits = {f.residue: f for f in discover(window, e=2, f=0, g=0)}
    assert set(fits) == {1, 3}
    assert fits[1].status == VERIFIED and (fits[1].a, fits[1].b) == (Fraction(-3), Fraction(0))
    assert fits[3].status == VERIFIED and (fits[3].a, fits[3].b) == (Fraction(-1), Fraction(0))
    assert summarize(list(fits.values())) == ALL_VERIFIED

    rank2 = [r for r in records_by_family["1_t_-19_-t-1_0"] if 29 <= r.p <= 1223]
    verdict = summarize(discover(rank2, e=4, f=3, g=1))
    assert verdict in (SOME_FALSIFIED, INCONCLUSIVE)
    assert verdict != ALL_VERIFIED
    _gate(
        "criterion 4",
        True,
        "mod 4: class 1 = -3p, class 3 = -p (checked %d+%d primes); rank-2 mod 2160: %s"
        % (fits[1].n_checked, fits[3].n_checked, verdict),
    )


def test_criterion_05_second_moment_bias_blocks_negative(records_by_family):
    """(S2 - p^2)/p over the 300-prime window: every 50-block negative, grand mean in range."""
    series = residual_series(records_by_family["1_0_0_-1_t"], 2, exponent=1)
    assert len(series.points) == 300
    rep = block_stats(series, 50)
    assert len(rep.block_means) == 6
    assert all(m < 0 for m in rep.block_means)
    assert -2.6 <= rep.grand_mean <= -1.4
    assert rep.p_value == binomial_two_sided(0, 6) == 0.03125
    _gate(
        "criterion 5",
        True,
        "6/6 blocks negative, grand mean %.6f in [-2.6, -1.4], sign p = %.5f"
        % (rep.grand_mean, rep.p_value),
    )


def test_criterion_06_even_moment_envelopes_and_means(records_by_family):
    """|S4 - 2p^3|/p^{5/2} <= 25 and |S6 - 5p^4|/p^{7/2} <= 40 at p >= 101; means < 2."""
    worst = {4: 0.0, 6: 0.0}
    worst_mean = {4: 0.0, 6: 0.0}
    for name, recs in records_by_family.items():
        for r, cap in ((4, 25.0), (6, 40.0)):
            series = residual_series(recs, r)  # exponent e_r - 1/2
            tail = [abs(v) for p, v in series.points if p >= 101]
            assert max(tail) <= cap, (name, r, max(tail))
            worst[r] = max(worst[r], max(tail))
            mean = math.fsum(v for _, v in series.points) / len(series.points)
            assert abs(mean) < 2.0, (name, r, mean)
            worst_mean[r] = max(worst_mean[r], abs(mean))
    _gate(
        "criterion 6",
        True,
        "16 families: max |S4 res| %.2f <= 25, max |S6 res| %.2f <= 40; "
        "largest |window mean| %.3f (S4), %.3f (S6), all < 2"
        % (worst[4], worst[6], worst_mean[4], worst_mean[6]),
    )


def test_criterion_07_rank_estimates(records_by_family):
    """First-moment rank estimate: ~2 for the rank-2 template, exactly 0 for S1 = 0."""
    t3 = nagao_rank_estimate(records_by_family["0_0_0_-t2_t4"], 1987)
    assert 1.0 <= t3 <= 3.0
    flat = nagao_rank_estimate(records_by_family["1_0_0_-1_t"], 1987)
    assert flat == 0.0
    _gate("criterion 7", True, "rank-2 estimate %.6f in [1, 3]; S1 = 0 family gives exactly 0.0" % t3)


def test_criterion_08_odd_moment_means(records_by_family):
    """Odd-moment means: small for the rank-0 family, near -2 C_2 for the rank-2 one."""

    def mean_of(name, r):
        series = odd_coefficient_series(records_by_family[name], r)
        return math.fsum(v for _, v in series.points) / len(series.points)

    m3 = mean_of("1_0_0_-1_t", 3)
    m5 = mean_of("1_0_0_-1_t", 5)
    t3 = mean_of("0_0_0_-t2_t4", 3)
    assert abs(m3) < 0.5
    assert abs(m5) < 1.5
    assert -6.0 <= t3 <= -2.0
    _gate(
        "criterion 8",
        True,
        "rank-0 means S3/p^2 = %.4f (<0.5), S5/p^3 = %.4f (<1.5); rank-2 S3/p^2 = %.4f in [-6,-2]"
        % (m3, m5, t3),
    )


def test_criterion_09_catalan_binomial_blocksize(records_by_family):
    """Catalan values, the exact binomial example, block-size invariance of the mean."""
    assert (catalan(2), catalan(3), catalan(4)) == (2, 5, 14)
    pv = binomial_two_sided(63, 100)
    assert abs(pv - 0.012) < 0.002
    series = residual_series(records_by_family["1_1_-2_1_t"], 2, exponent=1)
    means = [block_stats(series, b).grand_mean for b in (1, 7, 50, 77, 300)]
    spread = max(means) - min(means)
    assert spread < 1e-12
    _gate(
        "criterion 9",
        True,
        "catalan (2,5,14); binomial(63,100) = %.6f within 0.002 of 0.012; "
        "grand-mean spread across block sizes %.1e < 1e-12" % (pv, spread),
    )


def test_criterion_10_determinism_and_pipeline(tmp_path, force_pool):
    """Worker-count and resume determinism, wide-integer CSV round trip, <60s pipeline."""
    corpus = {f.name: f for f in builtin_corpus()}
    five = [corpus[n] for n in
            ("1_0_0_-1_t", "1_0_0_t_0", "0_0_0_-t2_t4", "1_0_0_1_t", "1_t_-1_-t-1_0")]
    fam_path = tmp_path / "five.json"
    fam_path.write_text(family_file_text(five), encoding="utf-8")

    # byte-identical output for 1 and 8 workers
    texts = []
    for workers in (1, 8):
        cfg = RunConfig(families_path=str(fam_path), start=3, end=30, r_max=4,
                        out_dir=str(tmp_path / ("w%d" % workers)), workers=workers)
        path, _ = run_moments(cfg)
        texts.append(Path(path).read_bytes())
    assert texts[0] == texts[1]

    # resume after truncation reproduces the fresh bytes
    path = str(tmp_path / "w1" / "moments.csv")
    lines = texts[0].decode().splitlines(keepends=True)
    Path(path).write_text("".join(lines[:15]), encoding="utf-8")
    cfg = RunConfig(families_path=str(fam_path), start=3, end=30, r_max=4,
                    out_dir=str(tmp_path / "w1"), resume=True)
    run_moments(cfg)
    assert Path(path).read_bytes() == texts[0]

    # CSV round trip with a 128-bit seventh moment
    wide = [MomentRecord("wide", 3, 5, (1, 2, 3, 4, 5, 6, -(2**127 - 19)))]
    wide_path = tmp_path / "wide.csv"
    write_moments_csv(wide_path, wide, 7)
    assert read_moments_csv(wide_path) == (7, wide)

    # full CLI pipeline: moments for the first 100 primes, then the report
    t0 = time.perf_counter()
    out = str(tmp_path / "pipeline")
    assert main(["moments", "--families", str(fam_path), "--start", "3", "--end", "102",
                 "--rmax", "7", "--out", out]) == 0
    assert main(["report", "--families", str(fam_path), "--out", out]) == 0
    elapsed = time.perf_counter() - t0
    assert os.path.exists(os.path.join(out, "report.txt"))
    r_max, recs = read_moments_csv(os.path.join(out, "moments.csv"))
    assert r_max == 7 and len(recs) == 5 * 100
    _gate(
        "criterion 10",
        elapsed < 60.0,
        "workers/resume byte-identical; 2^127 S7 round trip; pipeline %.1fs < 60s" % elapsed,
    )
