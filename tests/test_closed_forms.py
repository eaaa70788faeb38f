"""Closed-form S1/S2 predictions checked against direct character sums."""

import math

import pytest

from ecmoments import (
    ClosedFormPrediction,
    NoTemplateError,
    Template1,
    Template2,
    Template3,
    corpus_family,
    cubic_char_sum,
    legendre_symbol,
    predict,
    sieve_primes,
    template1_predict,
    template2_predict,
    template3_predict,
    verify_family,
)
from ecmoments.closed_forms import VerifyEntry
from ecmoments.traces import MomentRecord


def _odd_primes_upto(n):
    return [p for p in sieve_primes(60) if 2 < p <= n]


def _brute_template1(a, b, c, d, p):
    s1 = s2 = 0
    for t in range(p):
        v = sum(
            legendre_symbol(4 * x**3 + a * x * x + b * x + c + d * t, p)
            for x in range(p)
        )
        s1 -= v
        s2 += v * v
    return s1, s2


def _brute_template2(m, n, p):
    s1 = s2 = 0
    for t in range(p):
        v = sum(legendre_symbol(4 * x**3 + (4 * m + 1) * x * x + n * t * x, p) for x in range(p))
        s1 -= v
        s2 += v * v
    return s1, s2


def _brute_template3(p):
    s1 = s2 = 0
    for t in range(p):
        v = sum(legendre_symbol(x**3 - t * t * x + t**4, p) for x in range(p))
        s1 -= v
        s2 += v * v
    return s1, s2


# ------------------------------------------------------------------ template 1


def test_template1_examples():
    got = template1_predict(1, -4, 4, 29)
    assert got == ClosedFormPrediction(29, True, 0, 812)
    # a^2 = 12b exactly: the degenerate branch
    assert template1_predict(6, 3, 1, 7).S2 == 84
    assert template1_predict(1, -4, 4, 13).valid is False
    with pytest.raises(ValueError):
        template1_predict(1, -4, 0, 29)
    for p in (16, 9, 21):
        with pytest.raises(ValueError):
            template1_predict(1, -4, 4, p)


def test_template1_degenerate_mod_p_only():
    # disc = -47 and 60: nonzero integers that vanish mod the prime in play
    assert template1_predict(1, 4, 4, 47).S2 == 0
    assert template1_predict(0, -5, 1, 5).S2 == 0
    assert _brute_template1(1, 4, 0, 4, 47) == (0, 0)
    assert _brute_template1(0, -5, 0, 1, 5) == (0, 0)


def test_template1_square_disc_shortcut():
    # disc = 49 is a nonzero square mod every p != 7, so chi(disc) = 1 and
    # S2 collapses to p^2 - 2p - p chi(-48)
    for p in (5, 11, 13, 17, 19, 23, 29):
        got = template1_predict(1, -4, 4, p).S2
        assert got == p * p - 2 * p - p * legendre_symbol(-48, p)


def test_template1_against_brute_force():
    cases = [(1, -4, 0, 4), (6, 3, 0, 1), (0, 1, 2, 1), (2, -1, -3, 2), (1, 4, 5, 1)]
    for a, b, c, d in cases:
        for p in _odd_primes_upto(37):
            pred = template1_predict(a, b, d, p)
            if not pred.valid:
                continue
            assert (pred.S1, pred.S2) == _brute_template1(a, b, c, d, p), (a, b, c, d, p)


def test_template1_independent_of_constant_term():
    # c only shifts which t hits which fiber; the moments cannot see it
    for c in (-9, 0, 13):
        assert _brute_template1(2, -1, c, 2, 17) == (0, template1_predict(2, -1, 2, 17).S2)


# ------------------------------------------------------------------ template 2


def test_template2_examples():
    assert template2_predict(0, 4, 17) == ClosedFormPrediction(17, True, 0, 238)
    assert template2_predict(0, 4, 19) == ClosedFormPrediction(19, True, 0, 342)
    assert template2_predict(0, 4, 13).valid is False
    with pytest.raises(ValueError):
        template2_predict(0, 0, 17)
    for p in (8, 9, 21):
        with pytest.raises(ValueError):
            template2_predict(0, 4, p)


def test_template2_divisor_of_leading_coefficient_is_excluded():
    # p = 4m+1 itself: the true S2 differs from the formula, so the
    # prediction must not claim validity there
    assert template2_predict(1, 1, 5).valid is False
    assert _brute_template2(1, 1, 5) != (0, template2_predict(1, 1, 5).S2)
    assert _brute_template2(3, 1, 13)[1] != template2_predict(3, 1, 13).S2


def test_template2_against_brute_force():
    for m, n in [(0, 4), (0, 1), (1, 1), (-1, 2), (2, -1)]:
        for p in _odd_primes_upto(41):
            pred = template2_predict(m, n, p)
            if not pred.valid:
                continue
            assert (pred.S1, pred.S2) == _brute_template2(m, n, p), (m, n, p)


def test_template2_depends_only_on_p_mod_4():
    for p in _odd_primes_upto(97):
        want = p * p - 3 * p if p % 4 == 1 else p * p - p
        for m, n in [(0, 4), (5, -3)]:
            assert template2_predict(m, n, p).S2 == want


# ------------------------------------------------------------------ template 3


def test_cubic_char_sum_values():
    assert cubic_char_sum(5) == 2
    assert cubic_char_sum(13) == -6
    for p in _odd_primes_upto(199):
        if p % 4 == 3:
            assert cubic_char_sum(p) == 0
    with pytest.raises(ValueError):
        cubic_char_sum(2)


def test_cubic_char_sum_matches_literal_definition():
    for p in _odd_primes_upto(97):
        want = sum(legendre_symbol(x**3 - x, p) for x in range(p))
        assert cubic_char_sum(p) == want


def test_cubic_char_sum_two_squares_identity():
    # for p = 1 mod 4 the sum is twice the odd part of a two-squares
    # decomposition: p - (s/2)^2 must itself be a perfect square
    for p in _odd_primes_upto(199):
        if p % 4 != 1:
            continue
        s = cubic_char_sum(p)
        assert s % 2 == 0 and s != 0
        rest = p - (s // 2) ** 2
        assert math.isqrt(rest) ** 2 == rest, p


def test_template3_examples():
    assert template3_predict(7) == ClosedFormPrediction(7, True, -14, 42)
    assert template3_predict(5) == ClosedFormPrediction(5, True, -10, 26)
    assert template3_predict(13).S2 == 94
    for p in (2, 3):
        with pytest.raises(ValueError):
            template3_predict(p)


def test_template3_against_brute_force():
    for p in _odd_primes_upto(61):
        if p == 3:
            continue  # the closed form starts at p = 5
        pred = template3_predict(p)
        assert (pred.S1, pred.S2) == _brute_template3(p), p


# ------------------------------------------------------------ dispatch, verify


def test_predict_dispatch():
    assert predict(Template1(1, -4, 0, 4), 29).S2 == 812
    assert predict(Template2(0, 4), 17) == template2_predict(0, 4, 17)
    assert predict(Template3(), 7).S1 == -14
    for junk in (None, "cubic", 42):
        with pytest.raises(NoTemplateError):
            predict(junk, 7)


def test_chi_minus48_equals_chi_minus3():
    # -48 = -3 * 16, so the two characters agree away from p = 2, 3
    for p in _odd_primes_upto(199):
        if p > 3:
            assert legendre_symbol(-48, p) == legendre_symbol(-3, p)


def test_verify_family_on_corpus(records_by_family, corpus_families):
    by_name = {f.name: f for f in corpus_families}
    fam = by_name["1_0_0_-1_t"]
    recs = [r for r in records_by_family["1_0_0_-1_t"] if r.p <= 199]
    report = verify_family(fam, recs)
    assert report.all_ok
    assert report.template == Template1(1, -4, 0, 4)
    # d = 4 means the lemma starts at p = 17; smaller primes pass vacuously
    assert report.n_valid == sum(1 for r in recs if r.p > 16)
    t3 = verify_family(by_name["0_0_0_-t2_t4"], [r for r in records_by_family["0_0_0_-t2_t4"] if r.p <= 199])
    assert t3.all_ok and t3.n_valid == len(t3.entries)


def test_verify_family_flags_forged_records(records_by_family, corpus_families):
    by_name = {f.name: f for f in corpus_families}
    fam = by_name["1_0_0_-1_t"]
    recs = [r for r in records_by_family["1_0_0_-1_t"] if r.p <= 61]
    forged = []
    for r in recs:
        if r.p == 53:  # valid range: corrupt S2 and expect a flagged mismatch
            forged.append(MomentRecord(r.family, r.prime_index, r.p, (r.sums[0], r.sums[1] + 1) + r.sums[2:]))
        else:
            forged.append(r)
    report = verify_family(fam, forged)
    assert not report.all_ok
    assert [e.p for e in report.mismatches] == [53]
    # the same corruption below the validity threshold passes vacuously
    vacuous = [
        MomentRecord(r.family, r.prime_index, r.p, (r.sums[0], r.sums[1] + 7) + r.sums[2:])
        if r.p == 5
        else r
        for r in recs
    ]
    assert verify_family(fam, vacuous).all_ok


def test_verify_family_requires_a_template(records_by_family, corpus_families):
    by_name = {f.name: f for f in corpus_families}
    with pytest.raises(NoTemplateError):
        verify_family(by_name["1_t_-19_-t-1_0"], records_by_family["1_t_-19_-t-1_0"][:3])


def test_verify_entry_vacuous_semantics():
    bad = VerifyEntry(5, False, 0, 10, 0, 99)
    assert bad.ok
    good = VerifyEntry(17, True, 0, 238, 0, 238)
    assert good.ok
    assert not VerifyEntry(17, True, 0, 238, 0, 239).ok


def test_verify_family_matches_engine_moments(corpus_families, records_by_family):
    # closed forms against the real engine for the other template shapes
    by_name = {f.name: f for f in corpus_families}
    for name in ("1_0_0_t_0", "1_-2_0_t_0", "0_1_1_1_t", "1_1_-3_1_t"):
        recs = [r for r in records_by_family[name] if r.p <= 199]
        report = verify_family(by_name[name], recs)
        assert report.all_ok, name
        assert report.n_valid > 0
