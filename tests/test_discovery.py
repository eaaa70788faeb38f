"""Congruence-class discovery of affine laws for S_2(p) - p^2."""

import random
from fractions import Fraction

import pytest

from ecmoments import FormulaFit, discover, prime_index_of, sieve_primes, summarize
from ecmoments.discovery import (
    ALL_VERIFIED,
    FALSIFIED,
    INCONCLUSIVE,
    INSUFFICIENT,
    SOME_FALSIFIED,
    VERIFIED,
    FitPlan,
    fit_classes,
    fit_plan,
)
from ecmoments.traces import MomentRecord


def _rec(p, s2):
    return MomentRecord("syn", prime_index_of(p), p, (0, s2))


def _mod4_law(p):
    return p * p - 3 * p if p % 4 == 1 else p * p - p


PRIMES = [p for p in sieve_primes(50) if p >= 5]  # 5 .. 229


def test_discover_exact_mod4_law():
    recs = [_rec(p, _mod4_law(p)) for p in PRIMES]
    fits = discover(recs, e=2, f=0, g=0)
    assert [f.residue for f in fits] == [1, 3]
    for fit, slope in zip(fits, (-3, -1)):
        assert fit.status == VERIFIED
        assert (fit.a, fit.b) == (Fraction(slope), Fraction(0))
        assert fit.modulus == 4
        assert fit.first_failure is None
        n_class = sum(1 for p in PRIMES if p % 4 == fit.residue)
        assert fit.n_checked == n_class - 3  # first skipped, two consumed by the fit
    assert summarize(fits) == ALL_VERIFIED


def test_discover_flags_corrupted_record():
    bad_p = max(p for p in PRIMES if p % 4 == 1)
    recs = [_rec(p, _mod4_law(p) + (1 if p == bad_p else 0)) for p in PRIMES]
    fits = {f.residue: f for f in discover(recs, e=2, f=0, g=0)}
    assert fits[1].status == FALSIFIED
    assert fits[1].first_failure == bad_p
    assert fits[3].status == VERIFIED
    assert summarize(list(fits.values())) == SOME_FALSIFIED


def test_discover_skips_each_class_first_prime():
    # p = 5 is class 1's first prime; corrupting it must not matter
    recs = [_rec(p, _mod4_law(p) + (99 if p == 5 else 0)) for p in PRIMES]
    fits = {f.residue: f for f in discover(recs, e=2, f=0, g=0)}
    assert fits[1].status == VERIFIED
    assert (fits[1].a, fits[1].b) == (Fraction(-3), Fraction(0))


def test_discover_insufficient_primes():
    recs = [_rec(p, _mod4_law(p)) for p in (5, 13, 17)]
    (fit,) = discover(recs, e=2, f=0, g=0)
    assert fit == FormulaFit(1, 4, None, None, INSUFFICIENT, 0, None)
    assert summarize([fit]) == INCONCLUSIVE


def test_discover_robust_mode_drops_leading_primes():
    # p = 13 lands in the default fit pair for class 1, so a corruption there
    # falsifies the class; robust mode discards the first ten primes instead
    recs = [_rec(p, _mod4_law(p) + (7 if p == 13 else 0)) for p in PRIMES]
    plain = {f.residue: f for f in discover(recs, e=2, f=0, g=0)}
    assert plain[1].status == FALSIFIED
    robust = {f.residue: f for f in discover(recs, e=2, f=0, g=0, robust=True, floor=10)}
    assert robust[1].status == VERIFIED
    assert (robust[1].a, robust[1].b) == (Fraction(-3), Fraction(0))
    survivors = [p for p in PRIMES[10:] if p % 4 == 1]
    assert robust[1].n_checked == len(survivors) - 2  # no skip, two consumed by the fit


def test_discover_rational_coefficients():
    # S2 - p^2 = (p + 3)/2 is integral at odd p but has fractional slope
    recs = [_rec(p, p * p + (p + 3) // 2) for p in PRIMES]
    (fit,) = discover(recs, e=0, f=0, g=0)
    assert (fit.residue, fit.modulus) == (0, 1)
    assert fit.status == VERIFIED
    assert (fit.a, fit.b) == (Fraction(1, 2), Fraction(3, 2))


def test_discover_validation():
    recs = [_rec(p, _mod4_law(p)) for p in PRIMES]
    for e, f, g in ((5, 0, 0), (0, 4, 0), (0, 0, 2), (-1, 0, 0)):
        with pytest.raises(ValueError):
            discover(recs, e=e, f=f, g=g)
    with pytest.raises(ValueError):
        discover(recs, floor=-1)
    thin = [MomentRecord("syn", prime_index_of(5), 5, (0,))]
    with pytest.raises(ValueError):
        discover(thin)


def test_discover_order_independence():
    recs = [_rec(p, _mod4_law(p)) for p in PRIMES]
    shuffled = recs[:]
    random.Random(4).shuffle(shuffled)
    assert discover(shuffled, e=2, f=0, g=0) == discover(recs, e=2, f=0, g=0)


def test_fit_plan_reads_what_the_fits_read():
    primes = sieve_primes(16)[2:]  # 5 .. 53
    # mod 4: class 1 is 5 13 17 29 37 41 53, class 3 is 7 11 19 23 31 43 47
    assert fit_plan(primes, e=2, f=0, g=0) == FitPlan(4, [
        (1, [13, 17, 29, 37, 41, 53]), (3, [11, 19, 23, 31, 43, 47])])
    # mod 8: class 5 holds 5 13 29 37 53; 1 (17 41), 3 (11 19 43) and 7 (7 23 31 47) read none
    assert fit_plan(primes, e=3, f=0, g=0) == FitPlan(8, [
        (1, []), (3, []), (5, [13, 29, 37, 53]), (7, [23, 31, 47])])
    # robust: drop 5 7 11 13, then read every survivor of a class with 4 or more
    assert fit_plan(primes, e=2, f=0, g=0, robust=True, floor=4) == FitPlan(4, [
        (1, [17, 29, 37, 41, 53]), (3, [19, 23, 31, 43, 47])])
    assert fit_plan(primes, e=2, f=0, g=0, robust=True, floor=len(primes)) == FitPlan(4, [])
    assert fit_plan(primes, e=3, f=0, g=0).read_primes() == [13, 23, 29, 31, 37, 47, 53]
    assert fit_plan(primes[::-1], e=2, f=0, g=0) == fit_plan(primes, e=2, f=0, g=0)


def test_fit_plan_rejects_a_negative_floor_before_slicing():
    # primes[-1:] would keep the last prime alone
    for robust in (False, True):
        with pytest.raises(ValueError, match="floor must be nonnegative, got -1"):
            fit_plan([5, 7, 11, 13, 17], robust=robust, floor=-1)
    with pytest.raises(ValueError, match="modulus exponents out of range"):
        fit_plan([5, 7, 11, 13, 17], e=5)


def test_fit_classes_reads_only_the_planned_records():
    recs = {p: _rec(p, _mod4_law(p)) for p in PRIMES}
    for robust in (False, True):
        plan = fit_plan(PRIMES, e=2, f=0, g=0, robust=robust)
        read = {p: recs[p] for p in plan.read_primes()}
        assert len(read) < len(recs)
        assert fit_classes(plan, read) == discover(list(recs.values()), e=2, f=0, g=0,
                                                   robust=robust)


def test_summarize_combinations():
    def fit(status):
        return FormulaFit(0, 1, None, None, status, 0, None)

    assert summarize([fit(VERIFIED)]) == ALL_VERIFIED
    assert summarize([fit(VERIFIED), fit(INSUFFICIENT)]) == ALL_VERIFIED
    assert summarize([fit(INSUFFICIENT)]) == INCONCLUSIVE
    assert summarize([]) == INCONCLUSIVE
    assert summarize([fit(VERIFIED), fit(FALSIFIED)]) == SOME_FALSIFIED
    assert summarize([fit(FALSIFIED), fit(INSUFFICIENT)]) == SOME_FALSIFIED


def test_discover_on_engine_records(records_by_family):
    recs = [r for r in records_by_family["1_0_0_t_0"] if r.p >= 29]
    fits = {f.residue: f for f in discover(recs, e=2, f=0, g=0)}
    assert (fits[1].a, fits[1].b) == (Fraction(-3), Fraction(0))
    assert (fits[3].a, fits[3].b) == (Fraction(-1), Fraction(0))
    assert summarize(list(fits.values())) == ALL_VERIFIED
