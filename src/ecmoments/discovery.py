"""Per-congruence-class affine fits of second-moment residuals S_2(p) - p^2."""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .families import MomentRecord

VERIFIED = "Verified"
FALSIFIED = "Falsified"
INSUFFICIENT = "InsufficientPrimes"

ALL_VERIFIED = "AllClassesVerified"
SOME_FALSIFIED = "SomeFalsified"
INCONCLUSIVE = "Inconclusive"

# the largest exponents e, f, g of the modulus 2^e 3^f 5^g; the default modulus takes all three
MAX_EXPONENTS = (4, 3, 1)
ROBUST_FLOOR = 10  # primes robust mode drops when no floor is given


def exponents_in_range(e: int, f: int, g: int) -> bool:
    return all(0 <= x <= top for x, top in zip((e, f, g), MAX_EXPONENTS))


class FormulaFit(NamedTuple):
    residue: int
    modulus: int
    a: Fraction | None
    b: Fraction | None
    status: str
    n_checked: int
    first_failure: int | None


class FitPlan(NamedTuple):
    modulus: int
    classes: list[tuple[int, list[int]]]  # (residue, the primes its fit reads), ascending residue

    def read_primes(self) -> list[int]:
        """Every prime some class's fit reads, ascending."""
        return sorted({p for _, read in self.classes for p in read})


def fit_plan(
    primes: list[int], e: int = MAX_EXPONENTS[0], f: int = MAX_EXPONENTS[1],
    g: int = MAX_EXPONENTS[2], robust: bool = False, floor: int = ROBUST_FLOOR
) -> FitPlan:
    """The congruence classes mod 2^e 3^f 5^g of `primes` and the primes each class's fit reads.

    A class with fewer than 4 primes reads none (InsufficientPrimes). The
    default procedure leaves each class's first prime out; robust mode first
    drops the first `floor` primes of the whole run and keeps every survivor.
    The fit solves its law from the first two primes read and checks the rest.
    """
    if not exponents_in_range(e, f, g):
        raise ValueError("modulus exponents out of range: e=%r f=%r g=%r" % (e, f, g))
    if floor < 0:  # checked before slicing: primes[-1:] would keep the last prime
        raise ValueError("floor must be nonnegative, got %r" % (floor,))
    modulus = 2 ** e * 3 ** f * 5 ** g
    primes = sorted(primes)
    if robust:
        primes = primes[floor:]
    groups: dict[int, list[int]] = {}
    for p in primes:
        groups.setdefault(p % modulus, []).append(p)
    classes = []
    for res in sorted(groups):
        read = groups[res]
        if len(read) < 4:
            read = []
        elif not robust:
            read = read[1:]
        classes.append((res, read))
    return FitPlan(modulus, classes)


def fit_classes(plan: FitPlan, records: dict[int, MomentRecord]) -> list[FormulaFit]:
    """Each class's fit of S_2(p) - p^2 = a p + b, reading records[p] for the primes it reads."""
    return [_fit_class([records[p] for p in read], residue, plan.modulus)
            for residue, read in plan.classes]


def _fit_class(recs: list[MomentRecord], residue: int, modulus: int) -> FormulaFit:
    if not recs:
        return FormulaFit(residue, modulus, None, None, INSUFFICIENT, 0, None)
    r1, r2 = recs[0], recs[1]
    y1 = Fraction(r1.sums[1] - r1.p ** 2)
    y2 = Fraction(r2.sums[1] - r2.p ** 2)
    a = (y2 - y1) / (r2.p - r1.p)
    b = y1 - a * r1.p
    status, first_failure, checked = VERIFIED, None, 0
    for rec in recs[2:]:
        checked += 1
        if a * rec.p + b != rec.sums[1] - rec.p ** 2:
            status, first_failure = FALSIFIED, rec.p
            break
    return FormulaFit(residue, modulus, a, b, status, checked, first_failure)


def discover(
    records: list[MomentRecord], e: int = MAX_EXPONENTS[0], f: int = MAX_EXPONENTS[1],
    g: int = MAX_EXPONENTS[2], robust: bool = False, floor: int = ROBUST_FLOOR
) -> list[FormulaFit]:
    """Fit S_2(p) - p^2 = a p + b inside each congruence class mod 2^e 3^f 5^g.

    Each class's fit reads the primes `fit_plan` gives it, solves the 2x2
    system from the first two and checks the rest exactly. Robust mode's
    `floor` guards the fit pairs against primes below a closed form's
    validity range.
    """
    plan = fit_plan([rec.p for rec in records], e, f, g, robust, floor)
    by_p = {}
    for rec in sorted(records, key=lambda r: r.p):
        if rec.r_max < 2:
            raise ValueError("record for p=%d lacks S_2" % (rec.p,))
        by_p[rec.p] = rec
    return fit_classes(plan, by_p)


def summarize(fits: list[FormulaFit]) -> str:
    """AllClassesVerified / SomeFalsified / Inconclusive over the class fits."""
    statuses = {fit.status for fit in fits}
    if FALSIFIED in statuses:
        return SOME_FALSIFIED
    if VERIFIED in statuses:
        return ALL_VERIFIED
    return INCONCLUSIVE
