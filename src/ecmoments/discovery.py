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


class FormulaFit(NamedTuple):
    residue: int
    modulus: int
    a: Fraction | None
    b: Fraction | None
    status: str
    n_checked: int
    first_failure: int | None


def _fit_class(recs: list[MomentRecord], residue: int, modulus: int, skip_first: bool) -> FormulaFit:
    if len(recs) < 4:
        return FormulaFit(residue, modulus, None, None, INSUFFICIENT, 0, None)
    lo = 1 if skip_first else 0  # the class's first prime is left out of the fit entirely
    r1, r2 = recs[lo], recs[lo + 1]
    y1 = Fraction(r1.sums[1] - r1.p ** 2)
    y2 = Fraction(r2.sums[1] - r2.p ** 2)
    a = (y2 - y1) / (r2.p - r1.p)
    b = y1 - a * r1.p
    status, first_failure, checked = VERIFIED, None, 0
    for rec in recs[lo + 2 :]:
        checked += 1
        if a * rec.p + b != rec.sums[1] - rec.p ** 2:
            status, first_failure = FALSIFIED, rec.p
            break
    return FormulaFit(residue, modulus, a, b, status, checked, first_failure)


def discover(
    records: list[MomentRecord],
    e: int = 4,
    f: int = 3,
    g: int = 1,
    robust: bool = False,
    floor: int = 10,
) -> list[FormulaFit]:
    """Fit S_2(p) - p^2 = a p + b inside each congruence class mod 2^e 3^f 5^g.

    Classes with fewer than 4 primes are InsufficientPrimes. The default
    procedure ignores each class's first prime and solves the 2x2 system from
    the next two, then checks the rest exactly. Robust mode instead drops the
    first `floor` primes of the whole run (guarding against fit pairs below a
    closed form's validity range), fits from the first two survivors of each
    class, and checks all the others.
    """
    if not (0 <= e <= 4 and 0 <= f <= 3 and 0 <= g <= 1):
        raise ValueError("modulus exponents out of range: e=%r f=%r g=%r" % (e, f, g))
    if floor < 0:
        raise ValueError("floor must be nonnegative, got %r" % (floor,))
    modulus = 2 ** e * 3 ** f * 5 ** g
    recs = sorted(records, key=lambda r: r.p)
    for rec in recs:
        if rec.r_max < 2:
            raise ValueError("record for p=%d lacks S_2" % (rec.p,))
    if robust:
        recs = recs[floor:]
    groups: dict[int, list[MomentRecord]] = {}
    for rec in recs:
        groups.setdefault(rec.p % modulus, []).append(rec)
    return [
        _fit_class(groups[res], res, modulus, skip_first=not robust) for res in sorted(groups)
    ]


def summarize(fits: list[FormulaFit]) -> str:
    """AllClassesVerified / SomeFalsified / Inconclusive over the class fits."""
    statuses = {fit.status for fit in fits}
    if FALSIFIED in statuses:
        return SOME_FALSIFIED
    if VERIFIED in statuses:
        return ALL_VERIFIED
    return INCONCLUSIVE
