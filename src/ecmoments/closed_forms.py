"""Closed-form first and second moment sums for the template families."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .families import CurveFamily, Template1, Template2, Template3, match_template
from .modular import _check_odd_prime_modulus, cached_legendre_table, legendre_symbol
from .traces import MomentRecord


class NoTemplateError(ValueError):
    """Raised when a family matches none of the closed-form templates."""


@dataclass(frozen=True)
class ClosedFormPrediction:
    p: int
    valid: bool  # the lemma's range; outside it the formulas are not asserted
    S1: int
    S2: int


def template1_predict(a: int, b: int, d: int, p: int) -> ClosedFormPrediction:
    """Moments of y^2 = 4x^3 + a x^2 + b x + c + d t; exact for p > max(3, 4|d|).

    S1 = 0 and S2 = p^2 - p - p chi(-48) - p chi(a^2 - 12b), except that a
    degenerate a^2 = 12b (mod p) turns the last term into +p(p-1) chi(-48).
    """
    if d == 0:
        raise ValueError("template requires d != 0")
    _check_odd_prime_modulus(p)
    disc = a * a - 12 * b
    # The degenerate branch is governed by p | (a^2 - 12b), not by integer
    # vanishing: the inner quadratic character sum has discriminant 256 disc.
    if disc % p != 0:
        s2 = p * p - p - p * legendre_symbol(-48, p) - p * legendre_symbol(disc, p)
    else:
        s2 = p * p - p + p * (p - 1) * legendre_symbol(-48, p)
    return ClosedFormPrediction(p, p > max(3, 4 * abs(d)), 0, s2)


def template2_predict(m: int, n: int, p: int) -> ClosedFormPrediction:
    """Moments of y^2 = 4x^3 + (4m+1) x^2 + n t x; exact for p > max(3, 4|m|, 4|n|).

    S1 = 0 and S2 = p^2 - 3p for p = 1 mod 4, p^2 - p for p = 3 mod 4.
    """
    if n == 0:
        raise ValueError("template requires n != 0")
    _check_odd_prime_modulus(p)
    s2 = p * p - 3 * p if p % 4 == 1 else p * p - p
    # p | (4m+1) breaks the formula outright (checked by direct summation),
    # so such primes sit outside the asserted range.
    valid = p > max(3, 4 * abs(m), 4 * abs(n)) and (4 * m + 1) % p != 0
    return ClosedFormPrediction(p, valid, 0, s2)


def cubic_char_sum(p: int) -> int:
    """sum over x mod p of chi(x^3 - x), by direct summation.

    Vanishes whenever p = 3 mod 4 (the summand is odd under x -> -x there).
    """
    _check_odd_prime_modulus(p)
    x = np.arange(p, dtype=np.int64)
    return int(cached_legendre_table(p).chi[(x * x % p * x - x) % p].sum(dtype=np.int64))


def template3_predict(p: int) -> ClosedFormPrediction:
    """Moments of y^2 = x^3 - t^2 x + t^4, exact for every prime p > 3.

    S1 = -2p and S2 = p^2 - p - p chi(-3) - p chi(12) - (sum chi(x^3 - x))^2.
    """
    if p <= 3:
        raise ValueError("closed form needs p > 3, got %r" % (p,))
    _check_odd_prime_modulus(p)
    square = cubic_char_sum(p)
    s2 = p * p - p - p * legendre_symbol(-3, p) - p * legendre_symbol(12, p) - square * square
    return ClosedFormPrediction(p, True, -2 * p, s2)


def predict(template, p: int) -> ClosedFormPrediction:
    """Dispatch a matched template to its closed form."""
    if isinstance(template, Template1):
        return template1_predict(template.a, template.b, template.d, p)
    if isinstance(template, Template2):
        return template2_predict(template.m, template.n, p)
    if isinstance(template, Template3):
        return template3_predict(p)
    raise NoTemplateError("no closed form for %r" % (template,))


@dataclass(frozen=True)
class VerifyEntry:
    p: int
    valid: bool
    predicted_S1: int
    predicted_S2: int
    actual_S1: int
    actual_S2: int

    @property
    def ok(self) -> bool:
        """Exact agreement; primes outside the lemma's range pass vacuously."""
        if not self.valid:
            return True
        return self.predicted_S1 == self.actual_S1 and self.predicted_S2 == self.actual_S2


@dataclass(frozen=True)
class VerifyReport:
    family: str
    template: object
    entries: tuple[VerifyEntry, ...]

    @property
    def mismatches(self) -> tuple[VerifyEntry, ...]:
        return tuple(e for e in self.entries if not e.ok)

    @property
    def all_ok(self) -> bool:
        return not self.mismatches

    @property
    def n_valid(self) -> int:
        return sum(1 for e in self.entries if e.valid)


def verify_family(fam: CurveFamily, records: list[MomentRecord]) -> VerifyReport:
    """Compare computed S1/S2 against the family's closed form at every record."""
    template = match_template(fam)
    if template is None:
        raise NoTemplateError("family %r matches no template" % (fam.name,))
    entries = []
    for rec in sorted(records, key=lambda r: r.p):
        pred = predict(template, rec.p)
        entries.append(
            VerifyEntry(rec.p, pred.valid, pred.S1, pred.S2, rec.S[1], rec.S[2])
        )
    return VerifyReport(fam.name, template, tuple(entries))
