"""Checks of the CLI's outputs against the benchmark's own computations.

Each function returns a list of problems; an empty list is a passed check.
None of them reads ecmoments: the CSV is parsed here, closed forms and
point counts come from reference.py, and the report, verify and discover
verdicts are rederived from the CSV.
"""

from __future__ import annotations

import csv
import math
import re
from fractions import Fraction

from reference import brute_force_row, closed_form, template

EVEN_MAIN = {2: (1, 2), 4: (2, 3), 6: (5, 4)}  # r -> (M, e): S_r ~ M p^e


def read_csv(path) -> dict:
    """family -> [(p, (S1..Srmax)), ...] in file order."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    out: dict = {}
    for row in rows[1:]:
        out.setdefault(row[0], []).append((int(row[2]), tuple(int(v) for v in row[3:])))
    return out


def csv_shape(rows: dict, families, primes) -> list[str]:
    got = [(f, [p for p, _ in rows.get(f, [])]) for f, _ in families]
    want = [(f, list(primes)) for f, _ in families]
    return [] if got == want and len(rows) == len(families) else ["CSV rows do not cover the window"]


def closed_forms(rows: dict, families) -> list[str]:
    bad = []
    for name, a in families:
        tpl = template(a)
        if tpl is None:
            continue
        for p, sums in rows[name]:
            valid, s1, s2 = closed_form(tpl, p)
            if valid and (sums[0], sums[1]) != (s1, s2):
                bad.append("%s p=%d: CSV S1,S2=%d,%d, closed form %d,%d"
                           % (name, p, sums[0], sums[1], s1, s2))
    return bad


def brute_force(rows: dict, a: dict, name: str, p: int) -> tuple[list[str], list[str]]:
    """(row problems, Hasse problems) for one (family, prime) row."""
    want = dict(rows[name])[p]
    sums, hasse = brute_force_row(a, p, len(want))
    row = [] if sums == want else ["%s p=%d: CSV %s, point count %s" % (name, p, want, sums)]
    return row, ["%s p=%d: %d nonsingular fibers break |a_t| <= 2 sqrt p" % (name, p, hasse)] if hasse else []


_FAMILY = re.compile(r"^== family (\S+) \(expected rank [^)]*\) ==$")
_EVEN = re.compile(r"^S(\d) residual ")
_BLOCK = re.compile(r"^  blocks of \d+: .* grand mean (\S+), sign test")
_ODD = re.compile(r"^S(\d) / p\^\d+: mean (\S+)$")


def report_means(text: str, rows: dict) -> list[str]:
    """Every grand mean and odd-moment mean in report.txt, recomputed from the CSV."""
    bad, seen, fam, r = [], set(), None, None
    for line in text.splitlines():
        if m := _FAMILY.match(line):
            fam = m.group(1)
            seen.add(fam)
            continue
        if m := _EVEN.match(line):
            r = int(m.group(1))
            continue
        m_even, m_odd = _BLOCK.match(line), _ODD.match(line)
        if not (m_even or m_odd) or fam not in rows:
            continue
        if m_even:
            mult, e = EVEN_MAIN[r]
            vals = [(s[r - 1] - mult * p ** e) / (p ** (e - 1) * math.sqrt(p)) for p, s in rows[fam]]
            got = float(m_even.group(1))
        else:
            r = int(m_odd.group(1))
            vals = [s[r - 1] / p ** ((r + 1) // 2) for p, s in rows[fam]]
            got = float(m_odd.group(2))
        want = math.fsum(vals) / len(vals)
        if abs(want - got) > 1e-6:
            bad.append("%s S%d: report %r, CSV %.9f" % (fam, r, got, want))
    if seen != set(rows):
        bad.append("report families differ from the CSV")
    return bad


def verify_output(text: str, code: int, rows: dict, families) -> list[str]:
    want = []
    for name, a in families:
        tpl = template(a)
        if tpl is None:
            want.append("family %s: no template, skipped" % (name,))
        else:
            n_valid = sum(1 for p, _ in rows[name] if closed_form(tpl, p)[0])
            want.append("family %s: OK, %d primes exact (%d in the valid range)"
                        % (name, len(rows[name]), n_valid))
    got = text.splitlines()
    return [] if code == 0 and got == want else ["verify exit %d, output differs from the closed forms" % code]


def _fit(cls):
    """The discover law for one congruence class: status line as the CLI prints it."""
    if len(cls) < 4:
        return "insufficient primes", False, False
    (p1, y1), (p2, y2) = cls[1], cls[2]
    a = Fraction(y2 - y1, p2 - p1)
    b = y1 - a * p1
    for p, y in cls[3:]:
        if a * p + b != y:
            return "falsified at p=%d (fit was (%s) p + (%s))" % (p, a, b), False, True
    return "S2 - p^2 = (%s) p + (%s), verified on %d primes" % (a, b, len(cls) - 3), True, False


def discover_output(text: str, code: int, rows: dict, families, modulus: int) -> list[str]:
    """Rederive every class law from the CSV's S2; exit 2 exactly when a class is falsified."""
    want, any_falsified = [], False
    for name, _ in families:
        classes: dict = {}
        for p, s in sorted(rows[name]):
            classes.setdefault(p % modulus, []).append((p, s[1] - p * p))
        lines, verified, falsified = [], False, False
        for res in sorted(classes):
            line, ok, bad = _fit(classes[res])
            lines.append("  class %d: %s" % (res, line))
            verified, falsified = verified or ok, falsified or bad
        verdict = "SomeFalsified" if falsified else "AllClassesVerified" if verified else "Inconclusive"
        want.append("family %s: %s (mod %d)" % (name, verdict, modulus))
        want.extend(lines)
        any_falsified = any_falsified or falsified
    ok = text.splitlines() == want and code == (2 if any_falsified else 0)
    return [] if ok else ["discover exit %d, output differs from the laws in the CSV" % code]
