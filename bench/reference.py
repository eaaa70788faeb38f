"""Independent arithmetic for the benchmark's correctness checks.

Nothing here imports ecmoments: polynomials are plain tuples of ints
(ascending powers of t), the quadratic character comes from Euler's
criterion or a table of squares, and point counts come from counting
solutions of the general Weierstrass equation directly.
"""

from __future__ import annotations

import math

KEYS = ("a1", "a2", "a3", "a4", "a6")


def trim(c) -> tuple[int, ...]:
    c = [int(v) for v in c]
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def padd(*ps) -> tuple[int, ...]:
    n = max((len(p) for p in ps), default=0)
    return trim(sum(p[k] for p in ps if k < len(p)) for k in range(n))


def pmul(p, q) -> tuple[int, ...]:
    if not p or not q:
        return ()
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return trim(out)


def pscale(k: int, p) -> tuple[int, ...]:
    return trim(k * c for c in p)


def peval_mod(p, t: int, m: int) -> int:
    acc = 0
    for c in reversed(p):
        acc = (acc * t + c) % m
    return acc


def invariants(a: dict) -> dict:
    """b2, b4, b6, c4, c6 of y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6."""
    a1, a2, a3, a4, a6 = (a[k] for k in KEYS)
    b2 = padd(pmul(a1, a1), pscale(4, a2))
    b4 = padd(pscale(2, a4), pmul(a1, a3))
    b6 = padd(pmul(a3, a3), pscale(4, a6))
    c4 = padd(pmul(b2, b2), pscale(-24, b4))
    c6 = padd(pscale(-1, pmul(b2, pmul(b2, b2))), pscale(36, pmul(b2, b4)), pscale(-216, b6))
    return {"b2": b2, "b4": b4, "b6": b6, "c4": c4, "c6": c6}


def nondegenerate_nonconstant_j(a: dict) -> bool:
    """Exact: c4^3 - c6^2 is a nonzero polynomial and j = 1728 c4^3 / (c4^3 - c6^2) varies."""
    inv = invariants(a)
    num = pmul(inv["c4"], pmul(inv["c4"], inv["c4"]))
    sq = pmul(inv["c6"], inv["c6"])
    if not num or not sq or not padd(num, pscale(-1, sq)):
        return False  # j = 0, j = 1728, or an identically singular family
    n = max(len(num), len(sq))
    u = num + (0,) * (n - len(num))
    v = sq + (0,) * (n - len(sq))
    # j is constant exactly when c4^3 and c6^2 are proportional polynomials
    return any(u[i] * v[k] != u[k] * v[i] for i in range(n) for k in range(i + 1, n))


def template(a: dict):
    """The closed-form shape of the family in its medium form y^2 = 4x^3 + b2 x^2 + 2 b4 x + b6.

    ("T3",) for y^2 = x^3 - t^2 x + t^4; ("T1", a, b, d) for constant b2, 2 b4
    and b6 = c + d t; ("T2", m, n) for b2 = 4m + 1, 2 b4 = n t, b6 = 0; else None.
    """
    if tuple(a[k] for k in KEYS) == ((), (), (), (0, 0, -1), (0, 0, 0, 0, 1)):
        return ("T3",)
    inv = invariants(a)
    b2, twob4, b6 = inv["b2"], pscale(2, inv["b4"]), inv["b6"]
    const = lambda q: len(q) <= 1
    first = lambda q: q[0] if q else 0
    if const(b2) and const(twob4) and len(b6) == 2:
        return ("T1", first(b2), first(twob4), b6[1])
    if const(b2) and first(b2) % 4 == 1 and not b6 and len(twob4) == 2 and twob4[0] == 0:
        return ("T2", (first(b2) - 1) // 4, twob4[1])
    return None


def chi(v: int, p: int) -> int:
    v %= p
    if v == 0:
        return 0
    return 1 if pow(v, (p - 1) // 2, p) == 1 else -1


def closed_form(tpl, p: int) -> tuple[bool, int, int]:
    """(valid, S1, S2) from the paper's closed forms; S1, S2 are not asserted when not valid."""
    if tpl[0] == "T1":
        _, a, b, d = tpl
        disc = a * a - 12 * b
        if disc % p:
            s2 = p * p - p - p * chi(-48, p) - p * chi(disc, p)
        else:
            s2 = p * p - p + p * (p - 1) * chi(-48, p)
        return p > max(3, 4 * abs(d)), 0, s2
    if tpl[0] == "T2":
        _, m, n = tpl
        s2 = p * p - 3 * p if p % 4 == 1 else p * p - p
        return p > max(3, 4 * abs(m), 4 * abs(n)) and (4 * m + 1) % p != 0, 0, s2
    squares = {x * x % p for x in range(1, p)}
    cub = sum(0 if v == 0 else (1 if v in squares else -1)
              for v in ((x * x * x - x) % p for x in range(p)))
    return True, -2 * p, p * p - p - p * chi(-3, p) - p * chi(12, p) - cub * cub


# elements per numpy block in the brute-force count; bounds the checker's memory
_BLOCK = 1 << 20


def brute_force_row(a: dict, p: int, r_max: int):
    """Exact S_1..S_rmax at p by counting affine points of every fiber, plus the Hasse check.

    For each x the equation y^2 + (a1 x + a3) y = x^3 + a2 x^2 + a4 x + a6 has
    as many solutions y as there are square roots of D = (a1 x + a3)^2 +
    4 (x^3 + a2 x^2 + a4 x + a6); those are tallied from the squares mod p.
    Returns (sums, hasse_violations) where the second counts nonsingular
    fibers with a_t^2 > 4p.
    """
    import numpy as np

    roots = np.bincount(np.arange(p, dtype=np.int64) ** 2 % p, minlength=p)
    xs = np.arange(p, dtype=np.int64)
    x2 = xs * xs % p
    x3 = x2 * xs % p
    coef = {k: np.array([peval_mod(a[k], t, p) for t in range(p)], dtype=np.int64) for k in KEYS}
    inv = invariants(a)
    traces = []
    for lo in range(0, p, max(1, _BLOCK // p)):
        hi = min(p, lo + max(1, _BLOCK // p))
        c = {k: v[lo:hi, None] for k, v in coef.items()}
        lin = (c["a1"] * xs + c["a3"]) % p
        cubic = (x3 + c["a2"] * x2 % p + c["a4"] * xs % p + c["a6"]) % p
        points = roots[(lin * lin + 4 * cubic) % p].sum(axis=1)
        traces.extend(p - int(n) for n in points)
    hasse = 0
    for t, a_t in enumerate(traces):
        c4, c6 = peval_mod(inv["c4"], t, p), peval_mod(inv["c6"], t, p)
        if (c4 ** 3 - c6 ** 2) % p and a_t * a_t > 4 * p:
            hasse += 1
    sums = tuple(sum(v ** r for v in traces) for r in range(1, r_max + 1))
    return sums, hasse


def primes_upto_index(end: int) -> list[int]:
    """The first `end` primes (index 1 is 2), by trial division against earlier primes."""
    out: list[int] = []
    n = 2
    while len(out) < end:
        r = math.isqrt(n)
        if all(n % q for q in out if q <= r):
            out.append(n)
        n += 1
    return out
