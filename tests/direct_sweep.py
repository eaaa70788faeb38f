"""The direct O(p^2) t-x character sum and point count, kept as references for the engine."""

import numpy as np

from ecmoments.families import CurveFamily, Fiber, compute_invariants, fiber_at
from ecmoments.modular import cached_legendre_table

# elements per temporary block of the sweep; bounds memory, not results
_CHUNK = 1 << 22


def point_count_enumeration(fiber: Fiber) -> int:
    """Count affine (x, y) with y^2 = x^3 + A x + B mod p, in O(p^2), by listing every y^2."""
    p, a, b = fiber.p, fiber.A, fiber.B
    squares = [y * y % p for y in range(p)]
    count = 0
    for x in range(p):
        count += squares.count((x * x % p * x + a * x + b) % p)
    return count


def trace_at(fam: CurveFamily, t: int, p: int, chi: np.ndarray) -> int:
    """a_t(p) = -sum over x mod p of chi(x^3 + A x + B) for the fiber at t; chi is p's table."""
    if len(chi) != p:
        raise ValueError("table is for p=%d, need p=%d" % (len(chi), p))
    fib = fiber_at(fam, t, p)
    acc = 0
    for x in range(p):
        acc += int(chi[(x * x % p * x + fib.A * x + fib.B) % p])
    return -acc


def direct_short_traces(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """-sum over x mod p of chi(x^3 + A x + B) for each pair of A, B in [0, p)."""
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    chi = cached_legendre_table(p)
    xs = np.arange(p, dtype=np.int64)
    cube = xs * xs % p * xs % p
    out = np.empty(len(a), dtype=np.int64)
    step = max(1, _CHUNK // p)
    for lo in range(0, len(a), step):
        hi = min(len(a), lo + step)
        idx = (a[lo:hi, None] * xs[None, :] + cube[None, :] + b[lo:hi, None]) % p
        out[lo:hi] = -chi[idx].sum(axis=1, dtype=np.int64)
    return out


def direct_traces(fam, p: int) -> np.ndarray:
    """a_t(p) for t = 0..p-1 by sweeping every x for every fiber."""
    inv = compute_invariants(fam)
    a = [(-27 * inv.c4.eval_mod(t, p)) % p for t in range(p)]
    b = [(-54 * inv.c6.eval_mod(t, p)) % p for t in range(p)]
    return direct_short_traces(a, b, p)
