"""The direct O(p^2) t-x character sum, kept as the reference for the trace tables."""

import numpy as np

from ecmoments.families import compute_invariants
from ecmoments.modular import cached_legendre_table

# elements per temporary block of the sweep; bounds memory, not results
_CHUNK = 1 << 22


def direct_short_traces(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """-sum over x mod p of chi(x^3 + A x + B) for each pair of A, B in [0, p)."""
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    chi = cached_legendre_table(p).chi
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
