"""Fiberwise Frobenius traces and exact moment sums over whole families."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .families import CurveFamily, Fiber, compute_invariants, fiber_at
from .modular import LegendreTable, cached_legendre_table, prime_index_of


def trace_at(fam: CurveFamily, t: int, p: int, table: LegendreTable) -> int:
    """a_t(p) = -sum over x mod p of chi(x^3 + A x + B) for the fiber at t."""
    if table.p != p:
        raise ValueError("table is for p=%d, need p=%d" % (table.p, p))
    fib = fiber_at(fam, t, p)
    chi = table.chi
    acc = 0
    for x in range(p):
        acc += int(chi[(x * x % p * x + fib.A * x + fib.B) % p])
    return -acc


def point_count_oracle(fiber: Fiber) -> int:
    """Count affine (x, y) with y^2 = x^3 + A x + B mod p by exhaustive enumeration.

    Independent of the character machinery; trace_at must equal p minus this.
    """
    p, a, b = fiber.p, fiber.A, fiber.B
    squares = [y * y % p for y in range(p)]
    count = 0
    for x in range(p):
        count += squares.count((x * x % p * x + a * x + b) % p)
    return count


def _eval_poly_mod(coeffs: tuple[int, ...], ts: np.ndarray, p: int) -> np.ndarray:
    """Horner over a vector of arguments; coefficients pre-reduced into [0, p)."""
    acc = np.zeros(len(ts), dtype=np.int64)
    for c in reversed(coeffs):
        acc = (acc * ts + c % p) % p
    return acc


@dataclass(frozen=True, eq=False)
class TraceTables:
    """Every trace mod p, read off three tables (see trace_tables).

    ss[s] = a(s, s), zero_b[B] = a(0, B) and a_zero[A] = a(A, 0), where
    a(A, B) = -sum over x mod p of chi(x^3 + A x + B); inv[x] = 1/x mod p
    with inv[0] = 0.
    """

    p: int
    ss: np.ndarray
    zero_b: np.ndarray
    a_zero: np.ndarray
    inv: np.ndarray


def _inverse_table(p: int) -> np.ndarray:
    """x^(p-2) mod p for every x mod p, by vectorised square-and-multiply."""
    out = np.ones(p, dtype=np.int64)
    base = np.arange(p, dtype=np.int64)
    e = p - 2
    while e:
        if e & 1:
            out = out * base % p
        base = base * base % p
        e >>= 1
    return out


def _correlate_with_chi(weights: np.ndarray, chi: np.ndarray) -> np.ndarray:
    """C[i, s] = sum over v of weights[i, v] chi[(v + s) mod p], exactly, by one real FFT.

    The transform length is a power of two at least 2p - 1, so the cyclic
    correlation of weights with chi||chi has no wraparound on s < p. The
    result is an integer; a value further than 0.25 from one means float64
    did not carry it, and raises ArithmeticError.
    """
    p = len(chi)
    n = 1 << (2 * p - 1).bit_length()
    chi2 = np.concatenate([chi, chi[:-1]]).astype(np.float64)
    spec = np.conj(np.fft.rfft(weights, n)) * np.fft.rfft(chi2, n)
    raw = np.fft.irfft(spec, n)[:, :p]
    out = np.rint(raw)
    err = float(np.abs(raw - out).max())
    if err > 0.25:
        raise ArithmeticError("FFT correlation at p=%d is off an integer by %.3g" % (p, err))
    return out.astype(np.int64)


# 32p bytes per prime; callers work one prime at a time, so two entries suffice
@lru_cache(maxsize=2)
def trace_tables(p: int) -> TraceTables:
    """The tables behind every trace mod p, in O(p log p).

    A twist (A, B) -> (d^2 A, d^3 B) multiplies a(A, B) by chi(d); with
    d = B/A it carries (s, s), s = A^3/B^2, to (A, B), so for AB != 0
    a(A, B) = chi(AB) a(s, s). Each table is a correlation of chi with a weight:
    writing x^3 + s(x + 1) = (x + 1)(v + s) with v = x^3/(x + 1) for x != -1,

        -a(s, s) = chi(-1) + sum_v W(v) chi(v + s),  W(v) = sum_{x^3/(x+1) = v} chi(x + 1),
        -a(0, B) = sum_u N3(u) chi(u + B),           N3(u) = #{x : x^3 = u},
        -a(A, 0) = sum_w M(w) chi(w + A),            M(w) = sum_{x^2 = w} chi(x).
    """
    chi = cached_legendre_table(p).chi.astype(np.int64)
    inv = _inverse_table(p)
    xs = np.arange(p, dtype=np.int64)
    sq = xs * xs % p
    cube = sq * xs % p
    y = xs[1:]  # y = x + 1 over x != -1
    v = (y - 1) * (y - 1) % p * (y - 1) % p * inv[y] % p
    weights = np.stack([
        np.bincount(v, weights=chi[y], minlength=p),
        np.bincount(cube, minlength=p),
        np.bincount(sq, weights=chi, minlength=p),
    ])
    corr = _correlate_with_chi(weights, chi)
    ss, zero_b, a_zero = -corr
    ss -= chi[p - 1]
    for arr in (ss, zero_b, a_zero, inv):
        arr.setflags(write=False)
    return TraceTables(p, ss, zero_b, a_zero, inv)


def short_traces(a: np.ndarray, b: np.ndarray, table: LegendreTable) -> np.ndarray:
    """a(A, B) = -sum over x of chi(x^3 + A x + B), elementwise over int64 A, B in [0, p)."""
    p = table.p
    tt = trace_tables(p)
    ib = tt.inv[b]
    s = a * a % p * a % p * ib % p * ib % p
    out = table.chi[a * b % p] * tt.ss[s]
    on_a0 = a == 0
    out[on_a0] = tt.zero_b[b[on_a0]]
    on_b0 = b == 0
    out[on_b0] = tt.a_zero[a[on_b0]]
    return out


def traces_mod_p(fam: CurveFamily, p: int, table: LegendreTable | None = None) -> np.ndarray:
    """All traces a_t(p) for t = 0..p-1, as an int64 array, from trace_tables(p)."""
    if table is None:
        table = cached_legendre_table(p)
    elif table.p != p:
        raise ValueError("table is for p=%d, need p=%d" % (table.p, p))
    inv = compute_invariants(fam)
    ts = np.arange(p, dtype=np.int64)
    a = (-27 * _eval_poly_mod(inv.c4.coeffs, ts, p)) % p
    b = (-54 * _eval_poly_mod(inv.c6.coeffs, ts, p)) % p
    return short_traces(a, b, table)


@dataclass(frozen=True)
class MomentRecord:
    """Exact power sums S_r = sum_t a_t(p)^r for one family at one prime."""

    family: str
    prime_index: int
    p: int
    sums: tuple[int, ...]

    @property
    def S(self) -> dict[int, int]:
        return {r: v for r, v in enumerate(self.sums, start=1)}

    @property
    def r_max(self) -> int:
        return len(self.sums)


def _exact_sum(arr: np.ndarray, bound: int) -> int:
    """Exact integer sum of arr whose entries satisfy |entry| <= bound.

    int64 input is summed in chunks short enough that no partial sum can
    wrap; chunk boundaries depend only on bound, so results are identical
    across runs (and would be under any order, the arithmetic being exact).
    """
    if arr.dtype == object:
        return sum(int(v) for v in arr)
    step = max(1, (1 << 62) // max(bound, 1))
    return sum(int(arr[lo : lo + step].sum(dtype=np.int64)) for lo in range(0, len(arr), step))


def _sums_from_traces(traces: np.ndarray, r_max: int) -> tuple[int, ...]:
    maxabs = int(np.abs(traces).max(initial=0))
    widen = maxabs > 1 and maxabs ** r_max >= 1 << 62  # power chain would overflow int64
    base = np.array([int(v) for v in traces], dtype=object) if widen else traces
    cur = base
    sums = []
    for r in range(1, r_max + 1):
        if r > 1:
            cur = cur * base
        sums.append(_exact_sum(cur, maxabs ** r))
    return tuple(sums)


def moment_sums(fam: CurveFamily, p: int, r_max: int = 7) -> MomentRecord:
    """Exact S_r = sum_t a_t(p)^r for r = 1..r_max, over all t mod p.

    Singular fibers contribute their raw character sums; nothing is skipped.
    """
    if not 1 <= r_max <= 8:
        raise ValueError("r_max must be in 1..8, got %r" % (r_max,))
    idx = prime_index_of(p)  # raises on composite p
    if p == 2:
        raise ValueError("p must be an odd prime")
    traces = traces_mod_p(fam, p)
    return MomentRecord(fam.name, idx, p, _sums_from_traces(traces, r_max))


@dataclass(frozen=True)
class SymSumRecord:
    p: int
    k: int
    value: float


def sym_sum(fam: CurveFamily, p: int, k: int) -> SymSumRecord:
    """sum over fibers of sin((k+1) theta_t) / sin(theta_t), cos(theta_t) = a_t / (2 sqrt p).

    Chebyshev recurrence U_0 = 1, U_1 = 2x, U_k = 2x U_{k-1} - U_{k-2}, with
    x clamped into [-1, 1] (singular fibers can poke past the Hasse bound).
    """
    if k < 0:
        raise ValueError("k must be nonnegative, got %r" % (k,))
    prime_index_of(p)
    if p == 2:
        raise ValueError("p must be an odd prime")
    traces = traces_mod_p(fam, p)
    x = np.clip(traces / (2.0 * math.sqrt(p)), -1.0, 1.0)
    u_prev = np.ones_like(x)
    if k == 0:
        return SymSumRecord(p, k, float(u_prev.sum()))
    u = 2.0 * x
    for _ in range(k - 1):
        u_prev, u = u, 2.0 * x * u - u_prev
    return SymSumRecord(p, k, float(u.sum()))
