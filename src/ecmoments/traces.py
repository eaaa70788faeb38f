"""Fiberwise Frobenius traces and exact moment sums over whole families."""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .families import (DEFAULT_R_MAX, R_MAX, CurveFamily, Fiber, MomentRecord, compute_invariants,
                       discriminant, fiber_at)
from .modular import _MAX_MODULUS, _check_odd_prime_modulus, prime_index_of


def point_count_oracle(fibers: list[Fiber]) -> list[int]:
    """Count affine (x, y) with y^2 = x^3 + A x + B mod p on each of `fibers`, all of one p.

    One O(p) table counts the square roots of every residue by squaring every y, independent of
    chi; with one of cubes, each fiber is an O(p) gather. traces_mod_p must be p minus each count.
    """
    (p,) = {fib.p for fib in fibers}  # ValueError unless the fibers share one prime
    xs = np.arange(p, dtype=np.int64)
    roots = np.bincount(xs * xs % p, minlength=p)
    cubes = xs * xs % p * xs
    return [int(roots[(cubes + fib.A % p * xs + fib.B % p) % p].sum()) for fib in fibers]


def prime_oracle_check(
    families: list[CurveFamily], p: int, samples: list, rows: list[CoefficientRow]
) -> list[str | None]:
    """What the point counts find wrong with each family at p, or None where nothing is.

    Each trace at the t of samples[f] must be p minus point_count_oracle, in the Hasse range if
    smooth; then the S_1..S_R_MAX of families[f]'s row (rows is coefficient_rows(families)) must
    equal its record from the _prime_records call moments makes, whose raising fails them all.
    """
    tt = trace_tables(p)
    try:
        records, failed = _prime_records(families, rows, tt, R_MAX), None
    except ArithmeticError as exc:
        records, failed = None, "FAIL: %s" % (exc,)
    fibers = [fiber_at(fam, t, p) for fam, ts in zip(families, samples) for t in ts]
    counted = iter(zip(fibers, point_count_oracle(fibers)))
    verdicts = []
    own = {}  # f -> the histogram of families[f]'s own row, where its point counts passed
    for f, (row, ts) in enumerate(zip(rows, samples)):
        traces = _block_traces([row], tt)
        bad = []
        for t in ts:
            (fib, points), a_t = next(counted), int(traces[0, t])
            if a_t != p - points or discriminant(fib) and a_t * a_t > 4 * p:
                bad.append(t)
        if bad or failed:
            verdicts.append("FAIL at t=%s" % (bad,) if bad else failed)
            continue
        try:
            own[f] = _trace_histograms(traces, p)
        except ArithmeticError as exc:
            verdicts.append("FAIL: %s" % (exc,))
            continue
        verdicts.append(None)
    if own:  # one _power_sums call for every own row, so one table of powers
        for f, row_sums in zip(own, _power_sums(np.concatenate(list(own.values())), p, R_MAX)):
            off = [r for r, (x, y) in enumerate(zip(row_sums, records[f].sums), 1) if x != y]
            verdicts[f] = "FAIL in S_r at r=%s" % (off,) if off else None
    return verdicts


# fibers per block of families at one prime: at small p every family shares
# one block, and at large p a block is one family, so memory stays O(p)
_BLOCK_FIBERS = 1 << 16
_CHUNK = 1 << 14  # int64 entries per step of _reduce


class TraceTables(NamedTuple):
    """Every trace mod p, read off the discrete log (see trace_tables and short_traces).

    log[x] = l(x), where x = g^l(x) for a generator g of the units mod p, and log[0] = 0;
    ss[k] = a(g^k, g^k) for k < p - 1; va[k] = a(g^k, 0) for k < 4 and vb[k] = a(0, g^k)
    for k < 6, where a(A, B) = -sum over x mod p of chi(x^3 + A x + B). log is int64, the
    rest _table_dtype(p), all read-only.
    A tuple holding arrays: compare it with `is`, never with == or by hash.
    """

    p: int
    log: np.ndarray
    ss: np.ndarray
    va: np.ndarray
    vb: np.ndarray


def _primitive_root(p: int) -> int:
    """The least generator of the units mod p; the primes of p - 1 come from trial division."""
    n, q, factors = p - 1, 2, []
    while q * q <= n:
        if n % q == 0:
            factors.append(q)
            while n % q == 0:
                n //= q
        q += 1
    factors += [n] if n > 1 else []
    return next(g for g in range(2, p) if all(pow(g, (p - 1) // q, p) != 1 for q in factors))


def _fast_length(m: int) -> int:
    """The least even 2^a 3^b 5^c >= m: a length numpy's FFT transforms quickly."""
    best = 1 << max(1, (m - 1).bit_length())
    p5 = 1
    while p5 < best:
        odd = p5
        while odd < best:
            best = min(best, 2 * odd << (-(-m // (2 * odd)) - 1).bit_length())
            odd *= 3
        p5 *= 5
    return best


def _table_dtype(p: int) -> type:
    """int16 while every trace mod p fits, |a| <= isqrt(4p) <= 2 isqrt(p) + 1; int32 above."""
    return np.int16 if 2 * math.isqrt(p) + 1 < 1 << 15 else np.int32


def _correlate_with_chi(weight: np.ndarray, chi: np.ndarray) -> np.ndarray:
    """C[s] = sum over v of weight[v] chi[(v + s) mod p] for s < p = len(weight), exactly.

    Both run through a real FFT of even length n >= 2p - 1, with chi repeated as
    chi||chi[:-1], so the cyclic correlation has no wraparound on s < p. C is an
    integer, returned as float64; a value further than 0.25 from one raises ArithmeticError.
    """
    p = len(weight)
    n = _fast_length(2 * p - 1)
    spec = np.fft.rfft(weight, n)
    np.conjugate(spec, out=spec)
    spec *= np.fft.rfft(np.concatenate([chi, chi[:-1]]).astype(np.float64), n)
    raw = np.fft.irfft(spec, n)[:p]
    del spec
    out = np.rint(raw)
    raw -= out
    err = float(np.abs(raw, out=raw).max())
    if err > 0.25:
        raise ArithmeticError("FFT correlation at p=%d is off an integer by %.3g" % (p, err))
    return out


def _birch_sums(p: int) -> list[int]:
    """Birch (J. London Math. Soc. 1968): the sum of a(A, B)^(2R) over all (A, B) mod p, R = 1..4.

    For p >= 5. No cusp form of weight 2R + 2 < 12 exists, so each sum is a polynomial in p.
    """
    return [p**3 - p**2,
            2 * p**4 - 2 * p**3 - 3 * p**2 + 3 * p,
            5 * p**5 - 5 * p**4 - 9 * p**3 + 4 * p**2 + 5 * p,
            14 * p**6 - 14 * p**5 - 28 * p**4 + 8 * p**3 + 13 * p**2 + 7 * p]


def _check_birch(p: int, ss: np.ndarray, va: np.ndarray, vb: np.ndarray) -> None:
    """ArithmeticError unless the tables, read as short_traces reads them, meet _birch_sums(p).

    Each k < p - 1 stands for the p - 1 pairs with AB != 0 and A^3/B^2 = g^k, and va[j]
    (vb[j]) for the A (B) != 0 with l mod 4 (6) equal to j; a(0, 0) = 0. Even powers
    need only |ss|: one bincount, then exact Python ints.
    """
    counts = np.bincount(np.abs(ss)).tolist()  # counts[v] = #{k : |ss[k]| = v}
    lines = [(len(range(j, p - 1, len(cm))), v)  # (how many A or B, the trace they share)
             for cm in (va, vb) for j, v in enumerate(cm.tolist())]
    for e, want in zip((2, 4, 6, 8), _birch_sums(p)):
        on_ss = sum(c * v**e for v, c in enumerate(counts))
        if (p - 1) * on_ss + sum(c * v**e for c, v in lines) != want:
            raise ArithmeticError("trace tables at p=%d miss Birch's sum of a^%d" % (p, e))


def trace_tables(p: int) -> TraceTables:
    """The tables behind every trace mod p: O(p log p) time, 10p bytes held (12p above 16384^2).

    A twist (A, B) -> (d^2 A, d^3 B) multiplies a(A, B) by chi(d); with
    d = B/A it carries (s, s), s = A^3/B^2, to (A, B), so for AB != 0
    a(A, B) = chi(AB) a(s, s). a(s, s) is a correlation of chi with a weight: writing
    x^3 + s(x + 1) = (x + 1)(v + s) with v = x^3/(x + 1) for x != -1,

        -a(s, s) = chi(-1) + sum_v W(v) chi(v + s),  W(v) = sum_{x^3/(x+1) = v} chi(x + 1).

    The CM lines take a few values each: (A, B) -> (u^4 A, u^6 B) keeps the trace, so
    a(A, 0) = va[l(A) mod 4] (j = 1728) and a(0, B) = vb[l(B) mod 6] (j = 0); chi(g^k) = (-1)^k.
    ArithmeticError if the FFT is inexact, (p >= 5) the tables miss _birch_sums or ss does
    not sum to -chi(-1) p; ValueError unless p is an odd prime up to _MAX_MODULUS, raised
    before any table is allocated.
    """
    if p > _MAX_MODULUS:
        raise ValueError("p=%d exceeds %d, the largest modulus whose residue products fit in int64"
                         % (p, _MAX_MODULUS))
    _check_odd_prime_modulus(p)
    dtype = _table_dtype(p)
    g = _primitive_root(p)
    pw = np.ones(p, dtype=np.int64)  # pw[k] = g^k for k <= p - 1, filled by doubling
    n = 1
    while n < p:
        m = min(n, p - n)
        np.multiply(pw[:m], int(pw[n - 1]) * g % p, out=pw[n : n + m])
        pw[n : n + m] %= p
        n += m
    log = np.zeros(p, dtype=np.int64)
    log[pw[:-1]] = np.arange(p - 1)
    chi = (1 - 2 * (log & 1)).astype(np.int8)
    chi[0] = 0
    x = np.arange(p, dtype=np.int64)
    sq = x * x % p
    chi2 = np.concatenate([chi, chi])  # chi2[u] = chi[u mod p] for u < 2p
    # a(g^k, 0) and a(0, g^k), as chi(x^3 + c x) = chi(x) chi(x^2 + c)
    va = np.array([-int((chi * chi2[sq + pow(g, k, p)]).sum()) for k in range(4)], dtype=dtype)
    sq *= x
    sq %= p  # now x^3
    vb = np.array([-int(chi2[sq + pow(g, k, p)].sum()) for k in range(6)], dtype=dtype)
    del x, chi2
    sq[:-1] *= pw[p - 1 - log[1:]]  # 1/(x + 1) = g^(p - 1 - l(x + 1))
    del pw
    sq %= p  # x^3/(x + 1) over x != -1
    w = np.bincount(sq[:-1], weights=chi[1:], minlength=p)
    del sq
    ss = np.empty(p - 1, dtype=dtype)
    ss[log[1:]] = (-chi[p - 1] - _correlate_with_chi(w, chi))[1:]  # ss[l(s)] = a(s, s)
    if p >= 5:
        _check_birch(p, ss, va, vb)
    # sum_k ss[k] = -sum_x sum_{s != 0} chi(x^3 + s(x + 1)), where x = -1 gives (p - 1) chi(-1)
    # and each other x gives -chi(x), chi(-1) in all; a global sign of ss passes Birch, not this
    if int(ss.sum(dtype=np.int64)) != -int(chi[p - 1]) * p:
        raise ArithmeticError("trace tables at p=%d miss sum of a(s, s) = -chi(-1) p" % (p,))
    for arr in (log, ss, va, vb):
        arr.setflags(write=False)
    return TraceTables(p, log, ss, va, vb)


def _reduce(x: np.ndarray, d: int) -> None:
    """x %= d in place for a contiguous int64 x, as x - (x // d) d in chunks of _CHUNK.

    numpy divides by a constant with a multiply and a shift, but computes % with a
    division per element; this runs over twice as fast, with a 128 KiB buffer.
    """
    flat = x.reshape(-1)
    buf = np.empty(min(flat.size, _CHUNK), dtype=np.int64)
    for lo in range(0, flat.size, _CHUNK):
        part = flat[lo : lo + _CHUNK]
        q = np.floor_divide(part, d, out=buf[: len(part)])
        q *= d
        part -= q


def short_traces(a: np.ndarray, b: np.ndarray, tt: TraceTables) -> np.ndarray:
    """a(A, B) = -sum_x chi(x^3 + A x + B) for int64 A, B in [0, tt.p), in the tables' dtype.

    A and B are left as they were: _read_traces works on a copy of both. ValueError if
    either lies outside [0, p), which that gather would clip.
    """
    ab = np.array([a, b], dtype=np.int64)
    if ab.size and (int(ab.min()) < 0 or int(ab.max()) >= tt.p):
        raise ValueError("A and B must lie in [0, %d)" % (tt.p,))
    return _read_traces(ab, tt)


def _read_traces(ab: np.ndarray, tt: TraceTables) -> np.ndarray:
    """short_traces of A = ab[0] and B = ab[1], read in ab's own memory, which it overwrites.

    In logs, A^3/B^2 = g^k with k = 3 l(A) - 2 l(B) mod (p - 1) and chi(AB) = (-1)^(l(A) + l(B)).
    ab takes l(A) and l(B), then k and the parity of l(A) + l(B), and the trace is one gather
    from ss followed by -ss: index k + (p - 1) when chi(AB) = -1.
    """
    la, lb = ab
    on_a0, on_b0 = la == 0, lb == 0  # before the gathers, as log[0] = log[1] = 0
    # mode="clip" writes straight into out, where "raise" would buffer a copy; the indices
    # lie in [0, p), and a gather reads each one before it writes its place
    for half in ab:
        np.take(tt.log, half, out=half, mode="clip")
    on_a0_line = tt.vb[lb[on_a0] % 6]  # a(0, B)
    on_b0_line = tt.va[la[on_b0] % 4]  # a(A, 0)
    lb += la  # l(A) + l(B)
    la *= 5
    la -= lb
    la -= lb
    _reduce(la, tt.p - 1)  # k
    lb &= 1
    lb *= tt.p - 1
    la += lb
    out = np.concatenate([tt.ss, -tt.ss])[la]
    out[on_a0] = on_a0_line
    out[on_b0] = on_b0_line
    out[on_a0 & on_b0] = 0  # a(0, 0) = -sum chi(x^3) = 0
    return out


class CoefficientRow(NamedTuple):
    """A family's short model y^2 = x^3 + A(t) x + B(t), A = -27 c4 and B = -54 c6.

    a and b hold the integer coefficients of A and B, ascending in t. served is
    ("vertical", A0, b1) when A = A0 and B = b0 + b1 t, ("quartic", alpha, beta) when
    A = alpha t^2 and B = beta t^4, and None otherwise; at a prime that divides neither
    of its integers, a served family's histogram comes from _class_histograms.
    """

    a: tuple[int, ...]
    b: tuple[int, ...]
    served: tuple[str, int, int] | None


def coefficient_rows(families: list[CurveFamily]) -> list[CoefficientRow]:
    """Each family's CoefficientRow: its coefficients and its shape, decided once.

    The rows hold no modulus, so a run builds them once and reduces them at each p.
    """
    rows = []
    for inv in map(compute_invariants, families):
        a, b = (tuple(scale * c for c in poly.coeffs) for scale, poly in ((-27, inv.c4),
                                                                            (-54, inv.c6)))
        served = None
        if len(a) == 1 and len(b) == 2:  # coeffs carry no trailing zeros, so A0 and b1 are not 0
            served = ("vertical", a[0], b[1])
        elif len(a) == 3 and len(b) == 5 and not any(a[:2] + b[:4]):
            served = ("quartic", a[2], b[4])
        rows.append(CoefficientRow(a, b, served))
    return rows


def _block_traces(rows: list[CoefficientRow], tt: TraceTables) -> np.ndarray:
    """traces[f, t] = a_t(p) of the family with coefficient_rows rows[f], t = 0..p-1, p = tt.p.

    One Horner pass over the stacked rows of A and B mod p gives every fiber's
    A and B; _read_traces reads the traces off the tables tt in the same array.
    """
    p = tt.p
    stacked = [row.a for row in rows] + [row.b for row in rows]
    width = max(map(len, stacked), default=0)
    coeffs = np.array([[c % p for c in row] + [0] * (width - len(row)) for row in stacked],
                      dtype=np.int64)
    ts = np.arange(p, dtype=np.int64)
    acc = np.zeros((len(stacked), p), dtype=np.int64)
    for k in reversed(range(width)):
        acc *= ts
        acc += coeffs[:, k, None]
        _reduce(acc, p)
    del ts
    return _read_traces(acc.reshape(2, len(rows), p), tt)


def traces_mod_p(fam: CurveFamily, p: int) -> np.ndarray:
    """All traces a_t(p) for t = 0..p-1, as an int64 array, from trace_tables(p)."""
    return _block_traces(coefficient_rows([fam]), trace_tables(p))[0].astype(np.int64)


def _check_hasse(values: np.ndarray, m: int, p: int) -> None:
    """ArithmeticError unless every value lies in the Hasse range |a| <= m = isqrt(4p)."""
    if int(values.min()) < -m or int(values.max()) > m:
        raise ArithmeticError("a trace at p=%d lies outside the Hasse range |a| <= %d" % (p, m))


def _trace_histograms(traces: np.ndarray, p: int) -> np.ndarray:
    """counts[f, m + v] = #{t : traces[f, t] = v}, |v| <= m = isqrt(4p): one bincount."""
    m = math.isqrt(4 * p)
    width = 2 * m + 1
    _check_hasse(traces, m, p)
    bins = traces + (m + width * np.arange(len(traces)))[:, None]
    return np.bincount(bins.ravel(), minlength=width * len(traces)).reshape(-1, width)


def _kernel_histograms(rows: list[CoefficientRow], tt: TraceTables) -> np.ndarray:
    """_trace_histograms of every row's traces, read in blocks of at most _BLOCK_FIBERS fibers."""
    step = max(1, _BLOCK_FIBERS // tt.p)
    return np.concatenate([_trace_histograms(_block_traces(rows[lo : lo + step], tt), tt.p)
                           for lo in range(0, len(rows), step)])


def _class_histograms(shapes: list[tuple[str, int, int]], tt: TraceTables) -> np.ndarray:
    """_trace_histograms of served families, from one class histogram of ss, in O(p + sqrt(p)).

    H[c, m + v] = #{k < p - 1 : k = c mod 4, ss[k] = v}, and H[4 + c] is H[c] reversed,
    the count of -v. Each shape's traces are +-ss over the k of one parity, each k twice:
      vertical, B = g^j: a = chi(A0 B) ss[3 L - 2 j], L = l(A0); j and j + (p - 1)/2 reach
        the same k, with opposite chi when p = 3 mod 4, and with (-1)^(L + j) fixed by
        c = k mod 4 when p = 1 mod 4: j = (3 L - c)/2 mod 2. B = 0 gives va[L mod 4];
      quartic, t = g^j: a = chi(alpha beta) ss[3 l(alpha) - 2 l(beta) - 2 j]; t = 0 gives 0.
    A family's counts are its row of weights on the eight rows of H, plus its one CM fiber.
    """
    p, log = tt.p, tt.log
    m = math.isqrt(4 * p)
    width = 2 * m + 1
    _check_hasse(tt.ss, m, p)
    bins = tt.ss.astype(np.int64)
    bins += m
    for c in range(1, 4):
        bins[c::4] += c * width
    h = np.bincount(bins, minlength=4 * width).reshape(4, width)
    weights, cm = [], []
    for kind, x, y in shapes:
        ell = int(log[x % p])
        w = [0] * 8
        if kind == "quartic":
            neg = 4 * ((ell + int(log[y % p])) & 1)
            w[ell % 2 + neg] = w[ell % 2 + 2 + neg] = 2
            cm.append(0)
        else:
            for c in (ell % 2, ell % 2 + 2):
                if p % 4 == 3:
                    w[c] = w[c + 4] = 1
                else:
                    w[c + 4 * ((ell + (3 * ell - c) % 4 // 2) & 1)] = 2
            cm.append(int(tt.va[ell % 4]))
        weights.append(w)
    counts = np.array(weights, dtype=np.int64) @ np.concatenate([h, h[:, ::-1]])
    counts[np.arange(len(cm)), np.array(cm) + m] += 1
    return counts


def _histograms(rows: list[CoefficientRow], tt: TraceTables) -> np.ndarray:
    """_trace_histograms of every row's traces, without the traces where the class path serves.

    A served row falls back to its traces at a p that divides one of its two integers.
    """
    p = tt.p
    served, rest = [], []
    for i, row in enumerate(rows):
        (served if row.served and row.served[1] % p and row.served[2] % p else rest).append(i)
    counts = np.empty((len(rows), 2 * math.isqrt(4 * p) + 1), dtype=np.int64)
    if served:
        counts[served] = _class_histograms([rows[i].served for i in served], tt)
    if rest:
        counts[rest] = _kernel_histograms([rows[i] for i in rest], tt)
    return counts


def _power_sums(counts: np.ndarray, p: int, r_max: int) -> list[list[int]]:
    """Each row's S_1..S_r_max = sum over v of counts[f, m + v] v^r, as Python ints.

    The product is exact: int64 for every r with p m^r < 2^63, which bounds the
    partial sums of a row of p traces, and Python ints for higher r.
    """
    m = counts.shape[1] // 2
    n64 = sum(p * m**r < 1 << 63 for r in range(1, r_max + 1))  # at least 1, as p <= _MAX_MODULUS
    values = np.arange(-m, m + 1)
    powers64 = np.stack([values**r for r in range(1, n64 + 1)], axis=1)
    powers_big = values.astype(object)[:, None] ** np.arange(n64 + 1, r_max + 1, dtype=object)
    return np.hstack([counts @ powers64, counts.astype(object) @ powers_big]).tolist()


def _prime_records(
    families: list[CurveFamily], rows: list[CoefficientRow], tt: TraceTables, r_max: int
) -> list[MomentRecord]:
    """prime_moment_sums at tt.p, from the tables tt and coefficient_rows(families)."""
    p = tt.p
    sums = _power_sums(_histograms(rows, tt), p, r_max)
    for fam, row, s in zip(families, rows, sums):
        if len(row.a) <= 4 and len(row.b) <= 6 and s[0] % p:  # deg A <= 3 and deg B <= 5
            raise ArithmeticError("S1 of %s is %d, not 0 mod p=%d" % (fam.name, s[0], p))
    idx = prime_index_of(p)
    return [MomentRecord(fam.name, idx, p, tuple(s)) for fam, s in zip(families, sums)]


def prime_moment_sums(
    families: list[CurveFamily], p: int, r_max: int = DEFAULT_R_MAX, rows=None
) -> list[MomentRecord]:
    """moment_sums of every family at one prime, in the order given.

    rows, if given, is coefficient_rows(families), built once for many primes.

    Every trace lies in the Hasse range |a| <= m = isqrt(4p), singular fibers
    too (their raw sums are 0 or +-1), so a family's traces have a histogram
    of 2m + 1 bins and S_r = sum over v of count_v v^r (_power_sums). A served
    family (CoefficientRow) takes its histogram from ss by class (_class_histograms),
    the rest from their traces, read in blocks (_kernel_histograms).
    A value outside the range raises ArithmeticError, and so does an S1 that is
    not 0 mod p when deg A <= 3 and deg B <= 5 (A and B as in coefficient_rows):
    chi(u) = u^m mod p with m = (p - 1)/2, so a_t = [x^(p-1)] (x^3 + A x + B)^m mod p,
    a polynomial in t of degree at most m max(deg A/2, deg B/3) < p - 1, and the sum
    of t^k over t mod p vanishes for every k < p - 1.
    """
    if not 1 <= r_max <= R_MAX:
        raise ValueError("r_max must be in 1..%d, got %r" % (R_MAX, r_max))
    tt = trace_tables(p)  # checks p; first, so the FFT's peak does not add to the block arrays
    if rows is None:
        rows = coefficient_rows(families)
    return _prime_records(families, rows, tt, r_max)


def moment_sums(fam: CurveFamily, p: int, r_max: int = DEFAULT_R_MAX) -> MomentRecord:
    """Exact S_r = sum_t a_t(p)^r for r = 1..r_max, over all t mod p.

    Singular fibers contribute their raw character sums; nothing is skipped.
    """
    return prime_moment_sums([fam], p, r_max)[0]
