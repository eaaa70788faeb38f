"""Moment computation, one task per prime, in-process or in a thread pool, with CSV resume."""

from __future__ import annotations

import sys

from .families import DEFAULT_R_MAX, CurveFamily, MomentRecord
from .io import (
    RunConfig,
    ValidationError,
    load_families,
    moments_csv_path,
    read_moments_csv,
    write_moments_csv,
)


# Fibers (sum of p over the (family, prime) pairs to compute) that each worker
# thread needs to pay for itself: _compute_missing starts at most
# work // _WORKER_FIBERS threads and computes in-process below two. Measured
# with `moments` on the built-in corpus, --threads 1 against --threads 2 with
# the pool forced on every window, alternating, 2-vCPU VM, median wall seconds:
#   --end  fibers   in-process  threads  threads faster
#      80  0.24 M   0.35        0.39      4/15
#     120  0.58 M   0.37        0.39      2/15
#     150  0.95 M   0.42        0.43      4/15
#     160  1.09 M   0.45        0.47      6/15
#     165  1.17 M   0.41        0.41      7/15
#     175  1.33 M   0.47        0.50      5/15
#     190  1.59 M   0.58        0.56      9/15
#     200  1.79 M   0.51        0.49      9/15
#     210  1.99 M   0.62        0.58     12/15
#     225  2.31 M   0.74        0.71     15/30
#     250  2.91 M   0.68        0.62     14/15
#     302  4.40 M   0.85        0.73     14/15
#     600  19.6 M   2.65        1.78      5/5
#    1200  87.2 M   9.96        6.19      6/6
# Two threads break even near 1.8 M fibers, so one must have half of that.
_WORKER_FIBERS = 900_000


def _compute_missing(
    families: list[CurveFamily], missing: dict[int, list[int]], r_max: int, workers: int
) -> dict[tuple[int, int], MomentRecord]:
    """Records keyed by (family position, p) for every p -> family positions in `missing`.

    One task per prime covers all of that prime's families, so the prime's
    trace tables are built once and shared. Each S_r is an exact integer, so
    the records are identical for any worker count and completion order.
    Below two workers' worth of fibers the tasks run in-process; above, a
    thread pool takes them largest p first, so no thread is left with a tail
    of the biggest primes. The numpy kernel releases the GIL, so the threads
    run in parallel on the families and rows they share. The trace engine
    (and with it numpy) is imported only when there is something to compute.
    """
    if not missing:
        return {}
    from .traces import coefficient_rows, prime_moment_sums

    rows = coefficient_rows(families)

    def prime_records(task: tuple[int, list[int]]) -> list[MomentRecord]:
        p, positions = task
        return prime_moment_sums([families[i] for i in positions], p, r_max,
                                 [rows[i] for i in positions])

    largest_first = sorted(missing.items(), reverse=True)
    work = sum(p * len(positions) for p, positions in largest_first)
    n_threads = min(workers, len(largest_first), work // _WORKER_FIBERS)
    if n_threads <= 1:
        results = map(prime_records, largest_first)
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(n_threads) as pool:
            # read in the block, so that an interrupt cancels the primes not yet started
            results = list(pool.map(prime_records, largest_first))
    keys = ((i, p) for p, positions in largest_first for i in positions)
    return dict(zip(keys, (rec for recs in results for rec in recs)))


def compute_records(
    families: list[CurveFamily], primes: list[int], r_max: int = DEFAULT_R_MAX, workers: int = 1
) -> list[MomentRecord]:
    """MomentRecords of every family at each prime of `primes`.

    Family-major order: the primes of the first family in the order given,
    then the next family.
    """
    everything = {p: list(range(len(families))) for p in primes} if families else {}
    done = _compute_missing(families, everything, r_max, workers)
    return [done[(i, p)] for i in range(len(families)) for p in primes]


def run_moments(config: RunConfig) -> tuple[str, list[MomentRecord]]:
    """Compute the configured grid and write <out>/moments.csv atomically.

    With resume on, (family, prime) pairs already present in the CSV are kept
    as-is and only the missing pairs are computed; the rewritten file is
    byte-identical to a fresh full run.
    """
    config.validate()
    families = load_families(config)
    path = moments_csv_path(config)
    primes = config.primes()
    have: dict[tuple[str, int], MomentRecord] = {}
    if config.resume:
        try:
            file_r_max, existing = read_moments_csv(path)
        except FileNotFoundError:
            existing = []
            file_r_max = config.r_max
        if file_r_max != config.r_max:
            raise ValidationError(
                "%s holds S1..S%d but this run wants S1..S%d"
                % (path, file_r_max, config.r_max)
            )
        names = {fam.name for fam in families}
        window = set(primes)
        outside = 0
        unknown: dict[str, None] = {}  # first-seen order
        for rec in existing:
            if rec.family not in names:
                unknown[rec.family] = None
            elif rec.p in window:
                have[(rec.family, rec.p)] = rec
            else:
                outside += 1
        for name in unknown:
            print("warning: dropping CSV rows for unknown family %r" % (name,), file=sys.stderr)
        if outside:
            print("warning: dropping %d CSV rows outside prime indices %d..%d"
                  % (outside, config.start, config.end), file=sys.stderr)
    missing = {}
    for p in primes:
        positions = [i for i, fam in enumerate(families) if (fam.name, p) not in have]
        if positions:
            missing[p] = positions
    for (i, p), rec in _compute_missing(families, missing, config.r_max, config.workers).items():
        have[(families[i].name, p)] = rec
    ordered = [have[(fam.name, p)] for fam in families for p in primes]
    write_moments_csv(path, ordered, config.r_max)
    return path, ordered
