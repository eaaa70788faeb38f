"""Parallel moment computation, one task per prime, with CSV resume."""

from __future__ import annotations

import sys
from concurrent.futures import ProcessPoolExecutor

from .families import CurveFamily
from .io import (
    RunConfig,
    ValidationError,
    load_families,
    moments_csv_path,
    read_moments_csv,
    write_moments_csv,
)
from .modular import sieve_primes
from .traces import MomentRecord, moment_sums


def _prime_task(task) -> list[MomentRecord]:
    families, p, r_max = task
    return [moment_sums(fam, p, r_max) for fam in families]


def _compute_missing(
    families: list[CurveFamily], missing: dict[int, list[int]], r_max: int, workers: int
) -> dict[tuple[int, int], MomentRecord]:
    """Records keyed by (family position, p) for every p -> family positions in `missing`.

    One task per prime covers all of that prime's families, so the prime's
    trace tables are built once and shared. Each S_r is an exact integer, so
    the records are identical for any worker count.
    """
    keys = [(i, p) for p, positions in missing.items() for i in positions]
    tasks = [([families[i] for i in positions], p, r_max) for p, positions in missing.items()]
    if workers <= 1 or len(tasks) <= 1:
        results = [_prime_task(t) for t in tasks]
    else:
        chunk = max(1, len(tasks) // (workers * 4))
        with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
            results = list(pool.map(_prime_task, tasks, chunksize=chunk))
    return dict(zip(keys, (rec for recs in results for rec in recs)))


def compute_records(
    families: list[CurveFamily], start: int, end: int, r_max: int = 7, workers: int = 1
) -> list[MomentRecord]:
    """MomentRecords for prime indices start..end (1-based, inclusive), every family.

    Family-major order: all primes of the first family, then the next.
    """
    primes = sieve_primes(end)[start - 1 : end]
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
    primes = sieve_primes(config.end)[config.start - 1 : config.end]
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
        for rec in existing:
            if rec.family not in names:
                print("warning: dropping CSV rows for unknown family %r" % (rec.family,),
                      file=sys.stderr)
            elif rec.p in window:
                have[(rec.family, rec.p)] = rec
            else:
                outside += 1
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
