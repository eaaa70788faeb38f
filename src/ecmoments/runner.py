"""Moment computation, one task per prime, in-process or in a thread pool, with CSV resume."""

from __future__ import annotations

import sys
from pathlib import Path

from .families import DEFAULT_R_MAX, CurveFamily, MomentRecord
from .io import (
    RunConfig,
    ValidationError,
    load_families,
    moments_csv_path,
    read_moments_csv,
    write_moments_csv,
)


# The least prime that repays a worker thread: two threads won every pair from
# p = 21000 on, and gained 10 % at most below 16000; see the ladder in README.
_THREAD_MIN_P = 20_000


def _map_primes(task, primes, workers: int) -> dict:
    """{p: task(p)} for every p of `primes`, in-process or on a thread pool.

    One thread per prime of at least _THREAD_MIN_P, up to `workers`, and in-process
    below two. A pool takes the window's smaller primes too, which beat computing
    them after it (README), largest p first so that no thread is left with a tail
    of the biggest. Each result is exact, the same for any order.
    """
    largest_first = sorted(primes, reverse=True)
    n_threads = min(workers, sum(p >= _THREAD_MIN_P for p in largest_first))
    if n_threads <= 1:
        results = map(task, largest_first)
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(n_threads) as pool:
            # read in the block, so that an interrupt cancels the primes not yet started
            results = list(pool.map(task, largest_first))
    return dict(zip(largest_first, results))


def _compute_missing(
    families: list[CurveFamily], primes: list[int], have: dict, r_max: int, workers: int
) -> dict[tuple[str, int], MomentRecord]:
    """Fill `have`, keyed by (family, p), with every family's records at `primes` that it lacks.

    Returns `have`. Records are keyed by family name, so ValueError when two families
    share one. One task per prime covers all of that prime's missing families, so its trace
    tables are built once. The trace engine (and numpy) is imported only when needed.
    """
    if len({fam.name for fam in families}) < len(families):
        raise ValueError("records are keyed by family name, so the names must be distinct")
    missing = {p: [i for i, fam in enumerate(families) if (fam.name, p) not in have]
               for p in primes}
    todo = [p for p, positions in missing.items() if positions]
    if not todo:
        return have
    from .traces import coefficient_rows, prime_moment_sums

    rows = coefficient_rows(families)

    def prime_records(p: int) -> list[MomentRecord]:
        return prime_moment_sums([families[i] for i in missing[p]], p, r_max,
                                 [rows[i] for i in missing[p]])

    done = _map_primes(prime_records, todo, workers)
    have.update(((rec.family, rec.p), rec) for recs in done.values() for rec in recs)
    return have


def oracle_verdicts(families: list[CurveFamily], samples: dict[int, list], workers: int) -> dict:
    """{p: traces.prime_oracle_check of every family at p}, samples[p][f] the t of families[f]."""
    from .traces import coefficient_rows, prime_oracle_check

    rows = coefficient_rows(families)
    return _map_primes(lambda p: prime_oracle_check(families, p, samples[p], rows), samples,
                       workers)


def compute_records(
    families: list[CurveFamily], primes: list[int], r_max: int = DEFAULT_R_MAX, workers: int = 1
) -> list[MomentRecord]:
    """MomentRecords of every family at each prime of `primes`.

    Family-major order: the primes of the first family in the order given,
    then the next family.
    """
    done = _compute_missing(families, primes, {}, r_max, workers)
    return [done[(fam.name, p)] for fam in families for p in primes]


def stored_records(
    config: RunConfig, families: list[CurveFamily], primes: list[int]
) -> dict[tuple[str, int], MomentRecord]:
    """Rows of <out>/moments.csv keyed by (family, p), for `families` at `primes`.

    Rows are trusted by family name: the CSV records no coefficients. A missing
    file, or an out_dir that is not a directory, holds no rows. With resume on,
    the CSV must hold exactly S1..S_r_max, and the rows that the rewrite drops
    are warned of on stderr. Otherwise a CSV of fewer moments gives no rows,
    and rows not asked for are passed over in silence: nothing is rewritten.
    """
    path = moments_csv_path(config)
    try:
        file_r_max, existing = read_moments_csv(path)
    except (FileNotFoundError, NotADirectoryError):
        return {}
    if config.resume and file_r_max != config.r_max:
        raise ValidationError(
            "%s holds S1..S%d but this run wants S1..S%d" % (path, file_r_max, config.r_max)
        )
    if file_r_max < config.r_max:
        return {}
    names = {fam.name for fam in families}
    wanted = set(primes)
    have = {(rec.family, rec.p): rec for rec in existing
            if rec.family in names and rec.p in wanted}
    if config.resume:
        for name in dict.fromkeys(rec.family for rec in existing if rec.family not in names):
            print("warning: dropping CSV rows for unknown family %r" % (name,), file=sys.stderr)
        outside = sum(rec.family in names and rec.p not in wanted for rec in existing)
        if outside:
            print("warning: dropping %d CSV rows outside prime indices %d..%d"
                  % (outside, config.start, config.end), file=sys.stderr)
    return have


def stored_or_computed(
    config: RunConfig, families: list[CurveFamily], primes: list[int]
) -> dict[tuple[str, int], MomentRecord]:
    """Records keyed by (family, p) of every family at `primes`, holding S1..S_r_max at least.

    The pairs stored_records finds are read from <out>/moments.csv and the rest
    computed. With no primes, no CSV is read.
    """
    have = stored_records(config, families, primes) if primes else {}
    return _compute_missing(families, primes, have, config.r_max, config.workers)


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
    have = stored_records(config, families, primes) if config.resume else {}
    if Path(path).parent.exists():  # a file in its place raises here, before any prime is computed
        Path(path).parent.mkdir(exist_ok=True)
    _compute_missing(families, primes, have, config.r_max, config.workers)
    ordered = [have[(fam.name, p)] for fam in families for p in primes]
    write_moments_csv(path, ordered, config.r_max)
    return path, ordered
