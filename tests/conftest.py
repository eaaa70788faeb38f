"""Shared fixtures: the corpus moment grid reused across the acceptance gates, and the pool."""

import pytest

from ecmoments import builtin_corpus
from ecmoments import runner, sieve_primes
from ecmoments.runner import compute_records

# prime indices 3..302 give the first 300 odd primes past 3: p = 5 .. 1997
CORPUS_START = 3
CORPUS_END = 302
CORPUS_RMAX = 7


@pytest.fixture(scope="session")
def corpus_families():
    return builtin_corpus()


@pytest.fixture(scope="session")
def corpus_records(corpus_families):
    """Exact S_1..S_7 for every corpus family over the 300-prime window.

    Computed once per session (about a second); every acceptance
    criterion that consumes moment data slices this grid.
    """
    return compute_records(
        corpus_families, sieve_primes(CORPUS_END)[CORPUS_START - 1 :], r_max=CORPUS_RMAX,
        workers=1,
    )


@pytest.fixture(scope="session")
def records_by_family(corpus_records):
    out = {}
    for rec in corpus_records:
        out.setdefault(rec.family, []).append(rec)
    for recs in out.values():
        recs.sort(key=lambda r: r.p)
    return out


@pytest.fixture
def force_pool(monkeypatch):
    """Start the thread pool on any window, however small, when workers > 1.

    The runner starts a thread only for a prime large enough to repay it;
    the tests' primes are far below that, so worker-count tests lower the
    threshold to keep the pool's results under test.
    """
    monkeypatch.setattr(runner, "_THREAD_MIN_P", 1)
