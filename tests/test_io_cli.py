"""Family files, CSV persistence, the runner, the report, SVGs, and the CLI."""

import json
import os
import subprocess
import sys
import threading
import xml.etree.ElementTree as ET
from fractions import Fraction
from pathlib import Path

import pytest

import ecmoments
from ecmoments import (
    FamilyParseError,
    Histogram,
    RunConfig,
    ValidationError,
    builtin_corpus,
    compute_records,
    corpus_family,
    emit_histogram_svg,
    family,
    family_file_text,
    moment_sums,
    parse_family_file,
    rank6_family,
    read_moments_csv,
    run_moments,
    run_report,
    sieve_primes,
    write_moments_csv,
)
from ecmoments.cli import main
from ecmoments.families import T
from ecmoments.io import (
    FSYNC_THREADS,
    atomic_write_files,
    atomic_write_text,
    moments_csv_path,
    moments_csv_text,
)
from ecmoments.traces import MomentRecord

FAMILY_JSON = """\
[
  {"name": "fam_a", "a1": ["1"], "a2": [], "a3": [], "a4": ["-1"],
   "a6": ["0", "1"], "expected_rank": 0},
  {"name": "fam_b", "a1": ["1"], "a2": [], "a3": [], "a4": ["0", "1"], "a6": []}
]
"""


@pytest.fixture
def family_file(tmp_path):
    path = tmp_path / "families.json"
    path.write_text(FAMILY_JSON, encoding="utf-8")
    return str(path)


# ----------------------------------------------------------------- family files


def test_family_file_round_trip(tmp_path):
    fams = builtin_corpus() + [rank6_family()]
    path = tmp_path / "corpus.json"
    path.write_text(family_file_text(fams), encoding="utf-8")
    assert parse_family_file(path) == fams


def test_parse_family_file_example(family_file):
    fam_a, fam_b = parse_family_file(family_file)
    ref = corpus_family("1_0_0_-1_t")
    assert (fam_a.a1, fam_a.a2, fam_a.a3, fam_a.a4, fam_a.a6) == (
        ref.a1, ref.a2, ref.a3, ref.a4, ref.a6,
    )
    assert fam_a.expected_rank == 0
    assert fam_b.expected_rank is None


def test_parse_family_file_accepts_bare_integers(tmp_path):
    text = json.dumps(
        [{"name": "x", "a1": [1], "a2": ["0", "1"], "a3": [-19], "a4": ["-1", -1], "a6": ["0"]}]
    )
    path = tmp_path / "mixed.json"
    path.write_text(text, encoding="utf-8")
    (fam,) = parse_family_file(path)
    ref = corpus_family("1_t_-19_-t-1_0")
    assert (fam.a1, fam.a2, fam.a3, fam.a4, fam.a6) == (
        ref.a1, ref.a2, ref.a3, ref.a4, ref.a6,
    )


def test_parse_family_file_empty(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text("", encoding="utf-8")
    assert parse_family_file(path) == []
    path.write_text("  \n", encoding="utf-8")
    assert parse_family_file(path) == []


@pytest.mark.parametrize(
    "payload",
    [
        '{"name": "x"}',  # not a list
        "[42]",  # entry not an object
        '[{"name": "x", "a1": [], "a2": [], "a3": [], "a4": [], "a6": [], "a5": []}]',
        '[{"a1": [], "a2": [], "a3": [], "a4": ["1"], "a6": []}]',  # no name
        '[{"name": "", "a1": [], "a2": [], "a3": [], "a4": ["1"], "a6": []}]',
        '[{"name": "x", "a1": [], "a2": [], "a3": [], "a6": ["1"]}]',  # missing a4
        '[{"name": "x", "a1": "1", "a2": [], "a3": [], "a4": ["1"], "a6": []}]',
        '[{"name": "x", "a1": [true], "a2": [], "a3": [], "a4": ["1"], "a6": []}]',
        '[{"name": "x", "a1": ["one"], "a2": [], "a3": [], "a4": ["1"], "a6": []}]',
        '[{"name": "x", "a1": [1.5], "a2": [], "a3": [], "a4": ["1"], "a6": []}]',
        '[{"name": "x", "a1": [], "a2": [], "a3": [], "a4": ["1"], "a6": [],'
        ' "expected_rank": -1}]',
        '[{"name": "x", "a1": [], "a2": [], "a3": [], "a4": ["1"], "a6": [],'
        ' "expected_rank": true}]',
        '[{"name": "x", "a1": [], "a2": [], "a3": [], "a4": [], "a6": []}]',  # degenerate
        "[",  # invalid JSON
    ],
)
def test_parse_family_file_rejects(tmp_path, payload):
    path = tmp_path / "bad.json"
    path.write_text(payload, encoding="utf-8")
    with pytest.raises(FamilyParseError):
        parse_family_file(path)


def test_parse_family_file_rejects_duplicates(tmp_path):
    entry = {"name": "x", "a1": ["1"], "a2": [], "a3": [], "a4": ["-1"], "a6": ["0", "1"]}
    path = tmp_path / "dup.json"
    path.write_text(json.dumps([entry, entry]), encoding="utf-8")
    with pytest.raises(FamilyParseError):
        parse_family_file(path)


# ------------------------------------------------------------------ run config


def test_run_config_validation():
    RunConfig().validate()
    bad = [
        {"start": 2},
        {"start": 10, "end": 9},
        {"r_max": 0},
        {"r_max": 9},
        {"block_size": 0},
        {"modulus_exponents": (5, 0, 0)},
        {"modulus_exponents": (0, 0, 2)},
        {"exponent2": Fraction(1, 2)},
        {"exponent2": 2},
        {"workers": 0},
    ]
    for kwargs in bad:
        with pytest.raises(ValidationError):
            RunConfig(**kwargs).validate()
    RunConfig(exponent2=Fraction(1)).validate()


def test_end_indices_beyond_the_largest_modulus_are_rejected_before_sieving(
    monkeypatch, tmp_path, capsys
):
    from ecmoments import modular

    def no_sieve(n):
        raise AssertionError("sieved up to %d" % (n,))

    monkeypatch.setattr(modular, "_prime_mask", no_sieve)
    # Dusart's lower bound on the n-th prime first exceeds 3037000499 at n = 146458659
    RunConfig(end=146458658).validate()
    with pytest.raises(ValidationError, match="3037000499"):
        RunConfig(end=146458659).validate()
    for argv in (["moments", "--end", "1000000000"], ["verify", "--end", "200000000"]):
        assert main(argv + ["--out", str(tmp_path)]) == 1
        assert "3037000499" in capsys.readouterr().err


def test_moments_csv_path():
    assert moments_csv_path(RunConfig(out_dir="there")) == os.path.join("there", "moments.csv")


# ------------------------------------------------------------------------- csv


def test_moments_csv_text_golden():
    recs = [MomentRecord("f", 3, 5, (1, 2))]
    assert moments_csv_text(recs, 2) == "family,prime_index,p,S1,S2\nf,3,5,1,2\n"
    with pytest.raises(ValidationError):
        moments_csv_text(recs, 3)


def test_csv_round_trip_with_wide_integers(tmp_path):
    big = 2**127 + 9
    recs = [
        MomentRecord("wide", 3, 5, (0, 4, -8, 16, -32, 64, -big)),
        MomentRecord("wide", 4, 7, (1, 2, 3, 4, 5, 6, big)),
    ]
    path = tmp_path / "m.csv"
    write_moments_csv(path, recs, 7)
    r_max, back = read_moments_csv(path)
    assert r_max == 7 and back == recs


def test_read_moments_csv_header_errors(tmp_path):
    path = tmp_path / "m.csv"
    for text in (
        "",
        "family,index,p,S1\n",
        "family,prime_index,p\n",
        "family,prime_index,p,S1,S3\n",
    ):
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValidationError):
            read_moments_csv(path)


def test_read_moments_csv_malformed_rows(tmp_path, capsys):
    path = tmp_path / "m.csv"
    path.write_text("family,prime_index,p,S1\nf,3,5,0\nf,4,oops,0\nf,5,11,0\n", encoding="utf-8")
    with pytest.raises(ValidationError):
        read_moments_csv(path)
    # but a mangled final row is dropped, with a warning that names its line
    path.write_text("family,prime_index,p,S1\nf,3,5,0\nf,4,7\n", encoding="utf-8")
    r_max, recs = read_moments_csv(path)
    assert r_max == 1 and recs == [MomentRecord("f", 3, 5, (0,))]
    assert capsys.readouterr().err == (
        "warning: %s: dropped malformed final row at line 3\n" % (path,))


def test_atomic_write_text(tmp_path):
    path = tmp_path / "deep" / "nested" / "file.txt"
    atomic_write_text(path, "payload")
    assert path.read_text(encoding="utf-8") == "payload"
    assert os.listdir(path.parent) == ["file.txt"]  # no .tmp left behind


def test_atomic_write_files_fsyncs_every_file_before_any_rename(tmp_path, monkeypatch):
    import stat

    started = []

    class CountingThread(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    events = []  # ("file" | "dir", inode) after each fsync, ("replace", target) on each rename
    real_replace = os.replace

    def fsync(fd):
        st = os.fstat(fd)
        events.append(("dir" if stat.S_ISDIR(st.st_mode) else "file", st.st_ino))

    def replace(src, dst):
        events.append(("replace", str(dst)))
        real_replace(src, dst)

    monkeypatch.setattr(threading, "Thread", CountingThread)
    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    dirs = [tmp_path / "a", tmp_path / "b" / "c"]
    texts = {str(dirs[i % 2] / ("f%03d.svg" % i)): "text %d\n" % i for i in range(289)}
    atomic_write_files(texts)

    assert 1 <= len(started) <= FSYNC_THREADS
    for path, text in texts.items():
        assert Path(path).read_text(encoding="utf-8") == text
    assert sorted(p for kind, p in events if kind == "replace") == sorted(texts)
    file_fsyncs = [ino for kind, ino in events if kind == "file"]
    assert sorted(file_fsyncs) == sorted(os.stat(path).st_ino for path in texts)  # once each
    kinds = [kind for kind, _ in events]
    last_file = max(i for i, kind in enumerate(kinds) if kind == "file")
    replaces = [i for i, kind in enumerate(kinds) if kind == "replace"]
    assert last_file < replaces[0]
    dir_fsyncs = [(i, ino) for i, (kind, ino) in enumerate(events) if kind == "dir"]
    assert sorted(ino for _, ino in dir_fsyncs) == sorted(os.stat(d).st_ino for d in dirs)
    assert all(i > replaces[-1] for i, _ in dir_fsyncs)
    assert not list(tmp_path.rglob("*.tmp"))


def test_atomic_write_files_cleans_up_when_an_fsync_fails(tmp_path, monkeypatch):
    paths = [tmp_path / ("f%d.svg" % i) for i in range(5)]
    for i, path in enumerate(paths):
        path.write_text("old %d\n" % i, encoding="utf-8")
    calls = []
    lock = threading.Lock()  # the batch fsyncs on several threads
    real_fsync = os.fsync

    def fsync(fd):
        with lock:
            calls.append(fd)
            if len(calls) == 3:
                raise OSError(5, "injected fsync failure")
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", fsync)
    with pytest.raises(OSError, match="injected"):
        atomic_write_files({path: "new\n" for path in paths})
    assert sorted(os.listdir(tmp_path)) == sorted(path.name for path in paths)  # no .tmp
    for i, path in enumerate(paths):
        assert path.read_text(encoding="utf-8") == "old %d\n" % i


# ---------------------------------------------------------------------- runner


def test_compute_records_order_and_workers(family_file, force_pool):
    fams = parse_family_file(family_file)
    one = compute_records(fams, 3, 10, r_max=2, workers=1)
    assert [(r.family, r.p) for r in one[:3]] == [("fam_a", 5), ("fam_a", 7), ("fam_a", 11)]
    assert len(one) == 2 * 8
    assert compute_records(fams, 3, 10, r_max=2, workers=3) == one
    for rec in one:
        assert rec == moment_sums(next(f for f in fams if f.name == rec.family), rec.p, 2)


def test_run_moments_and_resume(tmp_path, family_file, capsys):
    cfg = RunConfig(families_path=family_file, start=3, end=10, r_max=5,
                    out_dir=str(tmp_path / "out"))
    path, records = run_moments(cfg)
    assert path == str(tmp_path / "out" / "moments.csv")
    fresh = open(path, encoding="utf-8").read()
    assert read_moments_csv(path) == (5, records)

    # drop the last rows, leave a truncated line, then resume to byte parity
    lines = fresh.splitlines(keepends=True)
    open(path, "w", encoding="utf-8").write("".join(lines[:6]) + "fam_b,5,1")
    resumed_cfg = cfg._replace(resume=True)
    run_moments(resumed_cfg)
    assert open(path, encoding="utf-8").read() == fresh

    # rows for unknown families are dropped with a warning
    open(path, "w", encoding="utf-8").write(lines[0] + "ghost,3,5,0,0,0,0,0\n" + "".join(lines[1:]))
    run_moments(resumed_cfg)
    assert "unknown family" in capsys.readouterr().err
    assert open(path, encoding="utf-8").read() == fresh

    with pytest.raises(ValidationError):
        run_moments(cfg._replace(r_max=4, resume=True))


def test_resume_warns_on_rows_outside_the_window(tmp_path, family_file, capsys):
    out = str(tmp_path / "out")
    common = ["--families", family_file, "--rmax", "3", "--out", out]
    assert main(["moments", "--end", "6"] + common) == 0
    narrow = open(os.path.join(out, "moments.csv"), encoding="utf-8").read()
    stdout = capsys.readouterr().out
    assert main(["moments", "--end", "10"] + common) == 0
    capsys.readouterr()
    assert main(["moments", "--end", "6", "--resume"] + common) == 0
    captured = capsys.readouterr()
    # two families at the four primes of indices 7..10
    assert captured.err == "warning: dropping 8 CSV rows outside prime indices 3..6\n"
    assert captured.out == stdout
    assert open(os.path.join(out, "moments.csv"), encoding="utf-8").read() == narrow


def test_resume_warns_once_per_unknown_family(tmp_path, capsys):
    corpus = builtin_corpus()
    one = tmp_path / "one.json"
    one.write_text(family_file_text(corpus[:1]), encoding="utf-8")
    fresh_out, out = str(tmp_path / "fresh"), str(tmp_path / "out")
    assert main(["moments", "--end", "12", "--families", str(one), "--out", fresh_out]) == 0
    fresh_stdout = capsys.readouterr().out
    assert main(["moments", "--end", "12", "--out", out]) == 0
    capsys.readouterr()
    assert main(["moments", "--end", "12", "--resume", "--families", str(one), "--out", out]) == 0
    captured = capsys.readouterr()
    # 15 dropped families, 10 rows each, one line per family in CSV order
    assert captured.err.splitlines() == [
        "warning: dropping CSV rows for unknown family %r" % (fam.name,) for fam in corpus[1:]]
    assert captured.out == fresh_stdout.replace(fresh_out, out)
    assert (open(os.path.join(out, "moments.csv"), "rb").read()
            == open(os.path.join(fresh_out, "moments.csv"), "rb").read())


def test_resume_fills_pairs_scattered_across_primes(tmp_path, family_file, force_pool):
    cfg = RunConfig(families_path=family_file, start=3, end=14, r_max=4,
                    out_dir=str(tmp_path / "out"))
    path, _ = run_moments(cfg)
    fresh = open(path, encoding="utf-8").read()
    lines = fresh.splitlines(keepends=True)
    # drop rows of both families at different primes, a prime that loses both
    kept = [line for i, line in enumerate(lines) if i not in (2, 5, 6, 9, 14, 17, 21)]
    open(path, "w", encoding="utf-8").write("".join(kept))
    for workers in (1, 3):
        run_moments(cfg._replace(resume=True, workers=workers))
        assert open(path, encoding="utf-8").read() == fresh
        open(path, "w", encoding="utf-8").write("".join(kept))


def test_run_moments_deterministic_across_workers(tmp_path, family_file, force_pool):
    texts = []
    for workers in (1, 3):
        out = tmp_path / ("w%d" % workers)
        cfg = RunConfig(families_path=family_file, start=3, end=12, r_max=3,
                        out_dir=str(out), workers=workers)
        path, _ = run_moments(cfg)
        texts.append(open(path, "rb").read())
    assert texts[0] == texts[1]


@pytest.fixture
def pool_spy(monkeypatch):
    """Record each pool the runner starts: its size and the primes of its tasks in order."""
    import concurrent.futures

    pools = []

    class Spy(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            pools.append({"workers": max_workers})
            super().__init__(max_workers, **kwargs)

        def map(self, fn, tasks, chunksize=1):
            tasks = list(tasks)  # (p, family positions)
            pools[-1].update(primes=[p for p, _ in tasks], chunksize=chunksize)
            return super().map(fn, tasks, chunksize=chunksize)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Spy)
    return pools


def test_pool_takes_largest_primes_first(family_file, force_pool, pool_spy):
    fams = parse_family_file(family_file)
    # 11 primes over 3 workers: no even split, and the last prime costs the most
    in_process = compute_records(fams, 3, 13, r_max=4, workers=1)
    assert pool_spy == []
    assert compute_records(fams, 3, 13, r_max=4, workers=3) == in_process
    primes = sieve_primes(13)[2:]
    assert pool_spy == [{"workers": 3, "primes": primes[::-1], "chunksize": 1}]


def test_pool_starts_at_the_measured_crossover(pool_spy):
    corpus = builtin_corpus()
    # 1.59 M fibers, just below two threads' break-even, then 1.99 M
    compute_records(corpus, 3, 190, r_max=1, workers=2)
    assert pool_spy == []
    compute_records(corpus, 3, 210, r_max=1, workers=2)
    assert [pool["workers"] for pool in pool_spy] == [2]


def test_threads_build_each_prime_tables_once(monkeypatch, force_pool, pool_spy):
    from collections import Counter

    import ecmoments.traces as traces

    fetches, builds = Counter(), Counter()
    real_tables, real_spectrum = traces.trace_tables, traces._chi_spectrum

    def fetched(p):
        fetches[p] += 1
        return real_tables(p)

    def built(chi):
        builds[len(chi)] += 1
        return real_spectrum(chi)

    fams = builtin_corpus()[:6]
    expected = compute_records(fams, 3, 12, r_max=2)
    monkeypatch.setattr(traces, "trace_tables", fetched)
    monkeypatch.setattr(traces, "_chi_spectrum", built)
    monkeypatch.setattr(traces, "_BLOCK_FIBERS", 1)  # a block per family at every prime
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # more threads than cores, switching as often as they can
    try:
        assert compute_records(fams, 3, 12, r_max=2, workers=4) == expected
    finally:
        sys.setswitchinterval(interval)
    assert [pool["workers"] for pool in pool_spy] == [4]
    once = Counter(sieve_primes(12)[2:])
    assert fetches == once  # not once per block
    assert builds == once


def test_trace_tables_are_freed_when_their_task_returns(monkeypatch, force_pool):
    import gc
    import weakref

    import ecmoments.traces as traces

    refs = []
    real = traces.trace_tables

    def watched(p):
        tt = real(p)
        refs.append(weakref.ref(tt.ss))
        return tt

    monkeypatch.setattr(traces, "trace_tables", watched)
    fams = builtin_corpus()[:4]
    compute_records(fams, 3, 7, r_max=2)  # in-process
    compute_records(fams, 3, 7, r_max=2, workers=2)  # in the thread pool
    gc.collect()
    assert len(refs) == 10
    assert [ref for ref in refs if ref() is not None] == []


def test_pool_size_follows_the_work(monkeypatch, family_file, pool_spy):
    import ecmoments.runner as runner

    fams = parse_family_file(family_file)
    work = len(fams) * sum(sieve_primes(13)[2:])  # fibers of the window
    expected = compute_records(fams, 3, 13, r_max=3)
    for fibers_per_worker, started in ((work // 2 + 1, []), (work // 2, [2]), (1, [2, 4])):
        monkeypatch.setattr(runner, "_WORKER_FIBERS", fibers_per_worker)
        assert compute_records(fams, 3, 13, r_max=3, workers=4) == expected
        assert [pool["workers"] for pool in pool_spy] == started


# ---------------------------------------------------------------------- report


def test_run_report_content_and_gaps(tmp_path):
    fam = corpus_family("1_0_0_-1_t")
    recs = [moment_sums(fam, p, 7) for p in (5, 7, 13)]  # index 5 (p=11) missing
    csv_path = tmp_path / "m.csv"
    write_moments_csv(csv_path, recs, 7)
    cfg = RunConfig(out_dir=str(tmp_path))
    text, (rep,) = run_report(csv_path, cfg)
    assert rep.gaps == (5,)
    assert "missing prime indices 5" in text
    assert "== family 1_0_0_-1_t (expected rank 0) ==" in text
    assert "blocks of 50:" in text and "blocks of 10:" in text
    assert "S3 / p^2: mean" in text
    assert "catalan k=1" in text
    assert "rank estimate at x=13:" in text
    for svg in rep.svg_paths:
        assert os.path.exists(svg)
    names = {os.path.basename(s) for s in rep.svg_paths}
    assert names == {"1_0_0_-1_t_S%d_b%d.svg" % (r, b) for r in (2, 4, 6) for b in (50, 10)}


def test_run_report_unconfigured_rank_note(tmp_path, family_file):
    fams = parse_family_file(family_file)
    recs = compute_records(fams[1:], 3, 6, r_max=7)
    csv_path = tmp_path / "m.csv"
    write_moments_csv(csv_path, recs, 7)
    cfg = RunConfig(families_path=family_file, out_dir=str(tmp_path))
    text, (rep,) = run_report(csv_path, cfg)
    assert rep.expected_rank is None
    assert "no expected_rank configured" in text


def test_run_report_sorts_each_family_once(monkeypatch, tmp_path):
    import random

    from ecmoments import bias, report

    fams = builtin_corpus()[:2]
    recs = compute_records(fams, 3, 40, r_max=7)
    random.Random(3).shuffle(recs)
    csv_path = tmp_path / "m.csv"
    write_moments_csv(csv_path, recs, 7)
    sorts = []

    def counted_sorted(*args, **kwargs):
        sorts.append(1)
        return sorted(*args, **kwargs)

    monkeypatch.setattr(bias, "sorted", counted_sorted, raising=False)
    outputs = []
    for name in ("once", "per_series"):
        out = tmp_path / name
        text, reps = run_report(csv_path, RunConfig(out_dir=str(out)))
        svgs = {os.path.basename(s): open(s, "rb").read() for rep in reps for s in rep.svg_paths}
        outputs.append((text, svgs))
        if name == "once":
            assert len(sorts) == len(fams)
            # from here on every series function sorts and checks its own records
            monkeypatch.setattr(report, "sort_records",
                                lambda records, r_max: sorted(records, key=lambda rec: rec.p))
    # ten series per family: S2, S4 and S6 residuals, S3, S5 and S7 means,
    # three Catalan checks and the rank estimate
    assert len(sorts) == len(fams) + 10 * len(fams)
    assert outputs[0] == outputs[1]


def test_run_report_rejects_empty_csv(tmp_path):
    csv_path = tmp_path / "m.csv"
    csv_path.write_text("family,prime_index,p,S1\n", encoding="utf-8")
    with pytest.raises(ValueError):
        run_report(csv_path, RunConfig(out_dir=str(tmp_path)))


# ------------------------------------------------------------------------- svg


def test_svg_structure_and_determinism():
    hist = Histogram((-2.0, -0.5, 1.0), (2, 2))
    title = "means & <tails>"
    svg = emit_histogram_svg(hist, title)
    assert svg == emit_histogram_svg(hist, title)
    assert svg.startswith('<?xml version="1.0" encoding="UTF-8"?>')
    root = ET.fromstring(svg)
    ns = "{http://www.w3.org/2000/svg}"
    assert root.tag == ns + "svg"
    assert root.attrib["version"] == "1.1"
    assert root.attrib["viewBox"] == "0 0 800 600"
    rects = root.findall(ns + "rect")
    bars = [r for r in rects if r.attrib.get("fill") == "#4878a8"]
    assert len(bars) == 2
    assert rects[0].attrib["fill"] == "white"
    texts = [t.text for t in root.findall(ns + "text")]
    assert title in texts  # escaping round-trips through the XML parser


def test_svg_degenerate_histogram():
    svg = emit_histogram_svg(Histogram((-1.5, -0.5), (3,)), "flat")
    root = ET.fromstring(svg)
    ns = "{http://www.w3.org/2000/svg}"
    bars = [r for r in root.findall(ns + "rect") if r.attrib.get("fill") == "#4878a8"]
    assert len(bars) == 1


# ------------------------------------------------------------------------- cli


def test_cli_moments_and_report(tmp_path, family_file, capsys):
    out = str(tmp_path / "out")
    rc = main(["moments", "--families", family_file, "--start", "3", "--end", "8",
               "--rmax", "7", "--out", out])
    assert rc == 0
    assert "wrote" in capsys.readouterr().out
    r_max, recs = read_moments_csv(os.path.join(out, "moments.csv"))
    assert r_max == 7 and len(recs) == 2 * 6

    rc = main(["report", "--families", family_file, "--out", out])
    assert rc == 0
    report_text = open(os.path.join(out, "report.txt"), encoding="utf-8").read()
    assert "== family fam_a" in report_text and "== family fam_b" in report_text
    assert os.path.exists(os.path.join(out, "fam_a_S2_b50.svg"))
    assert capsys.readouterr().out.endswith("wrote %s\n" % os.path.join(out, "report.txt"))


def _report_outputs(out) -> dict:
    """Every file `report` wrote under `out`, by name: report.txt and the SVGs."""
    return {path.name: path.read_bytes()
            for path in sorted(Path(out).iterdir()) if path.name != "moments.csv"}


def test_cli_report_adds_s8_only_for_rmax_8(tmp_path, family_file, capsys):
    import hashlib

    outputs = {}
    for r_max in ("7", "8"):
        out = str(tmp_path / r_max)
        window = ["--families", family_file, "--end", "40", "--out", out]
        assert main(["moments", "--rmax", r_max] + window) == 0
        assert main(["report"] + window) == 0
        outputs[r_max] = _report_outputs(out)
    capsys.readouterr()
    # --rmax 7: the names and bytes of every file written before S8 was reported
    digest = hashlib.sha256()
    for name, data in outputs["7"].items():
        digest.update(name.encode() + b"\0" + data + b"\0")
    assert digest.hexdigest() == "b6fba8c640d3d03cac67276787c41afe402ec6137678d6d52472bcb81dbb26cf"
    # --rmax 8: the same files plus one S8 section and two S8 SVGs per family
    s8_svgs = {"fam_%s_S8_b%d.svg" % (f, b) for f in "ab" for b in (10, 50)}
    assert set(outputs["8"]) == set(outputs["7"]) | s8_svgs
    for name in outputs["7"]:
        if name != "report.txt":
            assert outputs["8"][name] == outputs["7"][name], name
    text7 = outputs["7"]["report.txt"].decode().splitlines()
    text8 = outputs["8"]["report.txt"].decode().splitlines()
    s8 = [i for i, line in enumerate(text8) if line.startswith("S8 residual (S8 - 14 p^5) / p^9/2:")]
    assert len(s8) == 2
    for i in s8:
        assert text8[i - 3].startswith("S6 residual")  # right after the S6 section
        assert text8[i + 1].startswith("  blocks of 50:") and text8[i + 2].startswith("  blocks of 10:")
    assert [line for i, line in enumerate(text8)
            if not any(0 <= i - j <= 2 for j in s8)] == text7


def test_cli_verify_ok(family_file, tmp_path, capsys):
    rc = main(["verify", "--families", family_file, "--start", "3", "--end", "12",
               "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "family fam_a: OK, 10 primes exact" in out
    assert "family fam_b: OK" in out


def test_cli_verify_checks_the_template3_family(tmp_path, capsys):
    # Template3() is falsy, so a truth test in place of `is None` would skip this family
    t3 = tmp_path / "t3.json"
    t3.write_text(family_file_text([corpus_family("0_0_0_-t2_t4")]), encoding="utf-8")
    assert main(["verify", "--families", str(t3), "--end", "12", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert out == "family 0_0_0_-t2_t4: OK, 10 primes exact (10 in the valid range)\n"


def test_cli_discover_verified_and_falsified(tmp_path, capsys):
    corpus = {f.name: f for f in builtin_corpus()}
    t2 = tmp_path / "t2.json"
    t2.write_text(family_file_text([corpus["1_0_0_t_0"]]), encoding="utf-8")
    rc = main(["discover", "--families", str(t2), "--start", "10", "--end", "40",
               "--modulus", "2,0,0", "--out", str(tmp_path)])
    assert rc == 0
    assert "AllClassesVerified (mod 4)" in capsys.readouterr().out

    rank2 = tmp_path / "rank2.json"
    rank2.write_text(family_file_text([corpus["1_t_-19_-t-1_0"]]), encoding="utf-8")
    rc = main(["discover", "--families", str(rank2), "--start", "3", "--end", "40",
               "--modulus", "2,0,0", "--out", str(tmp_path)])
    assert rc == 2
    assert "SomeFalsified" in capsys.readouterr().out


def test_cli_oracle(family_file, tmp_path, capsys):
    rc = main(["oracle", "--families", family_file, "--start", "3", "--end", "4",
               "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "family fam_a p=5: OK (5 fibers)" in out
    assert "family fam_b p=7: OK (7 fibers)" in out


def test_cli_oracle_checks_the_trace_engine(family_file, tmp_path, monkeypatch, capsys):
    import ecmoments.traces as traces

    real = traces._block_traces  # oracle reads the traces that moments sums
    monkeypatch.setattr(traces, "_block_traces", lambda rows, tt: real(rows, tt) + 1)
    rc = main(["oracle", "--families", family_file, "--start", "3", "--end", "3",
               "--out", str(tmp_path)])
    assert rc == 2
    assert "family fam_a p=5: FAIL at t=[0, 1, 2, 3, 4]" in capsys.readouterr().out
    # above p = 61 the fibers are sampled, drawn and printed family-major
    rc = main(["oracle", "--families", family_file, "--start", "19", "--end", "20",
               "--samples", "3", "--out", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().out.splitlines() == [
        "family fam_a p=67: FAIL at t=[5, 49, 53]",
        "family fam_a p=71: FAIL at t=[33, 62, 65]",
        "family fam_b p=67: FAIL at t=[38, 51, 61]",
        "family fam_b p=71: FAIL at t=[27, 45, 64]",
    ]


def test_cli_oracle_builds_each_prime_tables_once(family_file, tmp_path, monkeypatch, capsys):
    from collections import Counter

    import ecmoments.traces as traces

    fetches = Counter()
    real = traces.trace_tables

    def fetched(p):
        fetches[p] += 1
        return real(p)

    monkeypatch.setattr(traces, "trace_tables", fetched)
    assert main(["oracle", "--families", family_file, "--start", "3", "--end", "20",
                 "--out", str(tmp_path)]) == 0
    assert fetches == Counter(sieve_primes(20)[2:])


# what a command that computes no traces must not load, what no command may
# load (it slows every start), and what `cli` must load eagerly
# (bench/tracing.py wraps functions through sys.modules)
ENGINE_MODULES = ("numpy", "ecmoments.traces", "concurrent.futures.thread")
NEVER_MODULES = ("dataclasses",)
EAGER_MODULES = ("bias", "closed_forms", "discovery", "families", "io", "modular",
                 "report", "runner", "svg")

IMPORT_PROBE = """\
import json, sys
loaded = {}
import ecmoments.cli
loaded["import"] = sorted(sys.modules)
for step, argv, codes in json.loads(sys.argv[1]):
    assert ecmoments.cli.main(argv) in codes, step
    loaded[step] = sorted(sys.modules)
print(json.dumps(loaded))
"""


def _probe_imports(steps) -> dict:
    """Modules loaded after `import ecmoments.cli` and after each (step, argv, exit codes)."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(ecmoments.__file__)))
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, json.dumps(steps)], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def test_commands_without_traces_leave_numpy_and_the_pool_unloaded(tmp_path, family_file):
    window = ["--families", family_file, "--start", "3", "--end", "12", "--threads", "2",
              "--out", str(tmp_path)]
    assert main(["moments"] + window) == 0
    loaded = _probe_imports([("resume", ["moments", "--resume"] + window, [0]),
                             ("report", ["report"] + window, [0])])
    assert set(loaded) == {"import", "resume", "report"}
    for stage, modules in loaded.items():
        assert not set(ENGINE_MODULES + NEVER_MODULES) & set(modules), stage
    assert {"ecmoments." + m for m in EAGER_MODULES} <= set(loaded["import"])


def test_small_windows_compute_without_starting_the_pool(tmp_path):
    window = ["--start", "3", "--end", "12", "--threads", "2", "--out", str(tmp_path)]
    loaded = _probe_imports([("moments", ["moments"] + window, [0]),
                             ("verify", ["verify"] + window, [0]),
                             ("discover", ["discover", "--modulus", "2,0,0"] + window, [0, 2])])
    for step in ("moments", "verify", "discover"):
        assert "numpy" in loaded[step], step
        assert "concurrent.futures.thread" not in loaded[step], step
        assert not set(NEVER_MODULES) & set(loaded[step]), step


def test_verify_and_discover_compute_once(monkeypatch, tmp_path, capsys):
    import ecmoments.cli as cli

    calls = []
    real = cli.compute_records

    def counted(families, *args):
        calls.append(len(families))
        return real(families, *args)

    monkeypatch.setattr(cli, "compute_records", counted)
    window = ["--start", "3", "--end", "12", "--threads", "2", "--out", str(tmp_path)]
    assert main(["verify"] + window) == 0
    assert main(["discover", "--modulus", "2,0,0"] + window) in (0, 2)
    assert calls == [14, 16]  # the template families, then every corpus family
    out = capsys.readouterr().out
    assert out.count("no template, skipped") == 2
    assert out.count(", 10 primes exact") == 14


def test_verify_builds_each_legendre_table_at_most_twice(monkeypatch, tmp_path, capsys):
    from collections import Counter

    from ecmoments import modular, traces

    builds = Counter()
    real = modular.build_legendre_table

    def counted(p):
        builds[p] += 1
        return real(p)

    for module in (modular, traces):  # traces imports it by name
        monkeypatch.setattr(module, "build_legendre_table", counted)
    modular.cached_legendre_table.cache_clear()
    assert main(["verify", "--start", "3", "--end", "80", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    # once for the prime's trace tables, once for the Template3 character sum
    assert sorted(builds) == sieve_primes(80)[2:]
    assert max(builds.values()) <= 2


def test_moments_accepts_family_with_many_zero_samples(tmp_path, capsys):
    # a6 = t (t - 1) ... (t - 9) vanishes at t = 0..9, yet the family is nondegenerate
    a6 = T
    for k in range(1, 10):
        a6 = a6 * (T - k)
    path = tmp_path / "vanishing.json"
    path.write_text(family_file_text([family("vanishing", 0, 0, 0, 0, a6)]), encoding="utf-8")
    assert main(["moments", "--families", str(path), "--start", "3", "--end", "8",
                 "--out", str(tmp_path)]) == 0
    assert "wrote 6 records" in capsys.readouterr().out


def test_cli_error_exits(tmp_path, capsys):
    assert main(["moments", "--families", str(tmp_path / "absent.json")]) == 1
    assert "error:" in capsys.readouterr().err
    assert main(["moments", "--start", "1", "--end", "4", "--out", str(tmp_path)]) == 1
    assert main(["discover", "--modulus", "9,9,9", "--out", str(tmp_path)]) == 1
    assert main(["discover", "--modulus", "1,2", "--out", str(tmp_path)]) == 1
    assert main(["moments", "--rmax", "9", "--out", str(tmp_path)]) == 1
