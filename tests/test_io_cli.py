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
    discover,
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
    summarize,
    write_moments_csv,
)
from ecmoments.cli import _parse_modulus, build_parser, main
from ecmoments.discovery import SOME_FALSIFIED
from ecmoments.families import T
from ecmoments.io import (
    FSYNC_THREADS,
    atomic_write_files,
    atomic_write_text,
    moments_csv_path,
    moments_csv_text,
)
from ecmoments.runner import stored_or_computed
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


def test_each_command_without_flags_parses_to_the_run_config_defaults():
    want = RunConfig()
    for command in ("moments", "report", "discover", "verify", "oracle"):
        args = build_parser().parse_args([command])
        assert (args.families, args.start, args.end, args.out, args.threads) == (
            want.families_path, want.start, want.end, want.out_dir, want.workers), command
    moments = build_parser().parse_args(["moments"])
    assert (moments.rmax, moments.resume) == (want.r_max, want.resume)
    report = build_parser().parse_args(["report"])
    assert (report.block, Fraction(report.exponent)) == (want.block_size, want.exponent2)
    discover = build_parser().parse_args(["discover"])
    assert _parse_modulus(discover.modulus) == want.modulus_exponents


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


def test_read_moments_csv_reports_a_bad_byte_at_its_position_in_the_file(tmp_path):
    rows = "".join("f,%d,%d,0\n" % (i, i) for i in range(3, 3000))
    head = b"family,prime_index,p,S1\n" + rows.encode("ascii")
    path = tmp_path / "m.csv"
    path.write_bytes(head + b"f,3000,\xff,0\n")  # past the reader's first decoded chunk
    with pytest.raises(UnicodeDecodeError, match="in position %d:" % (len(head) + 7)):
        read_moments_csv(path)
    # the whole file is decoded before any row is parsed, so the bad byte comes first
    path.write_bytes(b"family,prime_index,p,S1\nf,3,oops,0\n" + rows.encode("ascii") + b"\xff\n")
    with pytest.raises(UnicodeDecodeError):
        read_moments_csv(path)


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


@pytest.fixture
def write_spy(monkeypatch):
    """Record ("file" | "dir", inode) on each fsync and ("replace", target) on each rename."""
    import stat

    events = []
    lock = threading.Lock()  # the batch fsyncs on several threads
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        st = os.fstat(fd)
        with lock:
            events.append(("dir" if stat.S_ISDIR(st.st_mode) else "file", st.st_ino))
        real_fsync(fd)

    def replace(src, dst):
        events.append(("replace", str(dst)))
        real_replace(src, dst)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    return events


def test_atomic_write_files_leaves_byte_identical_targets_in_place(tmp_path, write_spy):
    dirs = [tmp_path / "a", tmp_path / "b" / "c"]
    old = {dirs[0] / "same.svg": "same\n",
           dirs[0] / "same_size.svg": "abc\n",  # same length, other bytes
           dirs[1] / "longer.svg": "short\n",
           dirs[1] / "same_too.svg": "kept \u00e9\n"}  # compared as UTF-8 bytes
    new = {dirs[0] / "same.svg": "same\n",
           dirs[0] / "same_size.svg": "xyz\n",
           dirs[1] / "longer.svg": "much longer\n",
           dirs[1] / "same_too.svg": "kept \u00e9\n",
           dirs[1] / "fresh.svg": "fresh\n"}
    atomic_write_files(old)
    for path in old:
        os.utime(path, ns=(10**18, 10**18))  # an mtime no rewrite could keep
    before = {path: os.stat(path) for path in old}
    write_spy.clear()
    atomic_write_files({str(path): text for path, text in new.items()})

    kept = {dirs[0] / "same.svg", dirs[1] / "same_too.svg"}
    for path, text in new.items():
        assert path.read_text(encoding="utf-8") == text
        assert not path.is_symlink()
    for path in kept:
        st = os.stat(path)
        assert (st.st_ino, st.st_mtime_ns) == (before[path].st_ino, before[path].st_mtime_ns)
    for path in set(old) - kept:
        assert os.stat(path).st_ino != before[path].st_ino
    assert sorted(p for kind, p in write_spy if kind == "replace") == sorted(
        str(path) for path in set(new) - kept)
    file_fsyncs = [ino for kind, ino in write_spy if kind == "file"]
    assert sorted(file_fsyncs) == sorted(os.stat(path).st_ino for path in new)  # once each
    dir_fsyncs = [ino for kind, ino in write_spy if kind == "dir"]
    assert sorted(dir_fsyncs) == sorted(os.stat(d).st_ino for d in dirs)  # once each
    assert not list(tmp_path.rglob("*.tmp"))


def test_atomic_write_files_compares_a_chunk_at_a_time(tmp_path, monkeypatch, write_spy):
    monkeypatch.setattr(ecmoments.io, "_COMPARE_CHARS", 3)
    old = {"same.svg": "abcdefgh\n", "last_chunk.svg": "abcdefgh\n",
           "wide_same.svg": "\u00e9" * 5, "wide_other.svg": "\u00e9\u00e9\u00e9"}
    new = {"same.svg": "abcdefgh\n", "last_chunk.svg": "abcdefgX\n",
           "wide_same.svg": "\u00e9" * 5, "wide_other.svg": "\u00e9\u00e9ab"}  # 6 bytes each
    atomic_write_files({tmp_path / name: text for name, text in old.items()})
    write_spy.clear()
    atomic_write_files({tmp_path / name: text for name, text in new.items()})
    for name, text in new.items():
        assert (tmp_path / name).read_text(encoding="utf-8") == text
    assert sorted(p for kind, p in write_spy if kind == "replace") == [
        str(tmp_path / "last_chunk.svg"), str(tmp_path / "wide_other.svg")]


def test_atomic_write_files_replaces_a_symlink_to_the_same_bytes(tmp_path, write_spy):
    real = tmp_path / "real.svg"
    real.write_text("same\n", encoding="utf-8")
    link = tmp_path / "link.svg"
    link.symlink_to(real)
    real_ino = os.stat(real).st_ino
    atomic_write_files({link: "same\n"})
    assert not link.is_symlink() and link.read_text(encoding="utf-8") == "same\n"
    assert os.stat(real).st_ino == real_ino and real.read_text(encoding="utf-8") == "same\n"
    assert [p for kind, p in write_spy if kind == "replace"] == [str(link)]


def test_atomic_write_files_raises_on_a_directory_at_a_target(tmp_path):
    target = tmp_path / "out.svg"
    target.mkdir()
    with pytest.raises(OSError):
        atomic_write_files({target: "text\n", tmp_path / "other.svg": "other\n"})
    assert target.is_dir()
    assert not list(tmp_path.rglob("*.tmp"))


# ---------------------------------------------------------------------- runner


def test_compute_records_order_and_workers(family_file, force_pool, tmp_path):
    fams = parse_family_file(family_file)
    one = compute_records(fams, sieve_primes(10)[2:], r_max=2, workers=1)
    assert [(r.family, r.p) for r in one[:3]] == [("fam_a", 5), ("fam_a", 7), ("fam_a", 11)]
    assert len(one) == 2 * 8
    assert compute_records(fams, sieve_primes(10)[2:], r_max=2, workers=3) == one
    for rec in one:
        assert rec == moment_sums(next(f for f in fams if f.name == rec.family), rec.p, 2)
    # records are keyed by family name: every entry refuses two families with one
    with pytest.raises(ValueError, match="distinct"):
        compute_records(fams[:1] * 2, [5, 7], r_max=2)
    with pytest.raises(ValueError, match="distinct"):
        stored_or_computed(RunConfig(out_dir=str(tmp_path)), fams[:1] * 2, [5, 7, 11, 13])


def test_run_moments_and_resume(tmp_path, family_file, capsys):
    cfg = RunConfig(families_path=family_file, start=3, end=10, r_max=5,
                    out_dir=str(tmp_path / "out"))
    path, records = run_moments(cfg)
    assert path == str(tmp_path / "out" / "moments.csv")
    fresh = Path(path).read_text(encoding="utf-8")
    assert read_moments_csv(path) == (5, records)

    # drop the last rows, leave a truncated line, then resume to byte parity
    lines = fresh.splitlines(keepends=True)
    Path(path).write_text("".join(lines[:6]) + "fam_b,5,1", encoding="utf-8")
    resumed_cfg = cfg._replace(resume=True)
    run_moments(resumed_cfg)
    assert Path(path).read_text(encoding="utf-8") == fresh

    # rows for unknown families are dropped with a warning
    Path(path).write_text(lines[0] + "ghost,3,5,0,0,0,0,0\n" + "".join(lines[1:]),
                          encoding="utf-8")
    run_moments(resumed_cfg)
    assert "unknown family" in capsys.readouterr().err
    assert Path(path).read_text(encoding="utf-8") == fresh

    with pytest.raises(ValidationError):
        run_moments(cfg._replace(r_max=4, resume=True))


def test_resume_warns_on_rows_outside_the_window(tmp_path, family_file, capsys):
    out = str(tmp_path / "out")
    common = ["--families", family_file, "--rmax", "3", "--out", out]
    assert main(["moments", "--end", "6"] + common) == 0
    narrow = Path(out, "moments.csv").read_text(encoding="utf-8")
    stdout = capsys.readouterr().out
    assert main(["moments", "--end", "10"] + common) == 0
    capsys.readouterr()
    assert main(["moments", "--end", "6", "--resume"] + common) == 0
    captured = capsys.readouterr()
    # two families at the four primes of indices 7..10
    assert captured.err == "warning: dropping 8 CSV rows outside prime indices 3..6\n"
    assert captured.out == stdout
    assert Path(out, "moments.csv").read_text(encoding="utf-8") == narrow


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
    assert Path(out, "moments.csv").read_bytes() == Path(fresh_out, "moments.csv").read_bytes()


def test_resume_fills_pairs_scattered_across_primes(tmp_path, family_file, force_pool):
    cfg = RunConfig(families_path=family_file, start=3, end=14, r_max=4,
                    out_dir=str(tmp_path / "out"))
    path, _ = run_moments(cfg)
    fresh = Path(path).read_text(encoding="utf-8")
    lines = fresh.splitlines(keepends=True)
    # drop rows of both families at different primes, a prime that loses both
    kept = [line for i, line in enumerate(lines) if i not in (2, 5, 6, 9, 14, 17, 21)]
    Path(path).write_text("".join(kept), encoding="utf-8")
    for workers in (1, 3):
        run_moments(cfg._replace(resume=True, workers=workers))
        assert Path(path).read_text(encoding="utf-8") == fresh
        Path(path).write_text("".join(kept), encoding="utf-8")


def test_run_moments_deterministic_across_workers(tmp_path, family_file, force_pool):
    texts = []
    for workers in (1, 3):
        out = tmp_path / ("w%d" % workers)
        cfg = RunConfig(families_path=family_file, start=3, end=12, r_max=3,
                        out_dir=str(out), workers=workers)
        path, _ = run_moments(cfg)
        texts.append(Path(path).read_bytes())
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
            tasks = list(tasks)  # one prime each
            pools[-1].update(primes=tasks, chunksize=chunksize)
            return super().map(fn, tasks, chunksize=chunksize)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Spy)
    return pools


def test_pool_takes_largest_primes_first(family_file, force_pool, pool_spy):
    fams = parse_family_file(family_file)
    # 11 primes over 3 workers: no even split, and the last prime costs the most
    primes = sieve_primes(13)[2:]
    in_process = compute_records(fams, primes, r_max=4, workers=1)
    assert pool_spy == []
    assert compute_records(fams, primes, r_max=4, workers=3) == in_process
    assert pool_spy == [{"workers": 3, "primes": primes[::-1], "chunksize": 1}]


def test_pool_starts_at_the_measured_crossover(pool_spy):
    from ecmoments.runner import _THREAD_MIN_P

    fams = builtin_corpus()[:1]
    primes = sieve_primes(3600)  # to 33577
    below = [p for p in primes if p < _THREAD_MIN_P][-2:]
    above = [p for p in primes if p >= _THREAD_MIN_P][:2]
    # one thread per prime that repays it: none below the threshold, one is not a pool
    compute_records(fams, below, r_max=1, workers=2)
    compute_records(fams, below[1:] + above[:1], r_max=1, workers=2)
    assert pool_spy == []
    compute_records(fams, above, r_max=1, workers=2)
    assert pool_spy == [{"workers": 2, "primes": above[::-1], "chunksize": 1}]
    # once two primes repay a thread, the pool takes the window's smaller primes too
    compute_records(fams, below + above, r_max=1, workers=2)
    assert pool_spy[1] == {"workers": 2, "primes": (below + above)[::-1], "chunksize": 1}


def test_threads_build_each_prime_tables_once(monkeypatch, force_pool, pool_spy):
    from collections import Counter

    import ecmoments.traces as traces

    fetches, builds = Counter(), Counter()
    real_tables, real_correlation = traces.trace_tables, traces._correlate_with_chi

    def fetched(p):
        fetches[p] += 1
        return real_tables(p)

    def built(weight, chi):
        builds[len(chi)] += 1
        return real_correlation(weight, chi)

    fams = builtin_corpus()[:6]
    primes = sieve_primes(12)[2:]
    expected = compute_records(fams, primes, r_max=2)
    monkeypatch.setattr(traces, "trace_tables", fetched)
    monkeypatch.setattr(traces, "_correlate_with_chi", built)
    monkeypatch.setattr(traces, "_BLOCK_FIBERS", 1)  # a block per family at every prime
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # more threads than cores, switching as often as they can
    try:
        assert compute_records(fams, primes, r_max=2, workers=4) == expected
    finally:
        sys.setswitchinterval(interval)
    assert [pool["workers"] for pool in pool_spy] == [4]
    once = Counter(primes)
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
    # the CLI runs without the cyclic collector: reference counting alone must free them
    gc.disable()
    try:
        for workers in (1, 2):  # in-process, then in the thread pool
            refs.clear()
            compute_records(fams, sieve_primes(7)[2:], r_max=2, workers=workers)
            assert len(refs) == 5
            assert [ref for ref in refs if ref() is not None] == [], workers
    finally:
        gc.enable()


def test_pool_size_follows_the_work(monkeypatch, family_file, pool_spy):
    import ecmoments.runner as runner

    fams = parse_family_file(family_file)
    primes = sieve_primes(13)[2:]
    expected = compute_records(fams, primes, r_max=3)
    # a thread per prime at or above the threshold, up to the 4 asked for
    for least, started in ((primes[-1] + 1, []), (primes[-1], []), (primes[-2], [2]),
                           (primes[0], [2, 4])):
        monkeypatch.setattr(runner, "_THREAD_MIN_P", least)
        assert compute_records(fams, primes, r_max=3, workers=4) == expected
        assert [pool["workers"] for pool in pool_spy] == started


# ---------------------------------------------------------------------- report


def test_run_report_content_and_gaps(tmp_path):
    fam = corpus_family("1_0_0_-1_t")
    recs = [moment_sums(fam, p, 7) for p in (5, 7, 13)]  # index 5 (p=11) missing
    csv_path = tmp_path / "m.csv"
    write_moments_csv(csv_path, recs, 7)
    cfg = RunConfig(out_dir=str(tmp_path))
    text = run_report(csv_path, cfg)
    assert text.startswith("warning: family 1_0_0_-1_t: missing prime indices 5\n\n")
    assert "== family 1_0_0_-1_t (expected rank 0) ==" in text
    assert "primes: index 3..6, p = 5..13, n = 3" in text
    assert "blocks of 50:" in text and "blocks of 10:" in text
    assert "S3 / p^2: mean" in text
    assert "catalan k=1" in text
    assert "rank estimate at x=13:" in text
    assert (tmp_path / "report.txt").read_text(encoding="utf-8") == text
    names = {path.name for path in tmp_path.glob("*.svg")}
    assert names == {"1_0_0_-1_t_S%d_b%d.svg" % (r, b) for r in (2, 4, 6) for b in (50, 10)}


def test_run_report_unconfigured_rank_note(tmp_path, family_file):
    fams = parse_family_file(family_file)
    recs = compute_records(fams[1:], sieve_primes(6)[2:], r_max=7)
    csv_path = tmp_path / "m.csv"
    write_moments_csv(csv_path, recs, 7)
    cfg = RunConfig(families_path=family_file, out_dir=str(tmp_path))
    text = run_report(csv_path, cfg)
    assert "== family fam_b (expected rank ?) ==" in text
    assert "no expected_rank configured" in text


def test_report_commits_report_txt_and_its_svgs_in_one_batch(tmp_path, family_file, monkeypatch,
                                                             capsys):
    import ecmoments.io as io_mod
    import ecmoments.report as report

    out = tmp_path / "out"
    window = ["--families", family_file, "--end", "12", "--out", str(out)]
    assert main(["moments"] + window) == 0
    batches, singles = [], []
    real = report.atomic_write_files

    def spy(texts):
        batches.append(sorted(os.path.basename(path) for path in texts))
        real(texts)

    monkeypatch.setattr(report, "atomic_write_files", spy)
    monkeypatch.setattr(io_mod, "atomic_write_text", lambda *args: singles.append(args))
    capsys.readouterr()
    assert main(["report"] + window) == 0
    svgs = sorted("fam_%s_S%d_b%d.svg" % (f, r, b)
                  for f in "ab" for r in (2, 4, 6) for b in (10, 50))
    assert batches == [sorted(svgs + ["report.txt"])] and singles == []
    text = (out / "report.txt").read_text(encoding="utf-8")
    assert capsys.readouterr().out == text + "wrote %s\n" % (out / "report.txt",)


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
    report_text = Path(out, "report.txt").read_text(encoding="utf-8")
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


def test_report_removes_stale_svgs_of_reported_families(tmp_path, write_spy, monkeypatch, capsys):
    out = tmp_path / "out"
    window = ["--end", "20", "--out", str(out)]
    assert main(["moments", "--rmax", "8"] + window) == 0
    assert main(["report"] + window) == 0
    assert len(list(out.glob("*_S8_*.svg"))) == 32  # 16 families, two block sizes
    # files of a family not in the CSV, and names report does not write, stay
    kept = ["ghost_S8_b50.svg", "1_0_0_-1_t_S8_b050.svg", "1_0_0_-1_t_S8_b50.svg.bak",
            "1_0_0_-1_t_S8.svg", "notes.txt"]
    for name in kept:
        (out / name).write_text("keep\n", encoding="utf-8")
    assert main(["moments", "--rmax", "7"] + window) == 0
    removed = []
    real_unlink = os.unlink

    def unlink(path):
        removed.append(os.path.basename(path))
        write_spy.append(("unlink", os.path.basename(path)))
        real_unlink(path)

    monkeypatch.setattr(os, "unlink", unlink)
    write_spy.clear()
    assert main(["report"] + window) == 0
    capsys.readouterr()
    assert len(removed) == 32 and all("_S8_b" in name for name in removed)
    assert sorted(path.name for path in out.glob("*_S8_*.svg")) == [
        "1_0_0_-1_t_S8_b050.svg", "ghost_S8_b50.svg"]
    assert all((out / name).read_text(encoding="utf-8") == "keep\n" for name in kept)
    assert "S8 residual" not in (out / "report.txt").read_text(encoding="utf-8")
    # the removals come after the batch is renamed into place, and are made durable
    last_replace = max(i for i, event in enumerate(write_spy) if event[0] == "replace")
    unlinks = [i for i, event in enumerate(write_spy) if event[0] == "unlink"]
    assert min(unlinks) > last_replace
    assert write_spy[-1] == ("dir", os.stat(out).st_ino)


def _inodes(out) -> dict:
    return {path.name: os.stat(path).st_ino for path in Path(out).iterdir()}


def test_cli_reruns_leave_unchanged_outputs_in_place(tmp_path, family_file, capsys):
    out = str(tmp_path / "out")
    window = ["--families", family_file, "--end", "12", "--out", out]
    assert main(["moments"] + window) == 0
    assert main(["report"] + window) == 0
    first = _inodes(out)
    assert main(["moments", "--resume"] + window) == 0  # nothing missing
    assert main(["report"] + window) == 0
    assert _inodes(out) == first

    # --exponent 1 changes the S2 histograms and report.txt, nothing else
    outputs = _report_outputs(out)
    assert main(["report", "--exponent", "1"] + window) == 0
    capsys.readouterr()
    changed = {name for name, ino in _inodes(out).items() if ino != first[name]}
    s2 = {name for name in first if "_S2_" in name}
    assert len(s2) == 4 and changed == s2 | {"report.txt"}
    assert {name for name, data in _report_outputs(out).items()
            if data != outputs[name]} == changed


def test_cli_resume_rewrites_a_torn_or_unevenly_written_csv(tmp_path, family_file, capsys):
    out = tmp_path / "out"
    window = ["--families", family_file, "--end", "12", "--out", str(out)]
    assert main(["moments"] + window) == 0
    csv_path = out / "moments.csv"
    fresh = csv_path.read_bytes()
    csv_path.write_bytes(fresh[:-5])
    torn = os.stat(csv_path).st_ino
    assert main(["moments", "--resume"] + window) == 0
    assert "dropped malformed final row" in capsys.readouterr().err
    assert csv_path.read_bytes() == fresh and os.stat(csv_path).st_ino != torn
    # a row that parses but is not as the writer renders it ("05" for 5) is rewritten too
    lines = fresh.decode("ascii").split("\n")
    fields = lines[1].split(",")
    fields[2] = "0" + fields[2]
    lines[1] = ",".join(fields)
    csv_path.write_text("\n".join(lines), encoding="ascii")
    padded = os.stat(csv_path).st_ino
    assert main(["moments", "--resume"] + window) == 0
    assert csv_path.read_bytes() == fresh and os.stat(csv_path).st_ino != padded


@pytest.mark.parametrize("kind", ["repeated (family, p)", "wrong index", "composite p", "huge p"])
def test_csv_rows_must_agree_with_the_primes(tmp_path, family_file, capsys, kind):
    out = tmp_path / "out"
    window = ["--families", family_file, "--end", "12", "--out", str(out)]
    assert main(["moments"] + window) == 0
    capsys.readouterr()
    assert main(["report"] + window) == 0
    fresh_report = capsys.readouterr().out
    csv_path = out / "moments.csv"
    fresh = csv_path.read_bytes()
    lines = fresh.decode("ascii").splitlines(keepends=True)
    sums = lines[1].split(",", 3)[3]  # fam_a,3,5,...
    row = {"repeated (family, p)": lines[1],
           "wrong index": "fam_a,14,41," + sums,  # p = 41 is prime number 13
           "composite p": "fam_a,13,39," + sums,
           "huge p": "fam_a,13,%d,%s" % (10 ** 40, sums)}[kind]  # rejected without a sieve
    # anywhere but last, such a row is an error for report and for resume alike
    csv_path.write_text(lines[0] + lines[1] + row + "".join(lines[2:]), encoding="ascii")
    middle = csv_path.read_bytes()
    for cmd in (["report"], ["moments", "--resume"]):
        assert main(cmd + window) == 1
        assert capsys.readouterr().err == "error: %s: malformed row at line 3\n" % (csv_path,)
        assert csv_path.read_bytes() == middle
    # as the final row it is dropped like a torn row: the outputs are a fresh run's
    csv_path.write_text("".join(lines) + row, encoding="ascii")
    dropped = "warning: %s: dropped malformed final row at line %d\n" % (csv_path, len(lines) + 1)
    assert main(["report"] + window) == 0
    assert capsys.readouterr() == (fresh_report, dropped)
    assert main(["moments", "--resume"] + window) == 0
    assert capsys.readouterr().err == dropped
    assert csv_path.read_bytes() == fresh


def test_report_rejects_families_whose_svg_names_collide(tmp_path, family_file, capsys):
    entries = json.loads(FAMILY_JSON)
    entries[0]["name"], entries[1]["name"] = "x y", "x-y"
    fams = tmp_path / "collide.json"
    fams.write_text(json.dumps(entries), encoding="utf-8")
    out = tmp_path / "out"
    window = ["--families", str(fams), "--end", "12", "--out", str(out)]
    assert main(["moments"] + window) == 0
    assert main(["report"] + window) == 1
    assert capsys.readouterr().err == (
        "error: families 'x y' and 'x-y' both map to SVG names x-y_*\n")
    assert sorted(os.listdir(out)) == ["moments.csv"]
    # the same two names from the CSV alone, with no family file naming them
    with pytest.raises(ValidationError, match="'x y' and 'x-y'"):
        run_report(out / "moments.csv", RunConfig(families_path=family_file, out_dir=str(out)))
    assert sorted(os.listdir(out)) == ["moments.csv"]
    # names that differ only in case share their SVG files on a case-insensitive filesystem
    entries[0]["name"], entries[1]["name"] = "E1", "e1"
    fams.write_text(json.dumps(entries), encoding="utf-8")
    assert main(["moments"] + window) == 0
    assert main(["report"] + window) == 1
    assert capsys.readouterr().err == (
        "error: families 'E1' and 'e1' both map to SVG names e1_* up to letter case\n")
    assert sorted(os.listdir(out)) == ["moments.csv"]


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


def _discover_on_every_prime(start, end, e, f, g, robust, floor):
    """The stdout and exit code of `discover`, fitted by discover() on the whole window's records."""
    families = builtin_corpus()
    primes = sieve_primes(end)[start - 1 :]
    records = compute_records(families, primes, r_max=2)
    lines, status = [], 0
    for i, fam in enumerate(families):
        fits = discover(records[i * len(primes) : (i + 1) * len(primes)], e, f, g, robust, floor)
        lines.append("family %s: %s (mod %d)" % (fam.name, summarize(fits), 2 ** e * 3 ** f * 5 ** g))
        for fit in fits:
            if fit.status == "InsufficientPrimes":
                lines.append("  class %d: insufficient primes" % (fit.residue,))
            elif fit.status == "Verified":
                lines.append("  class %d: S2 - p^2 = (%s) p + (%s), verified on %d primes"
                             % (fit.residue, fit.a, fit.b, fit.n_checked))
            else:
                lines.append("  class %d: falsified at p=%d (fit was (%s) p + (%s))"
                             % (fit.residue, fit.first_failure, fit.a, fit.b))
        if summarize(fits) == SOME_FALSIFIED:
            status = 2
    return "".join(line + "\n" for line in lines), status


@pytest.mark.parametrize("start, end, modulus, robust, floor", [
    (3, 120, (2, 0, 0), False, 10),
    (3, 120, (2, 1, 0), False, 10),
    (3, 120, (4, 3, 1), False, 10),
    (3, 120, (2, 0, 0), True, 0),
    (3, 120, (2, 1, 0), True, 4),
    (3, 120, (2, 1, 0), True, 30),
    (3, 120, (2, 0, 0), True, 200),  # the floor drops the whole window
    (3, 12, (2, 0, 0), False, 10),
    (3, 12, (4, 3, 1), False, 10),
    (10, 10, (2, 0, 0), False, 10),
])
def test_cli_discover_computes_only_what_its_fits_read(tmp_path, capsys, start, end, modulus,
                                                       robust, floor):
    argv = ["discover", "--start", str(start), "--end", str(end),
            "--modulus", "%d,%d,%d" % modulus, "--floor", str(floor), "--out", str(tmp_path)]
    rc = main(argv + ["--robust"] if robust else argv)
    assert (capsys.readouterr().out, rc) == _discover_on_every_prime(start, end, *modulus,
                                                                     robust, floor)


def _discover_fetches(monkeypatch, capsys, argv, out: str):
    """The primes whose trace tables `discover --out out` + argv fetches, with its stdout,
    stderr and exit code."""
    from collections import Counter

    import ecmoments.traces as traces

    fetches = Counter()
    real = traces.trace_tables

    def fetched(p):
        fetches[p] += 1
        return real(p)

    monkeypatch.setattr(traces, "trace_tables", fetched)
    rc = main(["discover", "--out", out] + argv)
    monkeypatch.setattr(traces, "trace_tables", real)
    return fetches, capsys.readouterr(), rc


@pytest.mark.parametrize("argv, computed", [
    (["--modulus", "2,0,0", "--end", "12"], [11, 13, 17, 19, 23, 29, 31, 37]),  # not 5 or 7
    # after 5, 7, 11 and 13 are dropped, class 3 holds only 19, 23 and 31
    (["--modulus", "2,0,0", "--end", "13", "--robust", "--floor", "4"], [17, 29, 37, 41]),
    (["--end", "12"], []),  # mod 2160, every class holds one prime
])
def test_cli_discover_builds_tables_for_the_read_primes_only(monkeypatch, tmp_path, capsys,
                                                             argv, computed):
    from collections import Counter

    fetches, _, rc = _discover_fetches(monkeypatch, capsys, argv, str(tmp_path))
    assert rc in (0, 2)
    assert fetches == Counter(computed)


@pytest.mark.parametrize("stored, argv, computed", [
    # a moments.csv that holds S2 at every read prime: nothing is computed
    (["--end", "40"], ["--modulus", "2,0,0", "--end", "12"], []),
    (["--end", "40", "--rmax", "2"], ["--modulus", "2,0,0", "--end", "12", "--threads", "2"], []),
    (["--start", "5", "--end", "12"], ["--modulus", "2,0,0", "--end", "12"], []),
    (["--end", "40"], ["--modulus", "2,1,0", "--end", "40"], []),
    # one that stops at the 20th prime, 71: only the read primes above it are computed
    (["--end", "20"], ["--modulus", "2,0,0", "--end", "40"], sieve_primes(40)[20:]),
    # rows without S2 are not read
    (["--end", "40", "--rmax", "1"], ["--modulus", "2,0,0", "--end", "12"],
     [11, 13, 17, 19, 23, 29, 31, 37]),
    # nor are rows of other families
    (["--end", "40", "--families", "FAMILY_FILE"], ["--modulus", "2,0,0", "--end", "12"],
     [11, 13, 17, 19, 23, 29, 31, 37]),
])
def test_cli_discover_computes_only_the_pairs_moments_csv_lacks(monkeypatch, tmp_path, capsys,
                                                                family_file, stored, argv,
                                                                computed):
    from collections import Counter

    _, expected, expected_rc = _discover_fetches(monkeypatch, capsys, argv,
                                                 str(tmp_path / "empty"))
    out = str(tmp_path / "out")
    stored = [family_file if arg == "FAMILY_FILE" else arg for arg in stored]
    assert main(["moments", "--out", out] + stored) == 0
    capsys.readouterr()
    fetches, captured, rc = _discover_fetches(monkeypatch, capsys, argv, out)
    assert fetches == Counter(computed)
    # the same lines and exit code as with no CSV, and nothing said of the rows not read
    assert (captured, rc) == (expected, expected_rc)
    assert os.listdir(out) == ["moments.csv"]


def test_cli_discover_reads_moments_csv_as_report_does(tmp_path, capsys):
    out = tmp_path / "out"
    argv = ["discover", "--modulus", "2,0,0", "--end", "12"]
    assert main(argv + ["--out", str(tmp_path / "empty")]) == 2
    expected = capsys.readouterr().out
    assert main(["moments", "--end", "12", "--rmax", "2", "--out", str(out)]) == 0
    capsys.readouterr()
    csv_path = out / "moments.csv"
    lines = csv_path.read_text(encoding="utf-8").splitlines(keepends=True)
    # a torn final row is dropped with report's warning, and its pair computed
    csv_path.write_text("".join(lines[:-1]) + lines[-1][:8], encoding="utf-8")
    assert main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr() == (
        expected, "warning: %s: dropped malformed final row at line %d\n" % (csv_path, len(lines)))
    # a malformed row with rows after it fails the command
    csv_path.write_text("".join(lines[:5]) + "junk\n" + "".join(lines[5:]), encoding="utf-8")
    assert main(argv + ["--out", str(out)]) == 1
    assert _error_line(capsys) == "error: %s: malformed row at line 6" % (csv_path,)
    # an --out that is a file holds no rows
    assert main(argv + ["--out", str(csv_path)]) == 2
    assert capsys.readouterr() == (expected, "")


def test_cli_discover_rejects_a_negative_floor_before_computing(monkeypatch, tmp_path, capsys):
    import ecmoments.cli as cli

    monkeypatch.setattr(cli, "stored_or_computed", None)  # a call would raise TypeError
    assert main(["discover", "--floor", "-1", "--end", "12", "--out", str(tmp_path)]) == 1
    assert capsys.readouterr() == ("", "error: floor must be nonnegative, got -1\n")


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


def test_cli_oracle_compares_the_moments_read_by_class(family_file, tmp_path, monkeypatch,
                                                        capsys, force_pool):
    import ecmoments.traces as traces

    real = traces._class_histograms  # fam_a is vertical: A = -1323, B = 3942 + 46656 t
    monkeypatch.setattr(traces, "_class_histograms", lambda shapes, tt: real(shapes, tt)[:, ::-1])
    argv = ["oracle", "--families", family_file, "--start", "3", "--end", "6",
            "--out", str(tmp_path)]
    for threads in ("1", "2"):  # in-process, then on the pool: the same lines
        assert main(argv + ["--threads", threads]) == 2
        # mirrored counts negate the odd moments, which vanish for p = 3 mod 4; 7 divides
        # 1323, so fam_a's record at p = 7 comes from its traces
        assert capsys.readouterr().out.splitlines() == [
            "family fam_a p=5: FAIL in S_r at r=[3, 5, 7]",
            "family fam_a p=7: OK (7 fibers)",
            "family fam_a p=11: OK (11 fibers)",
            "family fam_a p=13: FAIL in S_r at r=[3, 5, 7]",
            "family fam_b p=5: OK (5 fibers)",
            "family fam_b p=7: OK (7 fibers)",
            "family fam_b p=11: OK (11 fibers)",
            "family fam_b p=13: OK (13 fibers)",
        ], threads

    def one_count_up(shapes, tt):
        counts = real(shapes, tt)
        counts[:, counts.shape[1] // 2] -= 1
        counts[:, counts.shape[1] // 2 + 1] += 1
        return counts

    monkeypatch.setattr(traces, "_class_histograms", one_count_up)
    for threads in ("1", "2"):
        assert main(argv + ["--threads", threads]) == 2
        # the certificate raises in the one call that makes every record of the prime
        assert capsys.readouterr().out.splitlines() == [
            "family fam_a p=5: FAIL: S1 of fam_a is 1, not 0 mod p=5",
            "family fam_a p=7: OK (7 fibers)",
            "family fam_a p=11: FAIL: S1 of fam_a is 1, not 0 mod p=11",
            "family fam_a p=13: FAIL: S1 of fam_a is 1, not 0 mod p=13",
            "family fam_b p=5: FAIL: S1 of fam_a is 1, not 0 mod p=5",
            "family fam_b p=7: OK (7 fibers)",
            "family fam_b p=11: FAIL: S1 of fam_a is 1, not 0 mod p=11",
            "family fam_b p=13: FAIL: S1 of fam_a is 1, not 0 mod p=13",
        ], threads


def test_cli_oracle_checks_the_moments_of_multi_family_blocks(tmp_path, monkeypatch, capsys):
    import ecmoments.traces as traces

    real = traces._trace_histograms

    def two_counts_moved(traces_, p):
        # S1 and the Hasse range stay, so no certificate fires; S2..S8 of row 1 move
        counts = real(traces_, p)
        if len(traces_) > 1:
            m = counts.shape[1] // 2
            counts[1, m] -= 2
            counts[1, m - 2] += 1
            counts[1, m + 2] += 1
        return counts

    monkeypatch.setattr(traces, "_trace_histograms", two_counts_moved)
    assert main(["oracle", "--end", "12", "--out", str(tmp_path)]) == 2
    lines = capsys.readouterr().out.splitlines()
    failed = [line for line in lines if "FAIL" in line]
    # the second family of the kernel's one block at each of the 10 primes
    assert len(failed) == 10
    assert all(" FAIL in S_r at r=[2, 4, 6, 8]" in line for line in failed)
    assert len(lines) == 16 * 10


def test_cli_oracle_rejects_samples_below_one(family_file, tmp_path, capsys):
    for samples in ("0", "-2"):
        rc = main(["oracle", "--families", family_file, "--end", "12", "--samples", samples,
                   "--out", str(tmp_path)])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --samples must be >= 1, got %s\n" % (samples,)


def test_cli_oracle_checks_every_fiber_of_a_prime_within_the_sample_count(family_file, tmp_path,
                                                                           capsys):
    rc = main(["oracle", "--families", family_file, "--start", "19", "--end", "20",
               "--samples", "70", "--out", str(tmp_path)])
    assert rc == 0
    assert capsys.readouterr().out.splitlines() == [
        "family fam_a p=67: OK (67 fibers)",
        "family fam_a p=71: OK (70 fibers)",
        "family fam_b p=67: OK (67 fibers)",
        "family fam_b p=71: OK (70 fibers)",
    ]


def test_cli_oracle_builds_each_prime_tables_once(family_file, tmp_path, monkeypatch, capsys,
                                                  force_pool, pool_spy):
    from collections import Counter

    import ecmoments.traces as traces

    fetches, roots, sums = Counter(), Counter(), Counter()
    real, real_count, real_sums = traces.trace_tables, traces.point_count_oracle, traces._power_sums

    def fetched(p):
        fetches[p] += 1
        return real(p)

    def counted(fibers):  # each call builds one table of square-root counts
        roots.update({fib.p for fib in fibers})
        return real_count(fibers)

    def summed(counts, p, r_max):  # each call builds one table of powers
        sums[p] += 1
        return real_sums(counts, p, r_max)

    monkeypatch.setattr(traces, "trace_tables", fetched)
    monkeypatch.setattr(traces, "point_count_oracle", counted)
    monkeypatch.setattr(traces, "_power_sums", summed)
    for threads in ("1", "2"):  # in-process, then on the pool
        for counter in (fetches, roots, sums):
            counter.clear()
        assert main(["oracle", "--families", family_file, "--start", "3", "--end", "20",
                     "--threads", threads, "--out", str(tmp_path)]) == 0
        assert fetches == Counter(sieve_primes(20)[2:])
        assert roots == fetches
        # one call for the records, one for the own rows of both families
        assert sums == Counter({p: 2 for p in fetches})
    assert [pool["workers"] for pool in pool_spy] == [2]


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


def test_discover_with_no_class_to_fit_leaves_numpy_unloaded(tmp_path):
    covered = str(tmp_path / "covered")
    assert main(["moments", "--end", "40", "--out", covered]) == 0
    # at the default modulus 2160 every class of the window holds one prime; mod 4 every
    # prime the fits read has its S2 in moments.csv
    loaded = _probe_imports([
        ("discover", ["discover", "--end", "12", "--out", str(tmp_path / "empty")], [0]),
        ("covered", ["discover", "--modulus", "2,0,0", "--end", "12", "--out", covered], [2]),
    ])
    for step in ("discover", "covered"):
        assert not set(ENGINE_MODULES + NEVER_MODULES) & set(loaded[step]), step


CYCLE_PROBE = """\
import gc, json, sys
gc.disable()  # as under entry()
import concurrent.futures.thread, numpy.fft  # what the commands import lazily, imported first
import ecmoments.cli, ecmoments.traces
from ecmoments import runner
runner._THREAD_MIN_P = 1  # --threads 2 starts the pool at any window
out, steps = sys.argv[1], json.loads(sys.argv[2])
gc.collect()
found = []
for argv in steps:
    ecmoments.cli.main(argv + ["--out", out])
    found.append(gc.collect())
print(json.dumps(found))
"""


def test_commands_leave_no_cyclic_garbage_that_grows_with_the_window(tmp_path):
    # entry() runs each command without the cyclic collector: garbage that grows with the
    # primes, such as a reference cycle per prime, would grow memory on a long run
    steps = [["moments", "--threads", "1"], ["moments", "--threads", "1", "--resume"],
             ["report"], ["verify"], ["discover", "--modulus", "2,0,0"], ["oracle"],
             ["moments", "--threads", "2"], ["oracle", "--threads", "2"]]
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(ecmoments.__file__)))
    found = {}
    for end in (12, 60):  # 10 and 58 primes
        window = [argv + ["--end", str(end)] for argv in steps]
        proc = subprocess.run([sys.executable, "-c", CYCLE_PROBE, str(tmp_path / str(end)),
                               json.dumps(window)], env=env, capture_output=True, text=True,
                              check=True)
        found[end] = json.loads(proc.stdout.splitlines()[-1])
    assert found[12] == found[60]


def test_verify_and_discover_compute_once(monkeypatch, tmp_path, capsys):
    import ecmoments.runner as runner

    calls = []
    real = runner._compute_missing

    def counted(families, *args):
        calls.append(len(families))
        return real(families, *args)

    monkeypatch.setattr(runner, "_compute_missing", counted)
    # no moments.csv in --out, so discover computes every pair its fits read
    window = ["--start", "3", "--end", "12", "--threads", "2", "--out", str(tmp_path)]
    assert main(["verify"] + window) == 0
    assert main(["discover", "--modulus", "2,0,0"] + window) in (0, 2)
    assert calls == [14, 16]  # the template families, then every corpus family
    out = capsys.readouterr().out
    assert out.count("no template, skipped") == 2
    assert out.count(", 10 primes exact") == 14


def test_verify_builds_each_legendre_table_at_most_once(monkeypatch, tmp_path, capsys):
    from collections import Counter

    from ecmoments import closed_forms, modular

    builds = Counter()
    real = modular.build_legendre_table

    def counted(p):
        builds[p] += 1
        return real(p)

    for module in (modular, closed_forms):  # closed_forms imports it by name
        monkeypatch.setattr(module, "build_legendre_table", counted)
    modular.cached_legendre_table.cache_clear()
    assert main(["verify", "--start", "3", "--end", "80", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    # for the Template3 character sum; the trace tables take chi from the discrete log
    assert sorted(builds) == sieve_primes(80)[2:]
    assert max(builds.values()) == 1
    info = modular.cached_legendre_table.cache_info()
    assert (info.hits, info.misses) == (0, 0)  # no command reads the cache


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


@pytest.mark.parametrize("argv, message", [
    (["verify", "--bogus"], "unrecognized arguments: --bogus"),
    (["moments", "--end", "x"], "argument --end: invalid int value: 'x'"),
    ([], "the following arguments are required: command"),
])
def test_cli_usage_errors_exit_1_with_argparse_message(argv, message, capsys):
    # exit 2 is a mismatch; argparse's own code for a usage error would read as one
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: ecmoments")
    assert message in err


def test_cli_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert main(["moments", "--help"]) == 0
    assert "--rmax RMAX" in capsys.readouterr().out


def test_cli_process_usage_error_exits_1(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(ecmoments.__file__)))
    proc = subprocess.run([sys.executable, "-m", "ecmoments.cli", "verify", "--bogus"], env=env,
                          capture_output=True, text=True, cwd=tmp_path)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "ecmoments: error: unrecognized arguments: --bogus" in proc.stderr


def _error_line(capsys) -> str:
    """The one line a failed command writes to stderr; stdout stays empty."""
    out, err = capsys.readouterr()
    assert out == ""
    (line,) = err.splitlines()
    assert line.startswith("error: ")
    return line


def test_cli_report_on_a_directory_csv_exits_1(tmp_path, capsys):
    assert main(["report", "--csv", str(tmp_path), "--out", str(tmp_path / "out")]) == 1
    assert "Is a directory" in _error_line(capsys)


def test_cli_moments_on_a_directory_family_file_exits_1(tmp_path, capsys):
    assert main(["moments", "--families", str(tmp_path), "--out", str(tmp_path / "out")]) == 1
    assert "Is a directory" in _error_line(capsys)


def test_cli_moments_into_an_existing_file_exits_1(tmp_path, monkeypatch, capsys):
    import ecmoments.runner as runner

    def unreached(*args):
        raise AssertionError("computed before the output directory was checked")

    monkeypatch.setattr(runner, "_compute_missing", unreached)
    out = tmp_path / "taken"
    out.write_text("", encoding="utf-8")
    assert main(["moments", "--end", "302", "--out", str(out)]) == 1
    assert "File exists" in _error_line(capsys)
    assert out.read_text(encoding="utf-8") == ""
    # the check creates nothing: a run that stops while computing leaves no directory behind
    with pytest.raises(AssertionError, match="computed before"):
        main(["moments", "--end", "302", "--out", str(tmp_path / "new" / "out")])
    assert not (tmp_path / "new").exists()


@pytest.mark.parametrize("argv", [
    ["moments"],
    ["verify"],
    ["discover", "--modulus", "2,0,0"],
])
def test_cli_failed_certificate_exits_2_with_one_error_line(monkeypatch, tmp_path, capsys, argv):
    import ecmoments.traces as traces

    real = traces._birch_sums
    monkeypatch.setattr(traces, "_birch_sums", lambda p: [s + 1 for s in real(p)])
    assert main(argv + ["--start", "3", "--end", "12", "--out", str(tmp_path)]) == 2
    line = _error_line(capsys)
    assert line.startswith("error: trace tables at p=")
    assert line.endswith(" miss Birch's sum of a^2")
    assert list(tmp_path.iterdir()) == []  # moments writes no CSV


def test_main_leaves_the_cyclic_collector_as_it_found_it(tmp_path, capsys):
    import gc

    assert main(["verify", "--end", "12", "--out", str(tmp_path)]) == 0
    assert gc.isenabled()
    assert gc.get_freeze_count() == 0


@pytest.mark.parametrize("argv, lines_read", [
    (["discover", "--end", "302"], 1),  # 160 kB, more than the pipe holds
    (["verify", "--end", "12"], 0),  # a few lines, all written at the final flush
])
def test_cli_process_exits_quietly_when_stdout_closes_early(tmp_path, argv, lines_read):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(ecmoments.__file__)))
    argv = [sys.executable, "-m", "ecmoments.cli"] + argv + ["--out", str(tmp_path)]
    with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        for _ in range(lines_read):
            assert proc.stdout.readline().startswith(b"family ")
        proc.stdout.close()
        assert proc.stderr.read() == b""
    assert proc.returncode == 1
