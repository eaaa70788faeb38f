"""Family files, CSV persistence, the runner, the report, SVGs, and the CLI."""

import dataclasses
import json
import os
import xml.etree.ElementTree as ET
from fractions import Fraction

import pytest

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
from ecmoments.io import atomic_write_text, moments_csv_path, moments_csv_text
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


# ---------------------------------------------------------------------- runner


def test_compute_records_order_and_workers(family_file):
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
    resumed_cfg = dataclasses.replace(cfg, resume=True)
    run_moments(resumed_cfg)
    assert open(path, encoding="utf-8").read() == fresh

    # rows for unknown families are dropped with a warning
    open(path, "w", encoding="utf-8").write(lines[0] + "ghost,3,5,0,0,0,0,0\n" + "".join(lines[1:]))
    run_moments(resumed_cfg)
    assert "unknown family" in capsys.readouterr().err
    assert open(path, encoding="utf-8").read() == fresh

    with pytest.raises(ValidationError):
        run_moments(dataclasses.replace(cfg, r_max=4, resume=True))


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


def test_resume_fills_pairs_scattered_across_primes(tmp_path, family_file):
    cfg = RunConfig(families_path=family_file, start=3, end=14, r_max=4,
                    out_dir=str(tmp_path / "out"))
    path, _ = run_moments(cfg)
    fresh = open(path, encoding="utf-8").read()
    lines = fresh.splitlines(keepends=True)
    # drop rows of both families at different primes, a prime that loses both
    kept = [line for i, line in enumerate(lines) if i not in (2, 5, 6, 9, 14, 17, 21)]
    open(path, "w", encoding="utf-8").write("".join(kept))
    for workers in (1, 3):
        run_moments(dataclasses.replace(cfg, resume=True, workers=workers))
        assert open(path, encoding="utf-8").read() == fresh
        open(path, "w", encoding="utf-8").write("".join(kept))


def test_run_moments_deterministic_across_workers(tmp_path, family_file):
    texts = []
    for workers in (1, 3):
        out = tmp_path / ("w%d" % workers)
        cfg = RunConfig(families_path=family_file, start=3, end=12, r_max=3,
                        out_dir=str(out), workers=workers)
        path, _ = run_moments(cfg)
        texts.append(open(path, "rb").read())
    assert texts[0] == texts[1]


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


def test_cli_verify_ok(family_file, tmp_path, capsys):
    rc = main(["verify", "--families", family_file, "--start", "3", "--end", "12",
               "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "family fam_a: OK, 10 primes exact" in out
    assert "family fam_b: OK" in out


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
    import ecmoments.cli as cli

    real = cli.traces_mod_p
    monkeypatch.setattr(cli, "traces_mod_p", lambda fam, p: real(fam, p) + 1)
    rc = main(["oracle", "--families", family_file, "--start", "3", "--end", "3",
               "--out", str(tmp_path)])
    assert rc == 2
    assert "family fam_a p=5: FAIL at t=[0, 1, 2, 3, 4]" in capsys.readouterr().out


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

    from ecmoments import modular
    from ecmoments.traces import trace_tables

    builds = Counter()
    real = modular.build_legendre_table

    def counted(p):
        builds[p] += 1
        return real(p)

    monkeypatch.setattr(modular, "build_legendre_table", counted)
    modular.cached_legendre_table.cache_clear()
    trace_tables.cache_clear()
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
