"""Command line interface: moments, report, discover, verify, oracle."""

from __future__ import annotations

import argparse
import gc
import os
import random
import sys
from fractions import Fraction

from .bias import residual_exponents
from .closed_forms import verify_family
from .discovery import ROBUST_FLOOR, SOME_FALSIFIED, fit_classes, fit_plan, summarize
from .families import R_MAX, MomentRecord, discriminant, fiber_at, match_template
from .io import (
    FamilyParseError,
    RunConfig,
    ValidationError,
    load_families,
    moments_csv_path,
)
from .report import report_txt_path, run_report
from .runner import compute_records, run_moments

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_MISMATCH = 2

_DEFAULTS = RunConfig._field_defaults  # the default of each flag that sets a RunConfig field


def _common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--families", metavar="PATH", default=None,
                     help="family file (JSON); the built-in corpus when omitted")
    sub.add_argument("--start", type=int, default=_DEFAULTS["start"], metavar="IDX",
                     help="first 1-based prime index (default %(default)s, p=5)")
    sub.add_argument("--end", type=int, default=_DEFAULTS["end"], metavar="IDX",
                     help="last prime index, inclusive (default %(default)s)")
    sub.add_argument("--out", default=_DEFAULTS["out_dir"], metavar="DIR", help="output directory")
    sub.add_argument("--threads", type=int, default=_DEFAULTS["workers"], metavar="N",
                     help="most worker threads across primes (default %(default)s); a window "
                          "too small to repay them runs in-process")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ecmoments",
        description="Exact moment sums of fiber traces over one-parameter curve families.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    m = sub.add_parser("moments", help="compute S_1..S_rmax per prime and write CSV")
    _common_flags(m)
    m.add_argument("--rmax", type=int, default=_DEFAULTS["r_max"],
                   help="highest moment, 1..%d (default %%(default)s)" % R_MAX)
    m.add_argument("--resume", action="store_true",
                   help="keep rows already present in the output CSV")

    r = sub.add_parser("report", help="bias report and histograms from a moments CSV")
    _common_flags(r)
    r.add_argument("--csv", default=None, metavar="PATH",
                   help="input CSV (default <out>/moments.csv)")
    r.add_argument("--block", type=int, default=_DEFAULTS["block_size"],
                   help="extra block size (default %(default)s)")
    r.add_argument("--exponent", choices=[str(q) for q in residual_exponents(2)],
                   default=str(_DEFAULTS["exponent2"]),
                   help="second-moment normalization exponent (default %(default)s)")

    d = sub.add_parser("discover", help="fit per-congruence-class second moment formulas")
    _common_flags(d)
    d.add_argument("--modulus", default=",".join(map(str, _DEFAULTS["modulus_exponents"])),
                   metavar="E,F,G", help="exponents of 2,3,5 in the modulus (default %(default)s)")
    d.add_argument("--robust", action="store_true",
                   help="fit after dropping the first primes of the run")
    d.add_argument("--floor", type=int, default=ROBUST_FLOOR,
                   help="primes dropped in robust mode (default %(default)s)")

    v = sub.add_parser("verify", help="check closed-form S1/S2 against the engine")
    _common_flags(v)

    o = sub.add_parser("oracle", help="brute-force point-count spot checks")
    _common_flags(o)
    o.add_argument("--samples", type=int, default=8,
                   help="fibers sampled per prime above p = 61 (default 8); a prime with "
                        "no more fibers than that has every fiber checked")
    return ap


def _config(args, **fields) -> RunConfig:
    """The validated RunConfig of the common flags and a command's own fields."""
    cfg = RunConfig(families_path=args.families, start=args.start, end=args.end,
                    out_dir=args.out, workers=args.threads, **fields)
    cfg.validate()
    return cfg


def _cmd_moments(args) -> int:
    cfg = _config(args, r_max=args.rmax, resume=args.resume)
    path, records = run_moments(cfg)
    print("wrote %d records to %s" % (len(records), path))
    return EXIT_OK


def _cmd_report(args) -> int:
    cfg = _config(args, block_size=args.block, exponent2=Fraction(args.exponent))
    csv_path = args.csv or moments_csv_path(cfg)
    sys.stdout.write(run_report(csv_path, cfg))
    print("wrote %s" % (report_txt_path(cfg),))
    return EXIT_OK


def _parse_modulus(raw: str) -> tuple[int, int, int]:
    parts = raw.split(",")
    if len(parts) != 3:
        raise ValidationError("--modulus wants E,F,G, got %r" % (raw,))
    try:
        e, f, g = (int(v) for v in parts)
    except ValueError:
        raise ValidationError("--modulus wants integers, got %r" % (raw,)) from None
    return e, f, g


def _records_per_family(families, primes: list[int], workers: int) -> list[list[MomentRecord]]:
    """S1 and S2 of each family at `primes`, from one compute_records call."""
    records = compute_records(families, primes, 2, workers)
    n = len(primes)
    return [records[i * n : (i + 1) * n] for i in range(len(families))]


def _cmd_discover(args) -> int:
    cfg = _config(args, r_max=2, modulus_exponents=_parse_modulus(args.modulus))
    families = load_families(cfg)
    # only the primes some class's fit reads are computed: none when every class is too small
    plan = fit_plan(cfg.primes(), *cfg.modulus_exponents, robust=args.robust, floor=args.floor)
    read = plan.read_primes()
    status = EXIT_OK
    for fam, records in zip(families, _records_per_family(families, read, cfg.workers)):
        fits = fit_classes(plan, dict(zip(read, records)))
        verdict = summarize(fits)
        print("family %s: %s (mod %d)" % (fam.name, verdict, plan.modulus))
        for fit in fits:
            if fit.status == "InsufficientPrimes":
                print("  class %d: insufficient primes" % (fit.residue,))
            elif fit.status == "Verified":
                print(
                    "  class %d: S2 - p^2 = (%s) p + (%s), verified on %d primes"
                    % (fit.residue, fit.a, fit.b, fit.n_checked)
                )
            else:
                print(
                    "  class %d: falsified at p=%d (fit was (%s) p + (%s))"
                    % (fit.residue, fit.first_failure, fit.a, fit.b)
                )
        if verdict == SOME_FALSIFIED:
            status = EXIT_MISMATCH
    return status


def _cmd_verify(args) -> int:
    cfg = _config(args, r_max=2)
    families = load_families(cfg)
    templated = [fam for fam in families if match_template(fam) is not None]
    per_family = _records_per_family(templated, cfg.primes(), cfg.workers)
    by_name = {fam.name: records for fam, records in zip(templated, per_family)}
    status = EXIT_OK
    for fam in families:
        if fam.name not in by_name:
            print("family %s: no template, skipped" % (fam.name,))
            continue
        report = verify_family(fam, by_name[fam.name])
        if report.all_ok:
            print(
                "family %s: OK, %d primes exact (%d in the valid range)"
                % (fam.name, len(report.entries), report.n_valid)
            )
        else:
            status = EXIT_MISMATCH
            for entry in report.mismatches:
                print(
                    "family %s: MISMATCH at p=%d: predicted S1=%d S2=%d, got S1=%d S2=%d"
                    % (fam.name, entry.p, entry.predicted_S1, entry.predicted_S2,
                       entry.actual_S1, entry.actual_S2)
                )
    return status


def _cmd_oracle(args) -> int:
    from .traces import (_block_traces, _power_sums, _prime_records, _trace_histograms,
                         coefficient_rows, point_count_oracle, trace_tables)

    if args.samples < 1:
        raise ValidationError("--samples must be >= 1, got %r" % (args.samples,))
    cfg = _config(args, r_max=1)
    families = load_families(cfg)
    primes = cfg.primes()
    every = max(61, args.samples)  # primes up to this have every fiber checked
    rng = random.Random(0)  # drawn family-major, the order the lines are printed in
    samples = {(i, p): range(p) if p <= every else sorted(rng.sample(range(p), args.samples))
               for i in range(len(families)) for p in primes}
    rows = coefficient_rows(families)
    lines = {}
    status = EXIT_OK
    for p in primes:  # each prime's tables are built once, for every family
        tt = trace_tables(p)
        for i, fam in enumerate(families):
            traces = _block_traces([rows[i]], tt)[0]
            ts = samples[i, p]
            bad = []
            for t in ts:
                fib = fiber_at(fam, t, p)
                a_t = int(traces[t])
                if a_t != p - point_count_oracle(fib):
                    bad.append(t)
                elif discriminant(fib) != 0 and a_t * a_t > 4 * p:
                    bad.append(t)
            verdict = "FAIL at t=%s" % (bad,) if bad else None
            if not bad:  # the whole row's S_1..S_R_MAX against the record moments writes
                try:  # a served family's record is read by class; both raise on a certificate
                    row_sums = _power_sums(_trace_histograms(traces[None], p), p, R_MAX)[0]
                    (record,) = _prime_records([fam], [rows[i]], tt, R_MAX)
                except ArithmeticError as exc:
                    verdict = "FAIL: %s" % (exc,)
                else:
                    off = [r for r, (x, y) in enumerate(zip(row_sums, record.sums), 1) if x != y]
                    verdict = "FAIL in S_r at r=%s" % (off,) if off else None
            if verdict:
                status = EXIT_MISMATCH
            else:
                verdict = "OK (%d fibers)" % (len(ts),)
            lines[i, p] = "family %s p=%d: %s" % (fam.name, p, verdict)
    for key in sorted(lines):
        print(lines[key])
    return status


_COMMANDS = {
    "moments": _cmd_moments,
    "report": _cmd_report,
    "discover": _cmd_discover,
    "verify": _cmd_verify,
    "oracle": _cmd_oracle,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error, the code of a mismatch here
        return EXIT_INVALID if exc.code else EXIT_OK
    try:
        return _COMMANDS[args.command](args)
    except BrokenPipeError:  # stdout closed early: entry() ends the process quietly
        raise
    except (FamilyParseError, ValidationError, OSError, ValueError) as exc:
        print("error: %s" % (exc,), file=sys.stderr)
        return EXIT_INVALID
    except ArithmeticError as exc:  # a failed certificate: Birch, Hasse, S1 or the FFT check
        print("error: %s" % (exc,), file=sys.stderr)
        return EXIT_MISMATCH


def entry() -> None:
    """Run main() as a process; a reader that closes stdout early ends it with exit 1.

    The commands make no reference cycles, so the process runs without the
    cyclic collector, and freezes what it holds at the end so that shutdown
    does not scan it either. main() itself leaves the collector as it is.
    """
    gc.disable()
    try:
        status = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the interpreter's final flush must not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 1
    gc.freeze()
    sys.exit(status)


if __name__ == "__main__":
    entry()
