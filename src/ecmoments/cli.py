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
from .families import R_MAX, match_template
from .io import RunConfig, ValidationError, load_families, moments_csv_path
from .report import report_txt_path, run_report
from .runner import compute_records, oracle_verdicts, run_moments, stored_or_computed

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
                     help="most worker threads across primes (default %(default)s), one per "
                          "prime large enough to repay it; below two, in-process")


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


def _cmd_discover(args) -> int:
    cfg = _config(args, r_max=2, modulus_exponents=_parse_modulus(args.modulus))
    families = load_families(cfg)
    # S2 only at the primes some class's fit reads, none when every class is too small: from
    # moments.csv where it holds the pair, computed where it does not
    plan = fit_plan(cfg.primes(), *cfg.modulus_exponents, robust=args.robust, floor=args.floor)
    read = plan.read_primes()
    records = stored_or_computed(cfg, families, read)
    status = EXIT_OK
    for fam in families:
        fits = fit_classes(plan, {p: records[(fam.name, p)] for p in read})
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
    primes = cfg.primes()
    # computed, never read from moments.csv: verify exists to check the engine
    by_name = {fam.name: [] for fam in templated}
    for rec in compute_records(templated, primes, 2, cfg.workers):
        by_name[rec.family].append(rec)
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
    if args.samples < 1:
        raise ValidationError("--samples must be >= 1, got %r" % (args.samples,))
    cfg = _config(args)
    families = load_families(cfg)
    primes = cfg.primes()
    every = max(61, args.samples)  # primes up to this have every fiber checked
    rng = random.Random(0)  # drawn family-major, the order the lines are printed in
    samples = [[range(p) if p <= every else sorted(rng.sample(range(p), args.samples))
                for p in primes] for _ in families]
    verdicts = oracle_verdicts(families, dict(zip(primes, zip(*samples))), cfg.workers)
    for f, fam in enumerate(families):
        for p, ts in zip(primes, samples[f]):
            verdict = verdicts[p][f] or "OK (%d fibers)" % (len(ts),)
            print("family %s p=%d: %s" % (fam.name, p, verdict))
    return EXIT_MISMATCH if any(any(found) for found in verdicts.values()) else EXIT_OK


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
    except (OSError, ValueError) as exc:  # FamilyParseError and ValidationError among them
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
