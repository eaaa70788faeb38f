"""Command line interface: moments, report, discover, verify, oracle."""

from __future__ import annotations

import argparse
import os
import random
import sys
from fractions import Fraction

from .closed_forms import NoTemplateError, verify_family
from .discovery import SOME_FALSIFIED, discover, summarize
from .families import discriminant, fiber_at, match_template
from .io import (
    FamilyParseError,
    RunConfig,
    ValidationError,
    atomic_write_text,
    load_families,
    moments_csv_path,
)
from .modular import sieve_primes
from .report import run_report
from .runner import compute_records, run_moments
from .traces import MomentRecord, point_count_oracle, traces_mod_p

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_MISMATCH = 2


def _common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--families", metavar="PATH", default=None,
                     help="family file (JSON); the built-in corpus when omitted")
    sub.add_argument("--start", type=int, default=3, metavar="IDX",
                     help="first 1-based prime index (default 3, p=5)")
    sub.add_argument("--end", type=int, default=302, metavar="IDX",
                     help="last prime index, inclusive (default 302)")
    sub.add_argument("--out", default="out", metavar="DIR", help="output directory")
    sub.add_argument("--threads", type=int, default=1, metavar="N",
                     help="worker processes across primes (default 1)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ecmoments",
        description="Exact moment sums of fiber traces over one-parameter curve families.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    m = sub.add_parser("moments", help="compute S_1..S_rmax per prime and write CSV")
    _common_flags(m)
    m.add_argument("--rmax", type=int, default=7, help="highest moment, 1..8 (default 7)")
    m.add_argument("--resume", action="store_true",
                   help="keep rows already present in the output CSV")

    r = sub.add_parser("report", help="bias report and histograms from a moments CSV")
    _common_flags(r)
    r.add_argument("--csv", default=None, metavar="PATH",
                   help="input CSV (default <out>/moments.csv)")
    r.add_argument("--block", type=int, default=50, help="extra block size (default 50)")
    r.add_argument("--exponent", choices=["1", "3/2"], default="3/2",
                   help="second-moment normalization exponent (default 3/2)")

    d = sub.add_parser("discover", help="fit per-congruence-class second moment formulas")
    _common_flags(d)
    d.add_argument("--modulus", default="4,3,1", metavar="E,F,G",
                   help="exponents of 2,3,5 in the modulus (default 4,3,1)")
    d.add_argument("--robust", action="store_true",
                   help="fit after dropping the first primes of the run")
    d.add_argument("--floor", type=int, default=10,
                   help="primes dropped in robust mode (default 10)")

    v = sub.add_parser("verify", help="check closed-form S1/S2 against the engine")
    _common_flags(v)

    o = sub.add_parser("oracle", help="brute-force point-count spot checks")
    _common_flags(o)
    o.add_argument("--samples", type=int, default=8,
                   help="fibers sampled per prime when p is large (default 8)")
    return ap


def _config(args, r_max=7, resume=False, block=50, exponent="3/2", modulus=(4, 3, 1)) -> RunConfig:
    cfg = RunConfig(
        families_path=args.families,
        start=args.start,
        end=args.end,
        r_max=r_max,
        block_size=block,
        modulus_exponents=modulus,
        exponent2=Fraction(1) if exponent == "1" else Fraction(3, 2),
        out_dir=args.out,
        workers=args.threads,
        resume=resume,
    )
    cfg.validate()
    return cfg


def _cmd_moments(args) -> int:
    cfg = _config(args, r_max=args.rmax, resume=args.resume)
    path, records = run_moments(cfg)
    print("wrote %d records to %s" % (len(records), path))
    return EXIT_OK


def _cmd_report(args) -> int:
    cfg = _config(args, block=args.block, exponent=args.exponent)
    csv_path = args.csv or moments_csv_path(cfg)
    text, _ = run_report(csv_path, cfg)
    out_path = os.path.join(cfg.out_dir, "report.txt")
    atomic_write_text(out_path, text)
    sys.stdout.write(text)
    print("wrote %s" % (out_path,))
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


def _records_per_family(families, cfg: RunConfig) -> list[list[MomentRecord]]:
    """S1 and S2 of each family over the window, from one compute_records call."""
    records = compute_records(families, cfg.start, cfg.end, 2, cfg.workers)
    n_primes = len(records) // max(1, len(families))
    return [records[i * n_primes : (i + 1) * n_primes] for i in range(len(families))]


def _cmd_discover(args) -> int:
    cfg = _config(args, r_max=2, modulus=_parse_modulus(args.modulus))
    e, f, g = cfg.modulus_exponents
    families = load_families(cfg)
    status = EXIT_OK
    for fam, records in zip(families, _records_per_family(families, cfg)):
        fits = discover(records, e, f, g, robust=args.robust, floor=args.floor)
        verdict = summarize(fits)
        print("family %s: %s (mod %d)" % (fam.name, verdict, 2 ** e * 3 ** f * 5 ** g))
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
    by_name = {fam.name: records
               for fam, records in zip(templated, _records_per_family(templated, cfg))}
    status = EXIT_OK
    for fam in families:
        if fam.name not in by_name:
            print("family %s: no template, skipped" % (fam.name,))
            continue
        try:
            report = verify_family(fam, by_name[fam.name])
        except NoTemplateError:
            print("family %s: no template, skipped" % (fam.name,))
            continue
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
    cfg = _config(args, r_max=1)
    families = load_families(cfg)
    primes = sieve_primes(cfg.end)[cfg.start - 1 : cfg.end]
    rng = random.Random(0)
    status = EXIT_OK
    for fam in families:
        for p in primes:
            traces = traces_mod_p(fam, p)
            ts = range(p) if p <= 61 else sorted(rng.sample(range(p), args.samples))
            bad = []
            for t in ts:
                fib = fiber_at(fam, t, p)
                a_t = int(traces[t])
                if a_t != p - point_count_oracle(fib):
                    bad.append(t)
                elif discriminant(fib) != 0 and a_t * a_t > 4 * p:
                    bad.append(t)
            if bad:
                status = EXIT_MISMATCH
                print("family %s p=%d: FAIL at t=%s" % (fam.name, p, bad))
            else:
                print("family %s p=%d: OK (%d fibers)" % (fam.name, p, len(list(ts))))
    return status


_COMMANDS = {
    "moments": _cmd_moments,
    "report": _cmd_report,
    "discover": _cmd_discover,
    "verify": _cmd_verify,
    "oracle": _cmd_oracle,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (FamilyParseError, ValidationError, FileNotFoundError, ValueError) as exc:
        print("error: %s" % (exc,), file=sys.stderr)
        return EXIT_INVALID


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
