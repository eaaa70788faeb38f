"""End-to-end and per-layer benchmark of the ecmoments CLI.

    python3 bench/run.py --workload corpus --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
./src, nothing is installed. With --trace 0 each round runs the five CLI
steps as subprocesses, one at a time, with --threads equal to the number
of usable cores, and reports end-to-end medians. With --trace 1 the same
steps run in-process with one worker, once plainly and once with spans
around every layer, and per-layer figures are reported. The last line of
stdout is one JSON object; see README.md.
"""

from __future__ import annotations

import os

# fixed before numpy loads, here and in every CLI process the benchmark starts
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
from reference import primes_upto_index  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
THREADS = len(os.sched_getaffinity(0))
MODULUS = ("2,1,0", 12)  # discover's --modulus and the modulus it means
SETUP_STARTS = 9  # cold CLI starts per run; setup_s is their median
SHORT_REPEATS = 5  # resume and report runs per round


class Tally:
    """Operations attempted and failed; a failed one also prints its problems."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, what: str, problems) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            print("FAILED %s: %s" % (what, "; ".join(problems[:5])), file=sys.stderr)


def cli_env() -> dict:
    env = dict(os.environ, **BLAS_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class Launcher:
    """The small process (launch.py) that spawns and times each CLI command."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("launch.py"))], cwd=ROOT,
            env=cli_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, argv: list[str], stdout_path: Path | None = None):
        """(wall s, user + system CPU s, peak RSS MB, exit code) of one command and its workers."""
        request = {"argv": argv, "stdout": str(stdout_path) if stdout_path else None}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        return reply["wall"], reply["cpu"], reply["rss_mb"], reply["code"]

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
        self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()


def cli_args(wl: inputs.Workload, out_dir: Path, family_file: Path, threads: int):
    common = ["--start", str(wl.start), "--end", str(wl.end), "--out", str(out_dir),
              "--threads", str(threads)]
    if wl.file_input:
        common += ["--families", str(family_file)]
    return [
        ("moments", ["moments", "--rmax", "7"] + common),
        ("resume", ["moments", "--rmax", "7", "--resume"] + common),
        ("report", ["report"] + common),
        ("verify", ["verify"] + common),
        ("discover", ["discover", "--modulus", MODULUS[0]] + common),
    ]


def sha(path: Path) -> str | None:
    """Digest of the file, or None when there is none."""
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except FileNotFoundError:
        return None


class Run:
    """One workload's inputs, output directory and the checks shared by both modes."""

    def __init__(self, workload: str, seed: int):
        self.wl = inputs.make(workload, seed)
        self.seed = seed
        self.primes = primes_upto_index(self.wl.end)[self.wl.start - 1:]
        self.dir = OUT / workload
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.family_file = self.dir / "families.json"
        self.family_file.write_text(inputs.family_file_json(self.wl.families), encoding="utf-8")
        self.tally = Tally()
        self.csv_sha = None

    def check_outputs(self, out_dir: Path, logs: dict, codes: dict) -> None:
        """Checks after one pass of the five steps; `logs` maps a step to its stdout text."""
        try:
            rows = checks.read_csv(out_dir / "moments.csv")
            report = (out_dir / "report.txt").read_text(encoding="utf-8")
        except (OSError, ValueError, IndexError) as exc:
            self.tally.check("outputs readable", [str(exc)])
            return
        t = self.tally
        t.check("CSV covers the window", checks.csv_shape(rows, self.wl.families, self.primes))
        digest = sha(out_dir / "moments.csv")
        t.check("CSV identical across rounds",
                [] if self.csv_sha in (None, digest) else ["CSV bytes changed between rounds"])
        if self.csv_sha is None:
            self.csv_sha = digest
            self.check_once(rows)
        t.check("report means", checks.report_means(report, rows))
        t.check("verify output", checks.verify_output(logs["verify"], codes["verify"], rows,
                                                      self.wl.families))
        t.check("discover output", checks.discover_output(logs["discover"], codes["discover"],
                                                          rows, self.wl.families, MODULUS[1]))

    def check_once(self, rows: dict) -> None:
        """Closed forms over the whole CSV and brute-force counts on seeded rows."""
        self.tally.check("closed forms", checks.closed_forms(rows, self.wl.families))
        rng = random.Random(self.seed)
        pairs = [(name, a, p) for name, a in self.wl.families for p in self.primes]
        for name, a, p in rng.sample(pairs, self.wl.brute_rows):
            row, hasse = checks.brute_force(rows, a, name, p)
            self.tally.check("point count %s p=%d" % (name, p), row)
            self.tally.check("Hasse bound %s p=%d" % (name, p), hasse)

    def fibers(self) -> int:
        return len(self.wl.families) * sum(self.primes)


def measure(run: Run, seconds: float) -> dict:
    """Setup starts, then whole rounds of the five steps while they fit in `seconds`."""
    launcher = Launcher()
    try:
        return measure_rounds(run, seconds, launcher)
    finally:
        launcher.close()


def measure_rounds(run: Run, seconds: float, launcher: Launcher) -> dict:
    python = [sys.executable]
    launcher.run(python + ["-c", "import ecmoments.cli"])  # writes the bytecode cache
    setup = []
    for _ in range(SETUP_STARTS):
        wall, _, _, code = launcher.run(python + ["-c", "import ecmoments.cli"])
        run.tally.check("cold start", [] if code == 0 else ["exit %d" % code])
        setup.append(wall)
    samples = {k: [] for k in ("moments", "cpu", "rss", "resume", "report", "verify", "discover")}
    out_dir = run.dir / "out"
    busy, rounds = 0.0, 0  # busy: time in rounds, leaving out the checks
    while rounds == 0 or busy * (rounds + 1) / rounds <= seconds:
        t0 = time.perf_counter()
        shutil.rmtree(out_dir, ignore_errors=True)
        logs, codes = {}, {}
        for step, args in cli_args(run.wl, out_dir, run.family_file, THREADS):
            repeats = SHORT_REPEATS if step in ("resume", "report") else 1
            for _ in range(repeats):
                before = sha(out_dir / "moments.csv") if step == "resume" else None
                log = run.dir / ("%s.log" % step)
                wall, cpu, rss, code = launcher.run(python + ["-m", "ecmoments.cli"] + args, log)
                ok_codes = (0, 2) if step == "discover" else (0,)
                run.tally.check(step, [] if code in ok_codes else ["exit %d" % code])
                samples[step].append(wall)
                if step == "moments":
                    samples["cpu"].append(cpu)
                    samples["rss"].append(rss)
                if step == "resume":
                    run.tally.check("resume leaves the CSV byte-identical",
                                    [] if sha(out_dir / "moments.csv") == before else ["changed"])
            logs[step] = log.read_text(encoding="utf-8")
            codes[step] = code
        busy += time.perf_counter() - t0
        run.check_outputs(out_dir, logs, codes)
        rounds += 1
    (run.dir / "samples.json").write_text(json.dumps(dict(samples, setup=setup)), encoding="utf-8")
    med = {k: statistics.median(v) for k, v in samples.items()}
    return {
        "setup_s": (statistics.median(setup), "s"),
        "fibers_per_s": (run.fibers() / med["moments"], "1/s"),
        "moments_cpu_s": (med["cpu"], "s"),
        "peak_rss_mb": (med["rss"], "MB"),
        "resume_s": (med["resume"], "s"),
        "report_s": (med["report"], "s"),
        "verify_s": (med["verify"], "s"),
        "discover_s": (med["discover"], "s"),
    }


# per-layer figures of one traced pass: name -> (layer or span name, kind, unit)
LAYER_METRICS = {
    "traces.sweep_s": ("traces.sweep", "self", "s"),
    "traces.sweep_calls": ("traces.traces_mod_p", "calls", "count"),
    "traces.fibers": ("traces.traces_mod_p", "fibers", "count"),
    "traces.power_sums_s": ("traces.power_sums", "self", "s"),
    "modular.legendre_tables": ("modular.build_legendre_table", "calls", "count"),
    "modular.legendre_table_s": ("modular.legendre_table", "self", "s"),
    "families.invariants_s": ("families.invariants", "self", "s"),
    "io.parse_families_s": ("io.parse_families", "self", "s"),
    "runner.self_s": ("runner", "self", "s"),
    "runner.tasks": ("traces.moment_sums", "tasks", "count"),
    "runner.compute_records_calls": ("runner.compute_records", "calls", "count"),
    "io.read_csv_s": ("io.read_csv", "self", "s"),
    "io.write_csv_s": ("io.write_csv", "self", "s"),
    "io.atomic_writes": ("io.atomic_write_text", "calls", "count"),
    "io.atomic_write_s": ("io.atomic_write", "self", "s"),
    "closed_forms.verify_family_s": ("closed_forms.verify_family", "self", "s"),
    "discovery.fit_s": ("discovery.fit", "self", "s"),
    "bias.stats_s": ("bias.stats", "self", "s"),
    "svg.render_s": ("svg.render", "self", "s"),
    "report.self_s": ("report", "self", "s"),
    "cli.self_s": ("cli", "self", "s"),
}


def traced_pass(run: Run) -> tuple[dict, dict]:
    """The five steps in-process with one worker, each run plainly and traced.

    The plain and the traced copy of a step run back to back, in alternating
    order, so that drift in the machine's speed falls on both alike. Returns
    the per-layer figures and the two modes' wall times.
    """
    import tracing
    from ecmoments import cli, families, modular

    caches = (modular.cached_legendre_table, families.compute_invariants)
    tracer = tracing.Tracer()
    modes = ("plain", "traced")
    steps = {}
    for mode in modes:
        shutil.rmtree(run.dir / mode, ignore_errors=True)
        steps[mode] = cli_args(run.wl, run.dir / mode, run.family_file, 1)
    walls = dict.fromkeys(modes, 0.0)
    logs, codes = {m: {} for m in modes}, {m: {} for m in modes}
    for i in range(len(steps["plain"])):
        for mode in modes if i % 2 == 0 else modes[::-1]:
            name, args = steps[mode][i]
            csv_path = run.dir / mode / "moments.csv"
            before = sha(csv_path) if name == "resume" else None
            for cache in caches:  # each CLI step starts in a fresh process
                cache.cache_clear()
            buf = io.StringIO()
            if mode == "traced":
                tracer.install()
            try:
                with contextlib.redirect_stdout(buf):
                    t0 = time.perf_counter()
                    if mode == "traced":
                        code = tracer.span("cli", lambda: cli.main(args))
                    else:
                        code = cli.main(args)
                    walls[mode] += time.perf_counter() - t0
            finally:
                tracer.uninstall()
            ok_codes = (0, 2) if name == "discover" else (0,)
            run.tally.check(name, [] if code in ok_codes else ["exit %d" % code])
            if name == "resume":
                run.tally.check("resume leaves the CSV byte-identical",
                                [] if sha(csv_path) == before else ["changed"])
            logs[mode][name], codes[mode][name] = buf.getvalue(), code
    for mode in modes:
        run.check_outputs(run.dir / mode, logs[mode], codes[mode])
    st = tracer.self_times()
    run.tally.check("layer self times account for the traced wall time",
                    [] if abs(sum(st.values()) - walls["traced"]) <= 0.01 * walls["traced"]
                    else ["%.4f s of %.4f s" % (sum(st.values()), walls["traced"])])
    figures = {}
    for metric, (name, kind, _) in LAYER_METRICS.items():
        if kind == "self":
            figures[metric] = st.get(name, 0.0)
        elif kind == "calls":
            figures[metric] = tracer.count(name)
        elif kind == "tasks":
            figures[metric] = tracer.count(name, parent_prefix="runner.")
        else:  # fibers: sum of p over the sweep calls, p being the second argument
            figures[metric] = sum(sp.args[1] for sp in tracer.spans if sp.name == name)
    return figures, walls


def measure_traced(run: Run, seconds: float, import_s: float) -> dict:
    """Traced passes while they fit in `seconds`; medians of times, counts of one pass."""
    passes, busy = [], 0.0  # busy: time in the five steps, leaving out the checks
    while not passes or busy * (len(passes) + 1) / len(passes) <= seconds:
        passes.append(traced_pass(run))
        busy += sum(passes[-1][1].values())
    first = passes[0][0]
    for figures, _ in passes[1:]:
        run.tally.check("per-layer counts repeat between passes",
                        [m for m, (_, kind, _) in LAYER_METRICS.items()
                         if kind != "self" and figures[m] != first[m]])
    out = {}
    for metric, (_, kind, unit) in LAYER_METRICS.items():
        vals = [figures[metric] for figures, _ in passes]
        out[metric] = (statistics.median(vals) if kind == "self" else first[metric], unit)
    out["cli.import_s"] = (import_s, "s")
    out["trace.wall_s"] = (statistics.median(w["traced"] for _, w in passes), "s")
    out["trace.untraced_wall_s"] = (statistics.median(w["plain"] for _, w in passes), "s")
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(inputs.WINDOWS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    if not (SRC / "ecmoments" / "cli.py").is_file():
        print("error: no program source at %s" % (SRC / "ecmoments"), file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))
    import_s = None
    if args.trace:
        t0 = time.perf_counter()
        import ecmoments.cli  # noqa: F401  (timed: the traced run's cli.import_s)

        import_s = time.perf_counter() - t0
    import ecmoments

    if Path(ecmoments.__file__).resolve().parent != (SRC / "ecmoments").resolve():
        print("error: ecmoments imported from %s, not %s" % (ecmoments.__file__, SRC),
              file=sys.stderr)
        return 1
    run = Run(args.workload, args.seed)
    metrics = (measure_traced(run, args.seconds, import_s) if args.trace
               else measure(run, args.seconds))
    result = {
        "correct": run.tally.failed == 0,
        "attempted": run.tally.attempted,
        "failed": run.tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
