"""isobound benchmark: CLI jobs timed end to end, every output checked.

    python3 bench/run.py --workload certify-large --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1

Each timed operation is one in-process call to isobound.cli.main(argv),
made from one sequential closed loop (one client, no threads). A
repetition is a fresh interpreter that sets up (imports isobound and
writes the seed's inputs) and pushes the workload's whole job list
through once, so an in-process cache is paid once per repetition, as a
CLI user would pay it. The run starts repetitions one after another
while the next one still fits in --seconds (at least two), and reports
each call's median over them: wall_s always measures the same work,
and a faster program gets more repetitions rather than a smaller job.
setup_s is the median set-up time over at least five fresh interpreters.

The speed of a shared machine swings by 20% and more over tens of
seconds. So a fixed pure-Python calibration loop, which never calls
the program, is timed between calls (see Speed), and each end-to-end
time is reported in seconds at the loop's reference speed. The unscaled
wall time of every repetition is printed beside the metrics.

--trace 0 prints the end-to-end metrics. --trace 1 runs one repetition
that pushes the job list through untraced, then again with spans
recorded around calls into every module (see spans.py), and prints the
per-layer metrics of the traced pass and the tracing overhead.
--workload all runs every workload both ways and ends with the
per-rule slack of the greedy next to the LP's tight rows for delta = 4.

The last line of stdout is the JSON result. Work files go under
.bench_work/ in the repository root.
"""

from __future__ import annotations

import argparse
import bisect
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import workloads
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
WORK = Path(".bench_work")
MIN_REPS = 2
# the calibration loop's median time on the reference machine (Xeon at
# 2.1 GHz, Python 3.11.7), and how often a repetition re-times it
PROBE_REF_S = 0.0135
PROBE_EVERY_S = 0.5
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 170
RULES = tuple(f"R{i}" for i in range(1, 8))

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "job_p50_s": "s",
    "job_p90_s": "s",
    "cmd.solve_s": "s",
    "cmd.certify_s": "s",
    "peak_rss_mb": "MB",
}
COMMANDS = ("gen", "greedy", "verify-bound", "lp-weights", "check-weights", "exact",
            "certify-edge")
PER_LAYER = {
    "cli.self_s": "s", "cli.report_bytes": "bytes", "cli.invocations": "count",
    "graph.emit_graph6_s": "s", "graph.parse_graph6_s": "s", "graph.parse_edge_list_s": "s",
    "graph.profile_s": "s", "graph.generate_s": "s", "graph.graph6_bytes": "bytes",
    "residual.compute_calls": "count", "residual.compute_s": "s",
    "residual.total_weight_s": "s", "residual.is_isolating_s": "s",
    "greedy.run_s": "s", "greedy.select_s": "s", "greedy.self_s": "s", "greedy.verify_s": "s",
    "greedy.scaling_exp": "exponent", "greedy.verify_scaling_exp": "exponent",
    **{f"greedy.steps.{r}": "count" for r in RULES},
    **{f"greedy.min_slack.{r}": "vertices" for r in RULES},
    "greedy.size_over_bound": "ratio",
    "lpweights.solve_s": "s", "lpweights.build_s": "s", "lpweights.check_s": "s",
    "lpweights.tight_rows": "count",
    "exact.solve_s": "s", "exact.nodes": "count", "exact.nodes_per_s": "nodes/s",
    "exact.seed_s": "s", "exact.dp_s": "s", "exact.dp_calls": "count",
    "families.certify_s": "s", "families.chain_s": "s",
    **{f"cmd.{c}_s": "s" for c in COMMANDS},
    "fail_ratio": "ratio",
    "trace.overhead_s": "s",
}


# ---------------------------------------------------------------------------
# one repetition, in a fresh interpreter

def setup(workload: str, seed: int, work: Path):
    """Import isobound and write the workload's inputs."""
    import isobound.cli as cli

    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    jobs = workloads.JOB_LISTS[workload](random.Random(f"{workload}:{seed}"), work)
    return cli, jobs


def calibrate() -> float:
    """Time a fixed pure-Python loop, which measures the machine's speed now.

    Dict stores, integer and Fraction arithmetic and a sort, like the
    library's own inner loops; the program under test never runs it.
    """
    t0 = perf_counter()
    acc, seen = 0, {}
    for i in range(50000):
        acc = (acc * 31 + i) % 1000003
        seen[acc & 4095] = i
    total = Fraction(0)
    for i in range(1, 400):
        total += Fraction(i, i + 1)
    sorted(seen.values())
    return perf_counter() - t0


class Speed:
    """Calibration-loop times, taken between calls at most every PROBE_EVERY_S.

    A call's time is scaled by PROBE_REF_S over the mean of the loop
    times just before and just after it, which takes out most of the
    slow swings in speed of a shared machine.
    """

    def __init__(self):
        self.ends: list[float] = []
        self.times: list[float] = []
        self.take()

    def take(self) -> None:
        self.times.append(calibrate())
        self.ends.append(perf_counter())

    def due(self) -> None:
        if perf_counter() - self.ends[-1] >= PROBE_EVERY_S:
            self.take()

    def scaled(self, start: float, seconds: float) -> float:
        before = bisect.bisect_right(self.ends, start) - 1
        after = min(bisect.bisect_left(self.ends, start + seconds), len(self.ends) - 1)
        return seconds * 2 * PROBE_REF_S / (self.times[before] + self.times[after])


class Pass:
    """Call timings and check results of one pass over a job list."""

    def __init__(self):
        self.calls_s: list[list[float]] = []
        self.scaled_s: list[list[float]] = []
        self.failures: list[str] = []
        self.report_bytes = 0
        self.tally = workloads.Tally()

    @property
    def wall_s(self) -> float:
        return sum(map(sum, self.calls_s))


def _call(cli, argv: list[str]) -> tuple[int | None, float, float, str, str]:
    out, err = io.StringIO(), io.StringIO()
    rc = None
    with redirect_stdout(out), redirect_stderr(err):
        t0 = perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as e:
            rc = e.code if isinstance(e.code, int) else 2
        except Exception:  # a traceback is a failed job, not a stopped run
            err.write(traceback.format_exc())
        dt = perf_counter() - t0
    return rc, t0, dt, out.getvalue(), err.getvalue()


def _read_report(argv: list[str]) -> tuple[dict | None, int]:
    """The --out JSON report and its size less the timing digits, which vary."""
    if argv[0] == "gen" or "--out" not in argv:
        return None, 0
    try:
        text = Path(argv[argv.index("--out") + 1]).read_text()
        report = json.loads(text)
    except (OSError, ValueError):
        return None, 0
    size = len(text.encode())
    if isinstance(report, dict) and "timing_seconds" in report:
        size -= len(json.dumps(report["timing_seconds"]))
    return report, size


def run_pass(cli, jobs: list, speed: Speed, tracer: Tracer | None = None) -> Pass:
    p = Pass()
    starts = []
    for idx, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = idx
        outs, times, errors = [], [], []
        for _, argv in job.calls:
            speed.due()
            rc, t0, dt, stdout, stderr = _call(cli, argv)
            starts.append(t0)
            times.append(dt)
            report, size = _read_report(argv)
            p.report_bytes += size
            outs.append(workloads.Outcome(argv, rc, stdout, report))
            if rc != 0 and stderr:
                errors.append(stderr.strip().splitlines()[-1])
        p.calls_s.append(times)
        try:
            job.check(outs, p.tally)
        except (workloads.CheckFailed, AttributeError, KeyError, TypeError, ValueError) as e:
            detail = "; ".join(errors) or f"{type(e).__name__}: {e}"
            p.failures.append(f"job {idx} ({job.name}): {detail}")
    speed.take()
    start = iter(starts)
    p.scaled_s = [[speed.scaled(next(start), dt) for dt in times] for times in p.calls_s]
    return p


def _slope(points: list[tuple[int, float]]) -> float:
    """Least-squares slope of log t against log n; 0 without two sizes."""
    points = [(n, t) for n, t in points if n > 0 and t > 0]
    if len({n for n, _ in points}) < 2:
        return 0.0
    fit = statistics.linear_regression([math.log(n) for n, _ in points],
                                       [math.log(t) for _, t in points])
    return fit.slope


def per_layer(tr: Tracer, p: Pass, jobs: list, untraced: Pass) -> dict:
    T = tr.total
    nodes = tr.counts["exact.nodes"]
    t = p.tally
    m = {
        "cli.self_s": tr.self_time("cli.main"),
        "cli.report_bytes": p.report_bytes,
        "cli.invocations": tr.calls("cli.main"),
        "graph.graph6_bytes": tr.counts["graph.graph6_bytes"],
        "residual.compute_calls": tr.calls("residual.compute"),
        "greedy.self_s": tr.self_time("greedy.run"),
        "greedy.scaling_exp": _slope([(j.n, T("greedy.run", i)) for i, j in enumerate(jobs)]),
        "greedy.verify_scaling_exp": _slope([(j.n, T("greedy.verify", i))
                                             for i, j in enumerate(jobs)]),
        "greedy.size_over_bound": t.size_sum / t.bound_sum if t.bound_sum else 0.0,
        "lpweights.tight_rows": t.tight_rows,
        "exact.nodes": nodes,
        "exact.nodes_per_s": nodes / T("exact.solve") if T("exact.solve") else 0.0,
        "exact.dp_calls": tr.calls("exact.dp"),
        # both passes scaled, since the machine's speed drifts between them
        "trace.overhead_s": sum(map(sum, p.scaled_s)) - sum(map(sum, untraced.scaled_s)),
    }
    for name in PER_LAYER:
        if name not in m and name.endswith("_s") and not name.startswith("cmd."):
            m[name] = T(name[:-2])
    for c in COMMANDS:
        m[f"cmd.{c}_s"] = sum(dt for job, times in zip(jobs, p.calls_s)
                              for (_, argv), dt in zip(job.calls, times) if argv[0] == c)
    for r in RULES:
        m[f"greedy.steps.{r}"] = t.steps[r]
        m[f"greedy.min_slack.{r}"] = float(t.min_slack.get(r, 0))
    return m


def child(args) -> int:
    """One repetition; writes what it measured as JSON to args.child."""
    work = WORK / args.workload
    speed = Speed()
    t0 = perf_counter()
    cli, jobs = setup(args.workload, args.seed, work)
    setup_s = perf_counter() - t0
    speed.take()
    out = {"setup_s": speed.scaled(t0, setup_s)}
    if not args.setup_only:
        first = run_pass(cli, jobs, speed)
        last = first
        if args.trace:
            tracer = Tracer()
            tracer.install()
            try:
                last = run_pass(cli, jobs, speed, tracer)
            finally:
                tracer.uninstall()
            (work / "spans.json").write_text(json.dumps(tracer.spans) + "\n")
            out["per_layer"] = per_layer(tracer, last, jobs, first)
        out.update(
            jobs=[{"name": j.name, "n": j.n,
                   "calls": [[role, argv[0], dt] for (role, argv), dt in zip(j.calls, times)]}
                  for j, times in zip(jobs, first.scaled_s)],
            unscaled_wall_s=first.wall_s,
            attempted=len(jobs) * (2 if args.trace else 1),
            failures=first.failures + (last.failures if args.trace else []),
            rules={"steps": dict(last.tally.steps),
                   "min_slack": {r: str(s) for r, s in last.tally.min_slack.items()}},
            delta4_tight_row_tags=last.tally.delta4_tight_tags,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        )
    out["calibration_s"] = statistics.median(speed.times)
    Path(args.child).write_text(json.dumps(out) + "\n")
    return 0


# ---------------------------------------------------------------------------
# the run: repetitions in child interpreters, aggregated here

def _spawn(args, setup_only: bool = False) -> dict:
    out = WORK / f"{args.workload}.child.json"
    out.unlink(missing_ok=True)
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--child", str(out)]
    proc = subprocess.run(argv + (["--setup-only"] if setup_only else []),
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0 or not out.exists():
        raise RuntimeError(f"repetition exited with code {proc.returncode}")
    return json.loads(out.read_text())


def _quantile(values: list[float], pct: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def end_to_end(reps: list[dict], setups: list[dict]) -> dict:
    """Metrics of the median repetition, taken call by call."""
    shape = [[c[:2] for c in job["calls"]] for job in reps[0]["jobs"]]
    if any([[c[:2] for c in job["calls"]] for job in r["jobs"]] != shape for r in reps):
        raise RuntimeError("repetitions ran different job lists")
    calls = [[(role, statistics.median(r["jobs"][j]["calls"][c][2] for r in reps))
              for c, (role, _) in enumerate(job)] for j, job in enumerate(shape)]
    job_s = [sum(dt for _, dt in job) for job in calls]
    return {
        "setup_s": statistics.median(r["setup_s"] for r in setups),
        "wall_s": sum(job_s),
        "job_p50_s": statistics.median(job_s),
        "job_p90_s": _quantile(job_s, 90),
        "cmd.solve_s": sum(dt for job in calls for role, dt in job if role == "solve"),
        "cmd.certify_s": sum(dt for job in calls for role, dt in job if role == "certify"),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }


def _git_sha() -> str:
    try:
        ref = (ROOT / ".git" / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        path = ROOT / ".git" / ref[5:]
        if path.exists():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def rule_table(rules: dict) -> list[str]:
    lines = ["rule  steps  min slack (xi - |A|)"]
    for r in RULES:
        slack = rules["min_slack"].get(r)
        lines.append(f"{r:4}  {rules['steps'].get(r, 0):5}  {'-' if slack is None else slack}")
    return lines


def run_workload(args) -> dict:
    """Run one workload, print its metrics and return the details."""
    start = perf_counter()
    reps = [_spawn(args)]
    if args.trace:
        metrics, units = reps[0]["per_layer"], PER_LAYER
    else:
        # start another repetition while it is expected to end in time
        while len(reps) < MIN_REPS or \
                (perf_counter() - start) * (len(reps) + 1) / len(reps) <= args.seconds:
            reps.append(_spawn(args))
        setups = list(reps)
        while len(setups) < SETUP_SAMPLES:
            setups.append(_spawn(args, setup_only=True))
        metrics, units = end_to_end(reps, setups), END_TO_END
    failures = [f for r in reps for f in r["failures"]]
    attempted = sum(r["attempted"] for r in reps)
    if args.trace:
        metrics["fail_ratio"] = len(failures) / attempted
        metrics = {name: metrics[name] for name in PER_LAYER}
    sizes = sorted({job["n"] for job in reps[0]["jobs"] if job["n"]})
    details = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": _git_sha(), "python": platform.python_version(),
        "nproc": os.cpu_count(), "jobs": len(reps[0]["jobs"]), "repetitions": len(reps),
        "rules": reps[-1]["rules"], "delta4_tight_row_tags": reps[-1]["delta4_tight_row_tags"],
        "failures": failures, "calibration_s": [r["calibration_s"] for r in reps],
        "unscaled_wall_s": [r["unscaled_wall_s"] for r in reps],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }

    for f in failures[:20]:
        print(f"FAILED {f}", file=sys.stderr)
    print(" ".join(f"{k}={details[k]}" for k in ("workload", "seed", "seconds", "trace",
                                                  "git_sha", "python", "nproc", "jobs",
                                                  "repetitions")))
    print(f"calibration loop, median per repetition: {details['calibration_s']} s; "
          + ("per-layer times are unscaled" if args.trace else
             f"end-to-end times are scaled to its reference {PROBE_REF_S} s "
             f"(unscaled wall_s per repetition: {details['unscaled_wall_s']})"))
    for k, v in metrics.items():
        print(f"  {k:28} {v:<24} {units[k]}")
    if args.trace and details["rules"]["steps"]:
        shown = (", ".join(map(str, sizes)) if len(sizes) <= 8
                 else f"{len(sizes)} sizes from {sizes[0]} to {sizes[-1]}")
        print(f"scaling exponents fitted over n = {shown}")
        print("\n".join(rule_table(details["rules"])))
    if details["delta4_tight_row_tags"]:
        print(f"delta=4 general tight rows: {details['delta4_tight_row_tags']}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": details["metrics"]}), flush=True)
    return details


def run_all(args) -> int:
    """Every workload, untraced then traced."""
    found = {}
    for workload in workloads.JOB_LISTS:
        for trace in (0, 1):
            print(f"== {workload} --trace {trace}", flush=True)
            found[workload, trace] = run_workload(
                argparse.Namespace(**{**vars(args), "workload": workload, "trace": trace}))
    # certify-large runs only delta = 4 general graphs; certify-corpus
    # mixes in the triangle-free vector, so it is left out here
    print("== certify-large: greedy rules beside the delta=4 general LP tight rows")
    table = rule_table(found["certify-large", 1]["rules"])
    right = ["tight rows (lp-sweep)"] + found["lp-sweep", 1]["delta4_tight_row_tags"]
    for i in range(max(len(table), len(right))):
        left = table[i] if i < len(table) else ""
        print(f"{left:40} {right[i] if i < len(right) else ''}")
    return 0 if not any(d["failures"] for d in found.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.JOB_LISTS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    if not (ROOT / "src" / "isobound" / "cli.py").is_file():
        print(f"error: no isobound sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.child:
        return child(args)
    try:
        if args.workload == "all":
            return run_all(args)
        run_workload(args)
    except (RuntimeError, subprocess.TimeoutExpired) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
