#!/usr/bin/env python3
"""The repository benchmark: spec text to rendered artifact, per workload.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the harness (`benchmark/Cargo.toml`, release profile) into
`$CARGO_TARGET_DIR` (default `.bench_build`), then runs repetitions one
at a time, each in a fresh process, for `--seconds` seconds: a closed
loop with one client and at most one pipeline thread.

`--trace 0` times the untraced path (`run_spec` / `run_serve` plus
`Report::render`) and prints the end-to-end metrics: 10%-trimmed means
over the repetitions for times (see `trimmed_mean`), the median for
memory. A traced repetition follows, untimed and with one calibration
pass: it must give the same artifact digest, and its calibration repeats
each crate's call and checks what only those calls expose (message
conservation per sweep point, the unrounded GA front).

`--trace 1` alternates untraced and traced repetitions and prints the
per-layer metrics (medians over the traced ones). It writes the span file
(Chrome trace-event JSON) and a per-layer table under `.bench_out/`.

Every repetition checks its artifact; a failed check, a crash, a timeout
or an artifact digest that differs from the other same-seed repetitions
counts as a failed run. The last stdout line is the JSON result; a
human-readable summary and host provenance go to stderr and to
`.bench_out/<workload>-seed<N>-trace<T>.json`.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = [
    "ga-paper-8l",
    "sweep-uniform-64n",
    "static-transpose-128n",
    "serve-churn-16n",
]
# What one unit of `work` is, per workload (for `work_per_s`).
WORK_UNITS = {
    "ga-paper-8l": "NSGA-II evaluations",
    "sweep-uniform-64n": "simulated messages",
    "static-transpose-128n": "simulated messages",
    "serve-churn-16n": "sessions",
}
MIN_RUNS = 3  # untraced repetitions per --trace 0 run, whatever --seconds says
CHILD_TIMEOUT_S = 60.0  # a repetition slower than this is a failed run
TOTAL_LIMIT_S = 170.0  # no repetition may start a timeout past this (after build)
PER_LAYER_UNITS = {
    "spec.parse_us": "us",
    "budget.models_per_s": "1/s",
    "budget.share": "frac",
    "wa.evals_per_s": "1/s",
    "wa.gens_per_s_p50": "1/s",
    "wa.reevals_per_s": "1/s",
    "wa.sorts_per_s": "1/s",
    "wa.valid_frac": "frac",
    "wa.synth_per_s": "1/s",
    "traffic.msgs_per_s": "1/s",
    "sim.core_msgs_per_s": "1/s",
    "sim.msgs_per_s_below_knee": "1/s",
    "sim.msgs_per_s_above_knee": "1/s",
    "sim.msgs_per_s_static": "1/s",
    "sim.blocked_per_msg": "ratio",
    "probe.energy_share": "frac",
    "probe.telemetry_share": "frac",
    "report.fold_share": "frac",
    "serve.gen_sessions_per_s": "1/s",
    "serve.loop_sessions_per_s": "1/s",
    "serve.pack_ratio": "ratio",
    "serve.defrag_moves": "count",
    "artifact.tables_s": "s",
    "artifact.render_s": "s",
    "artifact.bytes": "bytes",
    "trace.wall_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead_s": "s",
}
END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "work_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def log(msg=""):
    print(msg, file=sys.stderr, flush=True)


def target_dir():
    raw = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    path = Path(raw)
    return path if path.is_absolute() else ROOT / path


def build():
    """Builds the harness; returns its path, or None when the build fails."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(BENCH_DIR / "Cargo.toml")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"build failed: {e}")
        return None
    binary = target_dir() / "release" / "onoc-e2e-bench"
    if done.returncode != 0 or not binary.exists():
        log(f"build failed (exit {done.returncode})")
        return None
    return binary


def command_output(cmd):
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
        return done.stdout.strip() if done.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def provenance():
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "commit": command_output(["git", "rev-parse", "HEAD"]),
        "rustc": command_output(["rustc", "--version"]),
        "build_profile": "release (benchmark/Cargo.toml: lto=thin, codegen-units=1)",
        "sweep_threads": 1,
        "machine": platform.machine(),
        "python": platform.python_version(),
    }


class Runner:
    """Runs repetitions one at a time and keeps the tally."""

    def __init__(self, binary, workload, seed, size, started):
        self.binary = binary
        self.workload = workload
        self.seed = seed
        self.size = size
        self.started = started
        self.attempted = 0
        self.failures = []
        self.records = []

    def run(self, mode, spans=None, passes=None):
        self.attempted += 1
        cmd = [str(self.binary), self.workload, "--seed", str(self.seed),
               "--size", self.size, "--mode", mode]
        if spans:
            cmd += ["--spans", str(spans)]
        if passes:
            cmd += ["--passes", str(passes)]
        remaining = TOTAL_LIMIT_S - (time.monotonic() - self.started)
        timeout = max(5.0, min(CHILD_TIMEOUT_S, remaining))
        try:
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:
            return self.fail(mode, f"timed out after {timeout:.0f} s")
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            return self.fail(mode, f"exit {done.returncode}: {done.stderr.strip()[-500:]}")
        try:
            record = json.loads(lines[-1])
        except json.JSONDecodeError:
            return self.fail(mode, f"unparsable output {lines[-1][:200]!r}")
        if not record.get("ok"):
            return self.fail(mode, record.get("error", "check failed"))
        digests = {r["digest"] for r in self.records}
        if digests and record["digest"] not in digests:
            return self.fail(mode, f"artifact digest {record['digest']} differs from "
                                   f"{sorted(digests)} for the same seed")
        self.records.append(record)
        log(f"  {mode:5s} ok  digest {record['digest']}"
            + (f"  wall {record['wall_s']:.4f} s" if mode == "run" else
               f"  traced wall {record['per_layer']['trace.wall_s']:.4f} s"))
        return record

    def fail(self, mode, why):
        self.failures.append(f"{mode}: {why}")
        log(f"  {mode:5s} FAILED  {why}")
        return None

    def elapsed(self):
        return time.monotonic() - self.started

    def of(self, mode):
        return [r for r in self.records if r["mode"] == mode]


def metric(value, unit):
    return {"value": value, "unit": unit}


def trimmed_mean(values, cut=0.1):
    """Mean after dropping the `cut` share of samples at each end.

    The run statistic for times. On a shared 2-vCPU x86-64 cloud guest
    the CPU flips between a fast and a slow speed state every few
    seconds (up to 1.8x apart), so repetition times are bimodal: a run's
    median jumps between the modes with the share of time spent in each,
    while a trimmed mean moves smoothly and still ignores single
    outliers. There, over five 20 s runs per workload, its spread was
    0.11-0.22 of the value against 0.15-0.25 for the median."""
    values = sorted(values)
    k = int(len(values) * cut)
    kept = values[k:len(values) - k]
    return sum(kept) / len(kept)


def end_to_end(runner):
    runs = runner.of("run")
    if not runs:
        return {}
    return {
        "wall_s": metric(trimmed_mean(r["wall_s"] for r in runs), "s"),
        "setup_s": metric(trimmed_mean(r["setup_s"] for r in runs), "s"),
        "work_per_s": metric(trimmed_mean(r["work"] / r["wall_s"] for r in runs), "1/s"),
        "peak_rss_mb": metric(statistics.median(r["peak_rss_kb"] / 1024 for r in runs), "MB"),
    }


def distribution(values):
    """Sample count, median and spread of one run's repetitions."""
    values = sorted(values)
    out = {"n": len(values), "median": statistics.median(values),
           "min": values[0], "max": values[-1]}
    if len(values) >= 2:
        q = statistics.quantiles(values, n=4)
        out["q1"], out["q3"] = q[0], q[2]
    return out


def per_layer(runner):
    traced = runner.of("trace")
    if not traced:
        return {}
    out = {}
    for name, unit in PER_LAYER_UNITS.items():
        if name == "trace.overhead_s":
            continue
        out[name] = metric(statistics.median(r["per_layer"][name] for r in traced), unit)
    runs = runner.of("run")
    if runs:
        overhead = out["trace.wall_s"]["value"] - statistics.median(r["wall_s"] for r in runs)
        out["trace.overhead_s"] = metric(overhead, "s")
    return out


def layer_table(runner, metrics):
    """The human-readable per-layer table: seconds per layer (median over
    traced runs), the absolute layer figures, and the remainder."""
    traced = runner.of("trace")
    names = sorted({k for r in traced for k in r["layers"]})
    wall = metrics["trace.wall_s"]["value"]
    lines = [f"per-layer time, {runner.workload}, seed {runner.seed} "
             f"(median of {len(traced)} traced run(s))",
             f"{'layer':24s} {'seconds':>12s} {'share':>8s}"]
    total = 0.0
    for name in names:
        v = statistics.median(r["layers"].get(name, 0.0) for r in traced)
        total += v
        lines.append(f"{name:24s} {v:12.6f} {v / wall:8.2%}")
    rest = metrics["trace.unattributed_s"]["value"]
    lines.append(f"{'(unattributed)':24s} {rest:12.6f} {rest / wall:8.2%}")
    lines.append(f"{'traced wall':24s} {wall:12.6f} (layers + unattributed = {total + rest:.6f})")
    if "trace.overhead_s" in metrics:
        lines.append(f"{'tracing overhead':24s} {metrics['trace.overhead_s']['value']:12.6f} "
                     f"(traced wall minus untraced wall_s median)")
    lines.append("")
    lines.append("layer figures (median over traced runs):")
    figure_names = sorted({k for r in traced for k in r["table"]})
    for name in figure_names:
        v = statistics.median(r["table"].get(name, 0.0) for r in traced)
        lines.append(f"  {name:32s} {v:.6g}")
    return "\n".join(lines) + "\n"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    parser.add_argument("--size", choices=["full", "tiny"], default="full",
                        help="tiny shrinks every workload for self-tests")
    args = parser.parse_args()

    binary = build()
    if binary is None:
        return 1
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    runner = Runner(binary, args.workload, args.seed, args.size, time.monotonic())
    log(f"{args.workload} seed {args.seed}, {args.seconds:g} s, trace {args.trace}")

    if args.trace == 0:
        while runner.elapsed() < args.seconds or len(runner.of("run")) < MIN_RUNS:
            if runner.attempted >= MIN_RUNS and not runner.records:
                break  # every repetition so far failed: stop early
            if runner.elapsed() > TOTAL_LIMIT_S - CHILD_TIMEOUT_S:
                break
            runner.run("run")
        # One traced repetition, untimed: the same artifact digest as the
        # untraced runs, and the checks its calibration makes.
        runner.run("trace", passes=1)
        metrics = end_to_end(runner)
    else:
        spans = out_dir / f"{stem}-spans.json"
        while True:
            runner.run("run")
            runner.run("trace", spans=None if runner.of("trace") else spans)
            if runner.elapsed() >= args.seconds or runner.attempted >= 2 * MIN_RUNS \
                    and not runner.records:
                break
            if runner.elapsed() > TOTAL_LIMIT_S - 2 * CHILD_TIMEOUT_S:
                break
        metrics = per_layer(runner)
        if metrics:
            table = layer_table(runner, metrics)
            (out_dir / f"{stem}-layers.txt").write_text(table)
            log(table)

    failed = len(runner.failures)
    correct = failed == 0 and bool(metrics)
    runs = runner.of("run")
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "trace": args.trace,
        "work_unit": WORK_UNITS[args.workload],
        "provenance": provenance(),
        "attempted": runner.attempted,
        "failed": failed,
        "failures": runner.failures,
        "untraced_samples": len(runs),
        "traced_samples": len(runner.of("trace")),
        "metrics": metrics,
        "distributions": {
            key: distribution(r[key] for r in runs) for key in ("wall_s", "setup_s")
        } if runs else {},
        "records": runner.records,
    }
    (out_dir / f"{stem}-trace{args.trace}.json").write_text(json.dumps(summary, indent=1))
    log(f"provenance: {json.dumps(summary['provenance'])}")
    log(f"{runner.attempted} repetition(s), {failed} failed; {len(runs)} untraced sample(s)")
    for key, d in summary["distributions"].items():
        log(f"  {key}: median {d['median']:.6g} s, min {d['min']:.6g}, max {d['max']:.6g} "
            f"over {d['n']} repetition(s)")
    log("metrics (times: 10%-trimmed mean over repetitions; per-layer: median):")
    for name, m in metrics.items():
        log(f"  {name:28s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
