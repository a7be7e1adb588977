#!/usr/bin/env python3
"""Self-tests of the benchmark.

    python3 benchmark/selftest.py

1. `BENCHMARK.json` follows the benchmark file grammar (keys, name and
   unit grammar, counts, bounds, a `setup_s` metric).
2. The names and units in `BENCHMARK.json` are exactly the ones the
   harness emits (`run.py`'s tables), and its workloads are `run.py`'s.
3. A tiny-size run of every workload, untraced and traced, passes its
   checks and prints exactly the declared metrics, each a finite number.
"""

import json
import math
import re
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
import run  # noqa: E402  (the harness runner, for its name tables)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")

failures = []


def expect(ok, what):
    if not ok:
        failures.append(what)
        print(f"FAIL {what}", file=sys.stderr)


def check_grammar(spec):
    expect(set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}, f"top-level keys {sorted(spec)}")
    cmd = spec["command"]
    expect(isinstance(cmd, list) and 1 <= len(cmd) <= 32
           and all(isinstance(c, str) and len(c) <= 200 for c in cmd), "command shape")
    expect(all(not c.startswith("/") and ".." not in c.split("/") for c in cmd),
           "command names no absolute or parent path")
    paths = spec["paths"]
    expect(1 <= len(paths) <= 16 and all(PATH.match(p) and ".." not in p.split("/")
                                          for p in paths), f"paths {paths}")
    rs = spec["run_seconds"]
    expect(isinstance(rs, int) and 1 <= rs <= 60, f"run_seconds {rs}")
    wls = spec["workloads"]
    expect(2 <= len(wls) <= 8, f"{len(wls)} workloads")
    for w in wls:
        expect(set(w) == {"name", "why"}, f"workload keys {sorted(w)}")
        expect(len(w["why"]) <= 200 and "\n" not in w["why"], f"why of {w['name']}")
    e2e, layers = spec["end_to_end"], spec["per_layer"]
    expect(1 <= len(e2e) <= 16, f"{len(e2e)} end-to-end metrics")
    expect(1 <= len(layers) <= 128, f"{len(layers)} per-layer metrics")
    for m in e2e:
        expect(set(m) == {"name", "unit", "better", "bound"}, f"keys of {m['name']}")
        expect(0 < m["bound"] <= 0.25, f"bound of {m['name']}")
    for m in layers:
        expect(set(m) == {"name", "unit", "better"}, f"keys of {m['name']}")
    for m in e2e + layers:
        expect(bool(UNIT.match(m["unit"])), f"unit {m['unit']!r} of {m['name']}")
        expect(m["better"] in ("lower", "higher"), f"better of {m['name']}")
    names = [x["name"] for x in wls + e2e + layers]
    expect(len(names) == len(set(names)), "names are used once")
    expect(all(NAME.match(n) for n in names), "names follow the grammar")
    setup = [m for m in e2e if m["name"] == "setup_s"]
    expect(len(setup) == 1 and setup[0]["unit"] == "s" and setup[0]["better"] == "lower",
           "setup_s is declared in seconds, lower is better")
    expect(setup and setup[0]["bound"] == max(m["bound"] for m in e2e),
           "setup_s has the largest bound")
    expect(len(json.dumps(spec)) <= 64 * 1024, "file size")


def check_names(spec):
    expect([w["name"] for w in spec["workloads"]] == run.WORKLOADS, "workloads match run.py")
    expect({m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS,
           "end-to-end names and units match run.py")
    expect({m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS,
           "per-layer names and units match run.py")


def check_tiny_runs(spec):
    declared = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for w in run.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", w, "--seed", "7",
                   "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            label = f"{w} trace {trace}"
            lines = done.stdout.strip().splitlines()
            expect(done.returncode == 0 and lines, f"{label}: exit {done.returncode}\n"
                                                   f"{done.stderr[-2000:]}")
            if not lines:
                continue
            result = json.loads(lines[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{label}: result keys {sorted(result)}")
            expect(result["correct"] is True and result["failed"] == 0,
                   f"{label}: checks failed\n{done.stderr[-2000:]}")
            expect(isinstance(result["attempted"], int) and result["attempted"] >= 1,
                   f"{label}: attempted")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == declared[trace], f"{label}: emitted {sorted(got)}")
            for k, v in result["metrics"].items():
                ok = isinstance(v["value"], (int, float)) and math.isfinite(v["value"])
                expect(ok and (trace == 1 or v["value"] > 0), f"{label}: {k} = {v['value']}")
            print(f"ok   {label}", file=sys.stderr)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_grammar(spec)
    check_names(spec)
    check_tiny_runs(spec)
    if failures:
        print(f"{len(failures)} self-test failure(s)", file=sys.stderr)
        return 1
    print("benchmark self-tests passed", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
