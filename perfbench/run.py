#!/usr/bin/env python3
"""Builds the fastcons benchmark binary from the tree it sits in and runs one
workload.

    python3 perfbench/run.py --workload sim-fig5|sim-stream|live-mesh \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --negative

The last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. With --trace 0 the metrics are the
end-to-end metrics of BENCHMARK.json; with --trace 1 they are its per-layer
metrics, taken from a traced run that follows an untraced run of the same
seed (their difference is the tracing overhead). Build output, the
workload's own metric names and any violations go to standard error.
--negative feeds every correctness check a deliberately wrong input and exits
non-zero unless each one is rejected.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(ROOT, ".bench_build", "perfbench-work")
BINARY = os.path.join(BUILD, "fastcons_perf")
RUN_TIMEOUT_S = 170

# BENCHMARK.json's end-to-end metrics, per workload, from the workload's own
# metric names (README: "End-to-end metrics").
E2E_SOURCES = {
    "sim-fig5": {"op_p50_ms": "trial_p50_ms"},
    "sim-stream": {"op_p50_ms": "delivery_p50_ms"},
    "live-mesh": {"op_p50_ms": "visibility_p50_ms"},
}


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds fastcons_perf; raises on failure."""
    if shutil.which("cmake") is None:
        raise RuntimeError("cmake not found")
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", BUILD, "--target", "fastcons_perf", "-j", jobs],
        check=True, stdout=sys.stderr, stderr=sys.stderr)


def pin_to_one_cpu():
    """Runs fastcons_perf on one CPU. The simulator is single-threaded; the live
    mesh's four threads then wake each other on one core. Spread over
    several virtual CPUs, their cross-CPU wakeups made a whole run fall into
    a fast or a slow mode (visibility p50 and CPU per write doubling between
    runs of one seed). The highest-numbered CPU is taken because CPU 0
    usually serves most interrupts."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def run_workload(workload, seed, seconds, trace):
    """Runs one workload; returns fastcons_perf's result object."""
    os.makedirs(WORK, exist_ok=True)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--workdir", WORK]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=RUN_TIMEOUT_S, check=False,
                          preexec_fn=pin_to_one_cpu)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"fastcons_perf exited with {proc.returncode}")
    return json.loads(lines[-1])


def end_to_end(spec, workload, result):
    """BENCHMARK.json's end-to-end metrics for `workload` from its own names."""
    sources = E2E_SOURCES[workload]
    out = {}
    for m in spec["end_to_end"]:
        source = sources.get(m["name"], m["name"])
        entry = result["end_to_end"][source]
        out[m["name"]] = {"value": float(entry["value"]), "unit": m["unit"]}
    return out


def per_layer(spec, untraced, traced, workload):
    """Per-layer metrics of the traced run; 0 for a layer metric the workload
    does not exercise (README lists which apply where)."""
    out = {}
    for m in spec["per_layer"]:
        entry = traced["layers"].get(m["name"])
        out[m["name"]] = {"value": float(entry["value"]) if entry else 0.0,
                          "unit": m["unit"]}
    op = E2E_SOURCES[workload]["op_p50_ms"]
    plain = float(untraced["end_to_end"][op]["value"])
    with_spans = float(traced["end_to_end"][op]["value"])
    out["bench.trace_overhead_pct"] = {
        "value": (with_spans - plain) / plain * 100.0, "unit": "%"}
    return out


def compare_runs(untraced, traced):
    """Violations between an untraced and a traced run of one seed: the
    deterministic per-trial results must be equal."""
    if untraced["digest"] != traced["digest"]:
        return [f"traced results digest {traced['digest']} != untraced "
                f"{untraced['digest']}"]
    return []


def negative_cases():
    """Wrong inputs for the check made here; returns the number not caught."""
    run = {"digest": "1"}
    cases = [("traced digest differs", compare_runs(run, {"digest": "2"}), True),
             ("traced digest equal", compare_runs(run, {"digest": "1"}), False)]
    wrong = 0
    for name, violations, expected in cases:
        good = bool(violations) == expected
        wrong += 0 if good else 1
        log(f"{'ok' if good else 'FAIL':4} {name}")
    return wrong


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(E2E_SOURCES))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--negative", action="store_true")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    try:
        build()
    except (RuntimeError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 1

    if args.negative:
        native = subprocess.run([BINARY, "--negative"], check=False).returncode
        return 1 if native != 0 or negative_cases() != 0 else 0
    if args.workload is None:
        parser.error("--workload is required")

    untraced = run_workload(args.workload, args.seed, args.seconds, False)
    runs = [untraced]
    violations = list(untraced["violations"])
    if args.trace:
        traced = run_workload(args.workload, args.seed, args.seconds, True)
        runs.append(traced)
        violations += traced["violations"] + compare_runs(untraced, traced)
        metrics = per_layer(spec, untraced, traced, args.workload)
    else:
        metrics = end_to_end(spec, args.workload, untraced)

    for name, entry in untraced["end_to_end"].items():
        log(f"{args.workload} {name} = {entry['value']:.6g} {entry['unit']}")
    for v in violations:
        log(f"VIOLATION: {v}")
    last = runs[-1]
    print(json.dumps({
        "correct": all(r["correct"] for r in runs) and not violations,
        "attempted": int(last["attempted"]),
        "failed": int(last["failed"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
