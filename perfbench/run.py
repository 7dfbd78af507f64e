#!/usr/bin/env python3
"""Flow-level benchmark for maestro.

Run from the repository root:

    python3 perfbench/run.py --workload flow|campaign|fleet --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Builds the maestro libraries and the perfbench driver from source into
.bench_build/ (first run only; later runs rebuild incrementally), pins every
environment-driven library setting, runs one workload in a fresh scratch
directory under .bench_build/, and prints the driver's report. The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics. With --trace 0 the metrics are the end-to-end metrics of
BENCHMARK.json; with --trace 1 they are its per-layer metrics, 0 for a layer
the workload does not exercise. Spans of a traced run are written to
.bench_build/trace/<workload>-seed<N>.jsonl.

See perfbench/README.md for the workloads and what each metric means.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
WORKLOADS = ("flow", "campaign", "fleet")
RUN_TIMEOUT_S = 170.0
LOAD_THREADS = 4

# Every setting the library reads from the environment, pinned so that a
# developer's shell cannot change the workload. The driver also passes
# explicit options for each of these.
PINNED_ENV = {
    "MAESTRO_THREADS": str(LOAD_THREADS),
    "MAESTRO_STORE_SHARDS": "8",
    "MAESTRO_STORE_FSYNC": "batch",
    "MAESTRO_METRICS_SHARDS": "16",
    "MAESTRO_METRICS_CAPACITY": "0",
    "MAESTRO_METRICS_OVERFLOW": "drop",
    "MAESTRO_FAULTS": "",
}


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(target):
    """Configure once, then build `target` incrementally. False on failure."""
    jobs = str(max(1, min(LOAD_THREADS, os.cpu_count() or 1)))
    # Compiler temporaries stay inside the checkout too.
    env = dict(os.environ, TMPDIR=os.path.join(BUILD_ROOT, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "Makefile")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target", target])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the report.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env).returncode != 0:
            log(f"build step failed: {' '.join(cmd)}")
            return False
    return True


def pinned_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("MAESTRO_")}
    env.update(PINNED_ENV)
    env["TMPDIR"] = os.path.join(BUILD_ROOT, "tmp")
    return env


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def finish_report(report, spec, trace):
    """Check the driver's metric names against BENCHMARK.json; with --trace 1
    add the per-layer metrics this workload does not exercise, as 0."""
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    metrics = report["metrics"]
    unknown = sorted(set(metrics) - set(units))
    if unknown:
        raise ValueError(f"metrics not declared in BENCHMARK.json: {unknown}")
    for name, m in metrics.items():
        if m["unit"] != units[name]:
            raise ValueError(f"{name}: unit {m['unit']} != declared {units[name]}")
    missing = sorted(set(units) - set(metrics))
    if missing and not trace:
        raise ValueError(f"end-to-end metrics missing from the report: {missing}")
    for name in missing:
        metrics[name] = {"value": 0, "unit": units[name]}
    report["metrics"] = {m["name"]: metrics[m["name"]] for m in declared}
    return report


def run_workload(args):
    started = time.monotonic()
    if not build("perfbench"):
        return 1
    spec = load_spec()
    work = os.path.join(BUILD_ROOT, "work", f"{args.workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cmd = [os.path.join(BUILD_DIR, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work-dir", work]
    if args.trace:
        trace_dir = os.path.join(BUILD_ROOT, "trace")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(trace_dir, f"{args.workload}-seed{args.seed}.jsonl")]
    # The first run in a checkout includes the build; later runs must stay
    # well inside the per-run limit.
    budget = max(RUN_TIMEOUT_S - (time.monotonic() - started), RUN_TIMEOUT_S / 2)
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=pinned_env(), text=True)
    try:
        out, _ = proc.communicate(timeout=budget)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log(f"workload {args.workload} exceeded {budget:.0f} s")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = out.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines:
        log(f"driver exited with status {proc.returncode}")
        return 1
    try:
        report = finish_report(json.loads(lines[-1]), spec, args.trace)
    except (ValueError, KeyError) as e:
        log(f"bad report: {e}")
        return 1
    for line in lines[:-1]:
        print(line)
    print(json.dumps(report, separators=(",", ":")), flush=True)
    return 0


def selftest():
    if not build("perfbench_selftest"):
        return 1
    return subprocess.run([os.path.join(BUILD_DIR, "perfbench_selftest")]).returncode


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true",
                   help="build and run the tests of the benchmark's own arithmetic")
    args = p.parse_args()
    if args.selftest:
        return selftest()
    if args.workload is None:
        p.error("--workload is required")
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
