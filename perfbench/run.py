#!/usr/bin/env python3
"""Builds the scheduler from source and runs one benchmark workload.

    python3 perfbench/run.py --workload fig8_curie --seed 1 --seconds 30 --trace 0

Run from the repository root. The build goes to $CARGO_TARGET_DIR (default
.bench_build) under perfbench/; run artifacts (inputs, spools, Chrome
traces) go to its work/<source digest>/ and run records to records/. The last
line of standard output is the result JSON; everything else goes to
standard error. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("fig8_curie", "month_stream", "serve_paced")
PSBENCH_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def cpu_times():
    """Aggregate (steal, total) jiffies from /proc/stat."""
    with open("/proc/stat") as stat:
        fields = [int(v) for v in stat.readline().split()[1:]]
    # user nice system idle iowait irq softirq steal [guest guest_nice];
    # guest time is already counted in user.
    return fields[7], sum(fields[:8])


def load_average():
    with open("/proc/loadavg") as loadavg:
        return [float(v) for v in loadavg.read().split()[:3]]


def source_digest():
    """SHA-256 over the program's sources and the benchmark's own files."""
    digest = hashlib.sha256()
    for base, dirs, files in (walked for top in ("src", "perfbench")
                              for walked in os.walk(os.path.join(ROOT, top))):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as source:
                digest.update(source.read())
    return digest.hexdigest()


def commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def build(build_dir):
    """Configures (once) and builds the Release benchmark; returns psbench's path."""
    log_path = os.path.join(build_dir, "build.log")
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    with open(log_path, "a") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                with open(log_path) as text:
                    sys.stderr.write(text.read()[-4000:])
                fail("build failed: " + " ".join(step))
    return os.path.join(build_dir, "psbench")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as spec:
        bench = json.load(spec)
    rows = bench["per_layer"] if trace else bench["end_to_end"]
    return {row["name"]: row["unit"] for row in rows}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
            os.path.join(ROOT, "src")):
        fail("no scheduler sources next to perfbench/ (run from a repository checkout)")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_root = target if os.path.isabs(target) else os.path.join(ROOT, target)
    build_dir = os.path.join(build_root, "perfbench")
    psbench = build(build_dir)

    info = json.loads(subprocess.run([psbench, "--build-info"], capture_output=True,
                                     text=True, check=True).stdout)
    if info["build_type"] != "Release" or not info["optimized"] or "-O3" not in info["flags"]:
        fail("refusing a %s build (%s): the benchmark measures Release -O3 only"
             % (info["build_type"], info["flags"]))

    # Keyed by the sources, so the exact-count check only ever compares runs
    # of one version of the program and the benchmark.
    sources = source_digest()
    work = os.path.join(build_dir, "work", sources[:16])
    load_before = load_average()
    steal0, total0 = cpu_times()
    try:
        proc = subprocess.run(
            [psbench, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--work", work, "--goldens", os.path.join(BENCH_DIR, "goldens.txt"),
             "--serve-bin", os.path.join(build_dir, "powercap_sched", "ps-serve")],
            capture_output=True, text=True, timeout=PSBENCH_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("psbench did not finish in %d s" % PSBENCH_TIMEOUT_S)
    steal1, total1 = cpu_times()
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("psbench printed no result (exit code %d)" % proc.returncode)
    result = json.loads(lines[-1])

    if args.trace:
        result["metrics"]["host.steal_frac"] = {
            "value": (steal1 - steal0) / max(1, total1 - total0), "unit": "ratio"}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected_metrics(args.trace):
        fail("metric set differs from BENCHMARK.json: %s"
             % sorted(set(got.items()) ^ set(expected_metrics(args.trace).items())))

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "nproc": os.cpu_count(), "build": info, "commit": commit(),
        "source_sha256": sources, "loadavg_before": load_before,
        "loadavg_after": load_average(),
        "host_steal_frac": (steal1 - steal0) / max(1, total1 - total0), "result": result,
        "log": proc.stderr.splitlines(),
    }
    records = os.path.join(build_dir, "records")
    os.makedirs(records, exist_ok=True)
    name = "%s-seed%d-trace%d-%d.json" % (args.workload, args.seed, args.trace,
                                          time.time_ns())
    with open(os.path.join(records, name), "w") as out:
        json.dump(record, out, indent=1)
    print(json.dumps(result))
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
