#!/usr/bin/env python3
"""Repository benchmark: build perfbench from source, run one workload, print the result.

    python3 perfbench/run.py --workload trace_replay --seed 1 --seconds 30 --trace 0

Run from the repository root. Builds the appx libraries and the perfbench driver
into .bench_build/perfbench (CMake; later runs rebuild incrementally), runs the
workload, and prints
two lines on stdout: the full result (checks, every metric with its sample count,
the stage closure, the host context), then the result line
{"correct", "attempted", "failed", "metrics"} with the end-to-end metrics named in
BENCHMARK.json (--trace 0) or its per-layer metrics (--trace 1). A metric the
workload does not measure (a layer it bypasses) reads 0; one below its sample
floor reads null in the full result and 0 in the result line.
"""
import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("trace_replay", "sim_study")
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build():
    """Configure and build the driver (incremental after the first run); output goes to stderr."""
    jobs = str(len(os.sched_getaffinity(0)))
    subprocess.run(
        ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR), "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD_DIR), "-j", jobs, "--target", "perfbench"],
                   check=True, stdout=sys.stderr)
    return BUILD_DIR / "perfbench"


def cmake_cache(key):
    cache = BUILD_DIR / "CMakeCache.txt"
    for line in cache.read_text().splitlines():
        if line.startswith(key + ":"):
            return line.split("=", 1)[1]
    return ""


def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except OSError:
        return "unknown"


def host_context(io_backend):
    cpus = sorted(os.sched_getaffinity(0))
    compiler_path = cmake_cache("CMAKE_CXX_COMPILER")
    compiler = "unknown"
    if compiler_path:
        out = subprocess.run([compiler_path, "--version"], capture_output=True, text=True)
        compiler = out.stdout.splitlines()[0] if out.stdout else compiler_path
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": ",".join(str(c) for c in cpus),
        "kernel": platform.release(),
        "io_backend": io_backend,
        "io_backend_env": os.environ.get("APPX_IO_BACKEND", ""),
        "build_type": cmake_cache("CMAKE_BUILD_TYPE"),
        "compiler": compiler,
        "git_commit": git_commit(),
    }


def result_line(result, names, trace):
    """The driver's result line: the named metrics, numbers only."""
    section = result["per_layer"] if trace else result["end_to_end"]
    metrics = {}
    for spec in names:
        entry = section.get(spec["name"])
        value = entry["value"] if entry and entry["value"] is not None else 0
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
    return {"correct": result["correct"], "attempted": max(1, result["attempted"]),
            "failed": result["failed"], "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as e:
        log(f"build failed: {e}")
        return 1

    work_dir = tempfile.mkdtemp(prefix="run-", dir=BUILD_DIR)
    try:
        proc = subprocess.run(
            [str(binary), "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace), "--work-dir", work_dir],
            capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"{args.workload} failed (exit {proc.returncode})")
        return 1

    result = json.loads(lines[-1])
    result["host"] = host_context(result.get("io_backend", ""))
    names = spec["per_layer"] if args.trace else spec["end_to_end"]
    print(json.dumps(result, sort_keys=True))
    print(json.dumps(result_line(result, names, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
