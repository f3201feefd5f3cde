#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 benchmark/run.py --workload ingest_talk --seed 1 --seconds 20 --trace 0
    python3 benchmark/run.py                    # every workload, seed 1
    python3 benchmark/run.py --selftest         # tests of the benchmark's rules

Run it from the repository root. It configures and builds
benchmark/CMakeLists.txt (the library from src/ plus saga_benchmark) in
Release mode into .bench_build/, or into $CARGO_TARGET_DIR when that is
set, then runs saga_benchmark. Build output goes to standard error, so
the last line of standard output is the benchmark's JSON result. If
the build fails (for instance when src/ is absent) it exits non-zero
without printing a result.

benchmark/README.md describes the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["ingest_talk", "pagerank_rmat", "serve_mixed"]
BUILD_TYPE = "Release"


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, path, "saga_benchmark")


def build(target):
    """Configure (once) and build @target; return its path or None."""
    out = build_dir()
    configure = ["cmake", "-S", HERE, "-B", out,
                 "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(out, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    jobs = str(len(os.sched_getaffinity(0)))
    for cmd in (configure, ["cmake", "--build", out, "--target", target,
                            "-j", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            return None
    return os.path.join(out, target)


def provenance_commit():
    """The git commit when run from a clone, else a digest of the sources
    the benchmark builds (src/ and benchmark/)."""
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        if head.returncode == 0:
            return head.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    for top in ("src", "benchmark"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "out")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def run_one(binary, args, workload):
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", os.path.join(HERE, "out"),
           "--commit", provenance_commit(), "--build-type", BUILD_TYPE]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0:
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()

    if args.selftest:
        binary = build("benchmark_logic_tests")
        if binary is None:
            return 1
        return subprocess.run([binary]).returncode

    binary = build("saga_benchmark")
    if binary is None:
        print("run.py: build failed", file=sys.stderr)
        return 1
    if args.workload != "all":
        return 0 if run_one(binary, args, args.workload) is not None else 1

    # Every workload in turn; the last line sums them up.
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        result = run_one(binary, args, workload)
        if result is None:
            return 1
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            total["metrics"][workload + "." + name] = metric
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
