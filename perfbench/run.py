#!/usr/bin/env python3
"""End-to-end benchmark of bypassdb: builds the harness, runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the repository root. The harness (perfbench/*.cc) is compiled with
CMake together with the library sources under src/, into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench). The
workloads, metric names, units and bounds live in BENCHMARK.json at the
root; this script checks that the harness reports exactly those metrics.

The last line of stdout is one JSON object:
    {"correct": bool, "attempted": int, "failed": int,
     "metrics": {name: {"value": number, "unit": str}}}
With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones (a layer the workload does not exercise reports 0). The
line before it records the environment and the workload's parameters.
Exits non-zero, printing no result, when the build fails, a check fails
or the harness reports a metric BENCHMARK.json does not name.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources not found under src/; run from a checkout")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", "perfbench"])
    for step in steps:
        # Build chatter goes to stderr; stdout carries only results.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build step failed: " + " ".join(step))


def source_digest():
    """sha256 over the library and benchmark sources, which identifies the
    code where the source tree is not a git repository."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".h", ".cc", ".txt", ".py")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None  # not a clone; an enclosing repository is not ours
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    with open(spec_path) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload " + args.workload)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(os.path.abspath(target), "perfbench")
    build(build_dir)
    tmp_dir = os.path.join(build_dir, "tmp")
    trace_dir = os.path.join(build_dir, "traces")
    os.makedirs(tmp_dir, exist_ok=True)
    os.makedirs(trace_dir, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp_dir)  # spill files, JIT scratch

    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out", trace_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("harness exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0:
        fail("harness exited with status %d" % proc.returncode)
    out = json.loads(lines[-1])

    reported = out["metrics"]
    names = [m["name"] for m in wanted]
    unknown = sorted(set(reported) - set(names))
    if unknown:
        fail("harness reported metrics BENCHMARK.json does not name: " +
             ", ".join(unknown))
    metrics = {}
    not_exercised = []
    for m in wanted:
        value = reported.get(m["name"])
        if value is None:
            if not args.trace:
                fail("end-to-end metric %s missing" % m["name"])
            value = 0.0
            not_exercised.append(m["name"])
        if not math.isfinite(value):
            fail("metric %s is not finite" % m["name"])
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    build_info = {}
    info_path = os.path.join(build_dir, "build_info.json")
    if os.path.isfile(info_path):
        with open(info_path) as f:
            build_info = json.load(f)
    attempted = out["attempted"]
    record = {
        "env": dict(build_info, nproc=os.cpu_count(), git_commit=git_commit(),
                    source_sha256=source_digest()),
        "workload": dict(out["info"], name=args.workload, seed=args.seed,
                         trace=args.trace,
                         error_rate=out["failed"] / attempted),
        "layers_not_exercised": not_exercised,
    }
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": out["correct"], "attempted": attempted,
                      "failed": out["failed"], "metrics": metrics}))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
