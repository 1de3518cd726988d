#!/usr/bin/env python3
"""Run one workload of the repository benchmark and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/ (a standalone CMake package over ../src) into
.bench_build/perfbench, then runs the workload in a process of its own,
so that its peak RSS is its own. --trace 0 prints the end-to-end metrics
of BENCHMARK.json, --trace 1 the per-layer ones; the traced run also
writes its spans to .bench_build/perfbench/spans-<workload>.csv.

A "record:" line (host, build, source digest, simulated outcomes) comes
before the last line of stdout, which is one JSON object with the keys
correct, attempted, failed and metrics. When the build or the run fails
the script exits non-zero without that line.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ("offline_fleet", "online_pod", "prefix_sessions", "kernel_sweep")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def run(cmd, timeout, capture):
    """Run cmd from the checkout root; kill and reap it on any error."""
    proc = subprocess.Popen(cmd, cwd=ROOT, text=True,
                            stdout=subprocess.PIPE if capture else sys.stderr,
                            stderr=sys.stderr)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    return proc.returncode, out


def build():
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", PACKAGE, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if run(cmd, BUILD_TIMEOUT_S, False)[0] != 0:
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    rc, _ = run(["cmake", "--build", BUILD, "-j", jobs], BUILD_TIMEOUT_S,
                False)
    return rc == 0 and os.path.exists(BINARY)


def source_digest():
    """sha256 over the library and benchmark sources: a checkout the
    benchmark may run in is not a git repository, so this stands in for the
    commit."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {m["name"]: m["unit"]
                for m in spec["per_layer" if args.trace else "end_to_end"]}

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans-out",
                os.path.join(BUILD, "spans-%s.csv" % args.workload)]
    try:
        rc, out = run(cmd, RUN_TIMEOUT_S, True)
    except subprocess.TimeoutExpired:
        print("perfbench: workload timed out", file=sys.stderr)
        return 1
    lines = out.strip().splitlines()
    if rc != 0 or not lines:
        print("perfbench: workload exited with %d" % rc, file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    metrics = result["metrics"]
    got = {name: m["unit"] for name, m in metrics.items()}
    if got != expected:
        print("perfbench: metrics differ from BENCHMARK.json: %s"
              % sorted(set(got.items()) ^ set(expected.items())),
              file=sys.stderr)
        return 1

    record = result["record"]
    record["source_sha256"] = source_digest()
    record["git_commit"] = git_commit()
    print("record: " + json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": bool(result["correct"]),
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
