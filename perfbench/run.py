#!/usr/bin/env python3
"""Build and run one workload of the unicon benchmark.

Run from the root of a unicon checkout:

    python3 perfbench/run.py --workload table1-n128 --seed 1 --seconds 10 --trace 0

The first call configures and builds perfbench/ (the library under src/
plus the benchmark program) into .bench_build/perfbench; later calls only
rebuild what changed.  The program's output is passed through; its last
line is the result JSON.  Counts that must repeat exactly are stored per workload and
seed in .bench_build/perfbench-counts.json, and a run whose counts differ
from an earlier run of the same workload and seed is flagged with DRIFT
lines.  See perfbench/README.md for the workloads and metrics.
"""

import argparse
import fcntl
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
COUNTS_FILE = os.path.join(BUILD_ROOT, "perfbench-counts.json")
BINARY = os.path.join(BUILD_DIR, "unicon_perfbench")

DEFAULT_SEED = 20070625
# Variables that silently change what is measured: UNICON_BACKEND resolves
# Backend::Auto, FTWC_FULL widens the table1 bench harness.
REFUSED_ENV = ["UNICON_BACKEND", "FTWC_FULL"]


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configure once, then build the benchmark program (incremental)."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no src/CMakeLists.txt next to perfbench/: run from a unicon checkout")
    os.makedirs(BUILD_DIR, exist_ok=True)
    with open(os.path.join(BUILD_ROOT, "perfbench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", BUILD_DIR, "--target", "unicon_perfbench",
                      "-j", str(os.cpu_count() or 1)])
        for step in steps:
            proc = subprocess.run(step, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                                  text=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stdout)
                fail("build step failed: " + " ".join(step))


def source_id():
    """Git commit when available, plus a digest of the measured sources."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    commit = ""
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                                    stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                                    text=True).stdout.strip()
        except OSError:
            pass
    return (commit or "no-git") + "+src-" + digest.hexdigest()[:12]


def check_keys(result, trace):
    """The printed metrics must be exactly the ones BENCHMARK.json lists."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return
    with open(path) as f:
        spec = json.load(f)
    listed = spec["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in listed}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if want != got:
        fail("printed metrics differ from BENCHMARK.json: missing %s, extra %s"
             % (sorted(set(want) - set(got)), sorted(set(got) - set(want))))


def flag_drift(workload, seed, lines):
    """Compares this run's exact counts with earlier runs of the same inputs."""
    counts = {}
    for line in lines:
        parts = line.split()
        if len(parts) == 3 and parts[0] == "count":
            counts[parts[1]] = int(parts[2])
    store = {}
    if os.path.isfile(COUNTS_FILE):
        with open(COUNTS_FILE) as f:
            store = json.load(f)
    key = "%s seed=%d" % (workload, seed)
    drift = []
    for name, value in counts.items():
        before = store.get(key, {}).get(name)
        if before is not None and before != value:
            drift.append("DRIFT %s: %d in an earlier run, %d now" % (name, before, value))
    store.setdefault(key, {}).update(counts)
    with open(COUNTS_FILE, "w") as f:
        json.dump(store, f, indent=1, sort_keys=True)
    return drift


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="table1-n128, long-horizon-ctmdp, long-horizon-ctmc or serve-mixed")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    for var in REFUSED_ENV:
        if var in os.environ:
            fail("refusing to run with %s set: it changes what is measured" % var)

    build()
    proc = subprocess.run(
        [BINARY, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--root", ROOT, "--commit", source_id()],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.stdout.write(proc.stdout)
        fail("the benchmark program printed no result (exit status %d)" % proc.returncode)
    result = json.loads(lines[-1])
    check_keys(result, args.trace)
    for line in lines[:-1]:
        print(line)
    for line in flag_drift(args.workload, args.seed, lines[:-1]):
        print(line)
    print(lines[-1])
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
