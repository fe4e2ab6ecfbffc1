#!/usr/bin/env python3
"""Build and run the alperf benchmark.

Usage, from the root of a checkout:

    python3 albench/run.py --workload fig6-vr --seed 1 --seconds 20 --trace 0

Workloads: fig6-vr, fig8-paired, fullspace-async, or all (the three in one
process). The benchmark and the library are compiled from source into
$CARGO_TARGET_DIR/albench (default .bench_build/albench) on first use;
later runs rebuild incrementally. Build output goes to stderr, so the last
line of standard output is the benchmark's JSON result. Each run's record
(seed, host, configuration, metrics) is also written to
<build dir>/results/.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target, "albench")


def source_id():
    """Commit when the checkout is a git repository, plus a digest of the
    library sources so a result is tied to the code that produced it."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    commit = "none"
    if shutil.which("git") and os.path.isdir(os.path.join(ROOT, ".git")):
        res = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if res.returncode == 0:
            commit = res.stdout.strip()
    return "commit=%s src-sha256=%s" % (commit, h.hexdigest()[:16])


def build(out):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if res.returncode != 0:
            shutil.rmtree(out, ignore_errors=True)
            return False
    res = subprocess.run(["cmake", "--build", out, "--target", "albench",
                          "-j", jobs], stdout=sys.stderr, stderr=sys.stderr)
    return res.returncode == 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("albench: no alperf sources next to the benchmark",
              file=sys.stderr)
        return 1
    out = build_dir()
    if not build(out):
        print("albench: build failed", file=sys.stderr)
        return 1
    results = os.path.join(out, "results")
    os.makedirs(results, exist_ok=True)
    cmd = [os.path.join(out, "albench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--record-dir", results, "--source-id", source_id()]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
