#!/usr/bin/env python3
"""Builds and runs one workload of the end-to-end FGAC benchmark.

    python3 perfbench/run.py --workload portal --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The engine is compiled from the checkout's
src/ into .bench_build/perfbench (or $CARGO_TARGET_DIR/perfbench, taken
relative to the checkout root) on first use; later runs only re-check the
build. Build output goes to stderr, so the last line of stdout is always the
benchmark's result object. Exits non-zero when the build fails, when any
answer is wrong, or on a usage error.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("portal", "analytics", "policy_churn")


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "-S", HERE, "-B", out,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   stdout=sys.stderr, stderr=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", out, "-j", jobs,
                    "--target", "fgac_perfbench"],
                   stdout=sys.stderr, stderr=sys.stderr, check=True)
    return os.path.join(out, "fgac_perfbench")


def src_digest():
    """SHA-256 over src/, so a result names the code it measured even where
    the checkout is not a git repository."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    try:
        binary = build(build_dir())
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", git_commit(), "--src-digest", src_digest()]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
