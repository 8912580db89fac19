#!/usr/bin/env python3
"""Builds perfbench from this checkout's sources and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The build goes to $CARGO_TARGET_DIR (default
.bench_build) under perfbench-<digest of the checkout's path>/, so checkouts
that share one CARGO_TARGET_DIR never share a build tree; it is configured
once and rebuilt incrementally;
build output goes to stderr so the last stdout line stays the result
object. Workloads, their parameters and the metric mapping are described
in perfbench/workloads.json.
"""
import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("tree421_bulk", "tree10k_sparse", "flowqueue_fig4")
RUN_TIMEOUT_S = 175


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    tag = hashlib.sha256(os.path.realpath(ROOT).encode()).hexdigest()[:12]
    return os.path.join(os.path.abspath(base), f"perfbench-{tag}")


def configured_from(out):
    """The source directory the build tree `out` was configured from."""
    try:
        with open(os.path.join(out, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_HOME_DIRECTORY:"):
                    return os.path.realpath(line.split("=", 1)[1].strip())
    except OSError:
        pass
    return None


def build(out):
    def step(cmd):
        subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, check=True)

    if configured_from(out) != os.path.realpath(HERE):
        # Absent, or set up from another checkout's sources: start afresh.
        shutil.rmtree(out, ignore_errors=True)
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        step(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release",
              *generator])
    step(["cmake", "--build", out, "--target", "perfbench",
          "-j", str(os.cpu_count() or 2)])
    return os.path.join(out, "perfbench")


def source_id():
    """git commit when this is a git checkout, plus a digest of src/."""
    try:
        commit = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
            capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "no-git"
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for folder, _, files in sorted(os.walk(src)):
        for name in sorted(files):
            path = os.path.join(folder, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return f"{commit}+src.{digest.hexdigest()[:16]}"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    try:
        binary = build(build_dir())
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--commit", source_id()]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
