#!/usr/bin/env python3
"""Builds and runs the ADPA pipeline benchmark (perfbench/README.md).

    python3 perfbench/run.py --workload train --seed 1 --seconds 20 --trace 0

Run from the repository root. The first run configures and builds
perfbench/ (the library from src/ plus the perfbench binary) into .bench_build/;
later runs rebuild only what changed. The last line of standard output is
the result object; the line before it carries provenance and sample counts.
Exit status: 0 for a correct run, 1 when an output check failed, 2 when the
benchmark could not run (no sources, failed build, refused configuration).
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("train", "sweep", "serve", "serve-reload")
RUN_TIMEOUT_S = 170
# The compute pool is two threads: the server's event loop and the two
# client threads keep the other CPUs of a four-CPU host, and a pool as wide
# as the host makes every parallel Eq. 9 pass wait on whichever vCPU the
# hypervisor preempts (reload times then spread by almost 2x run to run).
# Hosts with fewer than four CPUs get one pool thread.
POOL_THREADS = 2
BUILD_JOBS = 4


def log(message):
    print("perfbench: " + message, file=sys.stderr, flush=True)


def usable_cpus():
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:
        return max(1, os.cpu_count() or 1)


def build():
    """Configures on first use, then builds the perfbench binary; False on failure."""
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "build.ninja")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                      BUILD, "-G", "Ninja", "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench", "-j",
                  str(min(BUILD_JOBS, usable_cpus()))])
    for step in steps:
        # Build output goes to stderr: stdout carries only results.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build step failed: " + " ".join(step))
            return False
    return True


def source_hash():
    """SHA-256 over the benchmarked sources, for provenance where the
    checkout is not a git repository."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for directory, subdirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            subdirs.sort()
            for name in sorted(files):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def git_commit():
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel",
                              "HEAD"], capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return ""
    lines = top.stdout.split()
    if top.returncode or len(lines) != 2 or os.path.realpath(lines[0]) != ROOT:
        return ""
    return lines[1]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0 or args.seed < 0:
        log("--seconds must be positive and --seed non-negative")
        return 2
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no library sources at src/; run from a repository checkout")
        return 2
    if not build():
        return 2

    os.makedirs(os.path.dirname(BUILD), exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="work-", dir=os.path.dirname(BUILD))
    try:
        command = [os.path.join(BUILD, "perfbench"),
                   "--workload=" + args.workload,
                   "--seed=%d" % args.seed,
                   "--seconds=%g" % args.seconds,
                   "--trace=%d" % args.trace,
                   "--threads=%d" % (POOL_THREADS if usable_cpus() >= 4 else 1),
                   "--work_dir=" + work_dir,
                   "--commit=" + git_commit(),
                   "--source_hash=" + source_hash()]
        try:
            run = subprocess.run(command, stdout=subprocess.PIPE,
                                 timeout=RUN_TIMEOUT_S, text=True)
        except subprocess.TimeoutExpired:
            log("run exceeded %d s" % RUN_TIMEOUT_S)
            return 2
        sys.stdout.write(run.stdout)
        sys.stdout.flush()
        return run.returncode
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
