#!/usr/bin/env python3
"""Build and run the scent end-to-end benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {discover,campaign,replay} \
        --seed N --seconds S --trace {0,1}

Builds the library from src/ plus the benchmark harness (perfbench/src)
with CMake into $CARGO_TARGET_DIR (default .bench_build), runs the harness
in a fresh working directory under .bench_work/, deletes that directory
afterwards, and passes the harness's output through: the last stdout line
is the result JSON. Traced runs keep their Chrome trace under .bench_out/.
Exits nonzero, without a result line, when the build fails; exits nonzero
when any output oracle fails.
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile

WORKLOADS = ("discover", "campaign", "replay")
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build(root, threads):
    """Configures and builds the harness; returns its path or None."""
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, build_root, "perfbench")
    source_dir = os.path.join(root, "perfbench")
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", source_dir, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target",
                  "scent_perfbench", "-j", str(threads)])
    for step in steps:
        # Build chatter goes to stderr; stdout carries only the result.
        if subprocess.run(step, stdout=sys.stderr, cwd=root).returncode != 0:
            log("perfbench: build step failed: " + " ".join(step))
            return None
    binary = os.path.join(build_dir, "scent_perfbench")
    return binary if os.path.isfile(binary) else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    threads = len(os.sched_getaffinity(0))
    binary = build(root, threads)
    if binary is None:
        return 1

    work_root = os.path.join(root, ".bench_work")
    out_root = os.path.join(root, ".bench_out")
    os.makedirs(work_root, exist_ok=True)
    os.makedirs(out_root, exist_ok=True)
    workdir = tempfile.mkdtemp(
        prefix="%s-%d-" % (args.workload, args.seed), dir=work_root)
    command = [binary, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--workdir", workdir,
               "--threads", str(threads)]
    if args.trace:
        command += ["--trace-out",
                    os.path.join(out_root, args.workload + "_trace.json")]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, cwd=workdir,
                             timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        log("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
