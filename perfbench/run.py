#!/usr/bin/env python3
"""Builds pager-serve, pager-cluster and the perfbench binary from this
checkout, then runs one workload of the benchmark.

    python3 perfbench/run.py --workload node-mixed --seed 1 --seconds 30 --trace 0

Run it from the root of the checkout. Build outputs go to
$CARGO_TARGET_DIR (default .bench_build); scratch files go under it
and are removed afterwards; a traced run leaves its spans in
$CARGO_TARGET_DIR/perfbench-spans/. The last line of stdout is the JSON
result.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("node-mixed", "cluster-mixed")
# Generous cap on one run; the binary itself stops after its window.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def cargo(args, env):
    done = subprocess.run(["cargo", *args], env=env, stdout=sys.stderr, stderr=sys.stderr)
    return done.returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    manifest = os.path.join(root, "Cargo.toml")
    if not (os.path.isfile(manifest) and os.path.isdir(os.path.join(root, "crates", "pager-service"))):
        return fail(f"{root} is not a checkout of the paging service (no Cargo.toml and crates/)")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(root, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    servers = ["build", "--release", "--offline", "--manifest-path", manifest,
               "-p", "conference-call", "--bin", "pager-serve",
               "-p", "pager-cluster", "--bin", "pager-cluster"]
    if not cargo(servers, env):
        return fail("building pager-serve and pager-cluster failed")
    bench = ["build", "--release", "--offline", "--manifest-path", os.path.join(bench_dir, "Cargo.toml")]
    if not cargo(bench, env):
        return fail("building perfbench failed")

    release = os.path.join(target, "release")
    work = os.path.join(target, "perfbench-work", f"{args.workload}-{args.seed}-{os.getpid()}")
    command = [os.path.join(release, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--bin-dir", release, "--work-dir", work,
               "--spans-out", os.path.join(target, "perfbench-spans", f"{args.workload}-{args.seed}.jsonl")]
    # Its own process group, so a run that overstays takes its server
    # processes down with it.
    proc = subprocess.Popen(command, cwd=root, env=env, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        code = fail(f"run exceeded {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
