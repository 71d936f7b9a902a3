#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <n> --trace <0|1>

Run it from the repository root. The Rust package beside this file is
built in release mode into $CARGO_TARGET_DIR (default `.bench_build`),
then its `perfbench` binary runs in a process group of its own, so every
worker process it starts is stopped and waited for however the run ends.
The last line of standard output is the run's JSON result; build and
progress logs go to standard error.
"""

import argparse
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("inproc-zipf", "fleet-unique", "table4-lite")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def group_alive(pgid):
    """Whether any process still belongs to process group `pgid`."""
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        # fields after the parenthesized command: state ppid pgrp ...
        fields = stat[stat.rfind(")") + 2:].split()
        if len(fields) > 2 and int(fields[2]) == pgid and fields[0] != "Z":
            return True
    return False


def stop_group(pgid):
    """Kills what is left of the group and waits until it is gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 5
    while group_alive(pgid) and time.monotonic() < deadline:
        time.sleep(0.01)


def build(target_dir):
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return False
    return done.returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds < 1 or args.seed < 0:
        parser.error("--seconds must be at least 1 and --seed non-negative")

    target_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                 os.path.join(ROOT, ".bench_build"))
    if not build(target_dir):
        return 1

    binary = os.path.join(target_dir, "release", "perfbench")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    child = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                             start_new_session=True, text=True)
    try:
        out, _ = child.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: {args.workload} exceeded {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        stop_group(child.pid)
        child.wait()
        return 1
    finally:
        stop_group(child.pid)
        run_dir = os.path.join(ROOT, ".bench_run", str(child.pid))
        if os.path.isdir(run_dir):
            subprocess.run(["rm", "-rf", run_dir], check=False)

    lines = out.strip().splitlines()
    if child.returncode != 0 or not lines:
        if lines:
            print(lines[-1])
        print(f"run.py: {args.workload} exited with {child.returncode}",
              file=sys.stderr)
        return child.returncode or 1
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
