#!/usr/bin/env python3
"""Build the DVF toolchain from this checkout and run one benchmark workload.

Usage (from the root of the checkout):

    python3 perfbench/run.py --workload serve-mixed --seed 1 --seconds 30 --trace 0

Builds the `dvf` binary and the `perfbench` harness in release mode into
$CARGO_TARGET_DIR (default `.bench_build`), then runs the harness. Progress
and build logs go to stderr; stdout carries the harness's report, whose last
line is the JSON result. The exit code is non-zero when the build fails,
the harness fails, or an output check fails.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

WORKLOADS = ("serve-mixed", "sweep-grid", "simulate-cg")
# The harness itself stops after its measured seconds plus set-up; this
# only bounds a hung child.
HARNESS_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(root, target, env):
    for args in (
        ["cargo", "build", "--release", "--offline", "--bin", "dvf"],
        ["cargo", "build", "--release", "--offline",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ):
        done = subprocess.run(args, cwd=root, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail(f"build failed: {' '.join(args)}")
    return (os.path.join(target, "release", "dvf"),
            os.path.join(target, "release", "dvf-perfbench"))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    root = os.getcwd()
    for needed in ("Cargo.toml", "crates", os.path.join("perfbench", "Cargo.toml")):
        if not os.path.exists(os.path.join(root, needed)):
            fail(f"run from the root of a DVF checkout ({needed} is missing)")

    env = dict(os.environ)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build"))
    env["CARGO_TARGET_DIR"] = target
    dvf, harness = build(root, target, env)

    cmd = [harness, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--dvf", dvf, "--repo", root, "--work", os.path.join(target, "perfbench-work")]
    # Own process group, so a hung harness is stopped with every server it
    # started.
    proc = subprocess.Popen(cmd, cwd=root, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"harness did not finish within {HARNESS_TIMEOUT_S} s")
    done = subprocess.CompletedProcess(cmd, proc.returncode, out)
    lines = done.stdout.splitlines()
    if not lines:
        fail(f"harness printed nothing (exit {done.returncode})")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stdout.write(done.stdout)
        fail(f"harness's last line is not a JSON result (exit {done.returncode})")
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    if done.returncode != 0 or not result.get("correct"):
        sys.exit(done.returncode or 1)


if __name__ == "__main__":
    main()
