#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the `sdds-perfbench` binary with cargo (into `$CARGO_TARGET_DIR`,
default `.bench_build`), runs the workload in its own process for the
given number of seconds, and forwards its report. The last line of
standard output is one JSON object with `correct`, `attempted`, `failed`
and `metrics`: the end-to-end metrics with `--trace 0`, the per-layer
metrics with `--trace 1` (spans are written to `.bench_out/`). The
metric names and units are checked against `BENCHMARK.json`. The exit
code is non-zero if the build fails, an output check fails, or the
report does not match `BENCHMARK.json`.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
# The benchmark itself stops after --seconds plus at most one workload
# run; this only guards against a hang.
RUN_GRACE_S = 150


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def run(cmd, timeout, **kwargs):
    """Runs `cmd` and waits for it; kills and reaps it on timeout."""
    with subprocess.Popen(cmd, **kwargs) as proc:
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            fail(f"{cmd[0]} did not finish within {timeout} s")
        return proc.returncode, out


def revision():
    """The checked-out commit, read from .git without running git."""
    head_path = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head_path) as f:
            head = f.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", head[5:])) as f:
                return f.read().strip()
        return head
    except OSError:
        return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}")
    expected = spec["per_layer" if args.trace == "1" else "end_to_end"]

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = ["cargo", "build", "--release", "--offline", "--locked", "--quiet",
             "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    code, _ = run(build, BUILD_TIMEOUT_S, env=env, stdout=sys.stderr)
    if code != 0:
        fail(f"build failed (exit {code})")

    cmd = [os.path.join(target, "release", "sdds-perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--revision", revision()]
    if args.trace == "1":
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        cmd += ["--spans-out", os.path.join(
            out_dir, f"spans-{args.workload}-seed{args.seed}.jsonl")]
    code, out = run(cmd, args.seconds + RUN_GRACE_S, stdout=subprocess.PIPE, text=True)
    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stderr.write(out)
        fail(f"no result line (exit {code})")

    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"result has keys {sorted(result)}")
    want = {m["name"]: m["unit"] for m in expected}
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != want:
        fail(f"metrics {got} do not match BENCHMARK.json {want}")
    sys.stdout.write(out)
    sys.exit(code)


if __name__ == "__main__":
    main()
