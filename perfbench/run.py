#!/usr/bin/env python3
"""Build and run the PAROLE benchmark for one workload and seed.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: market_sustained, rollup_signed, attack_windows.

The benchmark binary is built from source on every call (a no-op once it
is fresh) in two variants: the default build, which gives the end-to-end
metrics, and the `trace` build (telemetry armed), which gives the per-layer
metrics. Both go under $CARGO_TARGET_DIR, or `.bench_build/` at the
repository root when that is unset.

`--trace 0` runs the default build for `--seconds` and relays its result.
`--trace 1` splits `--seconds` between the default build and the trace
build on the same inputs: the traced run must reproduce the untraced run's
outputs (roots, receipts, executed orders), and `trace_overhead` is the
untraced throughput over the traced one. The traced run's spans are written
as Chrome Trace Event JSON under `<target dir>/perfbench-traces/`.

The last line of standard output is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("market_sustained", "rollup_signed", "attack_windows")
# Every run of the binary must end well inside the benchmark's 180 s limit.
RUN_TIMEOUT_S = 170


def build(target_dir, features):
    """Builds one variant of the binary and returns its path."""
    cmd = [
        "cargo", "build", "--release", "--quiet", "--offline",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
        "--target-dir", target_dir,
    ]
    if features:
        cmd += ["--features", features]
    subprocess.run(cmd, check=True, stdout=sys.stderr)
    return os.path.join(target_dir, "release", "perfbench")


def run(binary, args, timeout):
    """Runs the binary, echoes its output, and returns (lines, result)."""
    proc = subprocess.run(
        [binary] + args, stdout=subprocess.PIPE, text=True, timeout=timeout, check=True
    )
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    return lines, json.loads(lines[-1])


def fingerprint(lines):
    for line in lines:
        if line.startswith("fingerprint "):
            return line.split()[1]
    raise RuntimeError("run printed no fingerprint")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    base = os.path.abspath(base)
    # Both variants are built up front, so only the first call pays for
    # compilation, whichever mode it asks for.
    untraced = build(os.path.join(base, "perfbench"), None)
    traced = build(os.path.join(base, "perfbench-trace"), "trace")

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.trace == 0:
        lines, result = run(
            untraced, common + ["--seconds", str(args.seconds)], RUN_TIMEOUT_S
        )
        print(json.dumps(result))
        return 0

    half = str(args.seconds / 2)
    base_lines, base_result = run(
        untraced, common + ["--seconds", half], RUN_TIMEOUT_S
    )
    trace_dir = os.path.join(base, "perfbench-traces")
    os.makedirs(trace_dir, exist_ok=True)
    trace_out = os.path.join(trace_dir, f"{args.workload}-seed{args.seed}.trace.json")
    _, result = run(
        traced,
        common
        + [
            "--seconds", half,
            "--baseline-txs-per-s", repr(base_result["metrics"]["txs_per_s"]["value"]),
            "--baseline-fingerprint", fingerprint(base_lines),
            "--trace-out", trace_out,
        ],
        RUN_TIMEOUT_S,
    )
    # The untraced half's gates count too.
    result["attempted"] += base_result["attempted"]
    result["failed"] += base_result["failed"]
    result["correct"] = bool(result["correct"] and base_result["correct"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, RuntimeError,
            ValueError, KeyError, OSError) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        sys.exit(1)
