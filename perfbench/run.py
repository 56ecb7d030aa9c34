#!/usr/bin/env python3
"""Builds and runs the snor repository benchmark.

Usage (from the repository root):

  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
  python3 perfbench/run.py --selfcheck

The first form configures and builds perfbench/ (the snor libraries from
src/ plus the perfbench binary) into .bench_build/ (or $CARGO_TARGET_DIR
when set), runs one workload, and relays the binary's output; its last
line is the JSON result. The second form runs every workload of
BENCHMARK.json briefly on small inputs, traced and untraced, and asserts
that every named metric is present, finite and carries its unit, and that
the correctness checks ran. See perfbench/README.md.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench/run.py: {message}", file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    out = build_dir()
    cmake = shutil.which("cmake")
    if cmake is None:
        raise RuntimeError("cmake not found")
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        configure = [cmake, "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(out, ignore_errors=True)
            raise RuntimeError("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = [cmake, "--build", out, "--target", "perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        raise RuntimeError("build failed")
    return os.path.join(out, "perfbench")


def run_binary(binary, args, relay=True):
    """Runs the binary to completion (bounded); returns (code, stdout lines)."""
    proc = subprocess.Popen([binary] + args, stdout=subprocess.PIPE, text=True,
                            cwd=ROOT)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"benchmark exceeded {RUN_TIMEOUT_S} s")
    if relay:
        sys.stdout.write(stdout)
        sys.stdout.flush()
    return proc.returncode, stdout.splitlines()


def parse_result(lines):
    """The last stdout line must be the result object with exactly its keys."""
    if not lines:
        raise ValueError("no output")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"unexpected result keys {sorted(result)}")
    return result


def parse_checks(lines):
    for line in lines:
        if line.startswith("perfbench-checks "):
            return json.loads(line[len("perfbench-checks "):])
    raise ValueError("no perfbench-checks line")


def selfcheck(binary):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            tag = f"{workload} trace={trace}"
            args = ["--workload", workload, "--seed", "1", "--seconds", "1",
                    "--trace", str(trace), "--quick"]
            code, lines = run_binary(binary, args, relay=False)
            try:
                result = parse_result(lines)
                checks = parse_checks(lines)
            except ValueError as e:
                problems.append(f"{tag}: {e}")
                continue
            if code != 0 or not result["correct"] or result["failed"] != 0:
                problems.append(f"{tag}: exit {code}, correct="
                                f"{result['correct']}, failed={result['failed']}")
            if result["attempted"] < 1:
                problems.append(f"{tag}: nothing attempted")
            if checks["label_checks"] < 1:
                problems.append(f"{tag}: no label was checked")
            if workload.startswith("serve_") and checks["accounting_checks"] < 1:
                problems.append(f"{tag}: accounting was not reconciled")
            metrics = result["metrics"]
            if set(metrics) != set(expected[trace]):
                problems.append(f"{tag}: metric names differ from BENCHMARK.json: "
                                f"{sorted(set(metrics) ^ set(expected[trace]))}")
            for name, metric in metrics.items():
                value = metric.get("value")
                if not isinstance(value, (int, float)) or not math.isfinite(value):
                    problems.append(f"{tag}: {name} is not a finite number")
                if metric.get("unit") != expected[trace].get(name):
                    problems.append(f"{tag}: {name} unit {metric.get('unit')!r}")
            print(f"selfcheck {tag}: {len(metrics)} metrics, "
                  f"{checks['label_checks']} label checks, "
                  f"{checks['accounting_checks']} accounting checks")
    for problem in problems:
        print(f"SELFCHECK FAILED: {problem}")
    print("selfcheck " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args()
    if not args.selfcheck and None in (args.workload, args.seed, args.seconds,
                                       args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    try:
        binary = build()
        if args.selfcheck:
            return selfcheck(binary)
        code, lines = run_binary(binary, [
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)])
        parse_result(lines)
        return code
    except (RuntimeError, ValueError, OSError) as e:
        log(f"error: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
