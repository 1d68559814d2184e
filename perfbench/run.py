#!/usr/bin/env python3
"""Simulator benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the repository root. The first call configures and builds
perfbench/ (the simulator library from src/ plus the benchmark) into
.bench_build/perfbench; later calls reuse the build. The benchmark's
stdout is passed through; its last line is the JSON result, which is
checked here against the metric names declared in BENCHMARK.json.
"""

import argparse
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
# Switches the simulator reads from the environment that change what
# is measured: lane sharding, invariant checks, live export, the scalar
# probe kernels and the self-profile.
SIM_ENV_SWITCHES = ("CSALT_SHARDS", "CSALT_PARANOID", "CSALT_LIVE_EXPORT",
                    "CSALT_SIMD", "CSALT_SELF_PROFILE")


def bench_env():
    return {k: v for k, v in os.environ.items()
            if k not in SIM_ENV_SWITCHES}


def fail(code, msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configure (once) and build; return True when anything was built."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(2, f"simulator sources not found under {ROOT / 'src'}")
    started = time.monotonic()
    if not (BUILD / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr,
                          timeout=BUILD_TIMEOUT_S).returncode:
            fail(3, "cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    left = BUILD_TIMEOUT_S - (time.monotonic() - started)
    done = subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs],
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True, timeout=left)
    if done.returncode:
        sys.stderr.write(done.stdout)
        fail(3, "build failed")
    return "Linking" in done.stdout


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def check_result(line, trace):
    """Return the problems with the benchmark's result line."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError as e:
        return [f"last line is not JSON: {e}"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    metrics = result.get("metrics", {})
    for name in metrics:
        if not NAME_RE.fullmatch(name):
            problems.append(f"bad metric name {name!r}")
    declared = declared_metrics(trace)
    got = {n: m.get("unit") for n, m in metrics.items()}
    if got != declared:
        missing = sorted(set(declared) - set(got))
        extra = sorted(set(got) - set(declared))
        units = sorted(n for n in set(got) & set(declared)
                       if got[n] != declared[n])
        problems.append(f"metrics differ from BENCHMARK.json: missing "
                        f"{missing}, undeclared {extra}, unit mismatch "
                        f"{units}")
    return problems


def run_benchmark(args, deadline):
    cmd = [str(BUILD / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              env=bench_env(),
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail(5, "benchmark timed out")
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail(done.returncode, f"benchmark exited with {done.returncode}")
    problems = check_result(lines[-1], args.trace)
    if problems:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail(4, "; ".join(problems))
    sys.stdout.write("\n".join(lines) + "\n")


def selftest():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for key in ("end_to_end", "per_layer")
             for m in spec[key]]
    bad = [n for n in names if not NAME_RE.fullmatch(n)]
    print(f"{'FAIL' if bad else 'ok  '} declared metric names match "
          f"[A-Za-z0-9_.-]+ {bad or ''}")
    dup = len(names) != len(set(names))
    print(f"{'FAIL' if dup else 'ok  '} declared metric names are unique")
    code = subprocess.run([str(BUILD / "perfbench_selftest")],
                          env=bench_env()).returncode
    sys.exit(1 if bad or dup or code else 0)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and not args.workload:
        ap.error("--workload is required")

    started = time.monotonic()
    built = build()
    if args.selftest:
        selftest()
    budget = (BUILD_TIMEOUT_S + 50) if built else RUN_TIMEOUT_S
    run_benchmark(args, started + budget)


if __name__ == "__main__":
    main()
