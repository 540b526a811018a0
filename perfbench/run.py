#!/usr/bin/env python3
"""Simulator benchmark: builds the harness from source and runs one workload.

Run from the root of a repository checkout:

  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
  python3 perfbench/run.py --selftest

The harness (perfbench/harness.cc) is compiled together with the library
sources in src/ into .bench_build/perfbench. The last line of standard
output is the harness's JSON result; build output and the run summary go to
standard error. --selftest checks the harness's output checks against
corrupted results and runs every workload of BENCHMARK.json at reduced
size, end to end.
"""
import argparse
import json
import math
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(".bench_build", "perfbench")
EXE = os.path.join(BUILD_DIR, "agb_perfbench")


def build():
    """Configures and builds the harness; False on failure."""
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = [["cmake", "-S", HERE, "-B", BUILD_DIR,
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", BUILD_DIR, "-j", jobs]]
    for step in steps:
        result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            print("perfbench: build step failed: " + " ".join(step),
                  file=sys.stderr)
            return False
    return True


def last_json_line(text):
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        return None


def run_harness(args):
    """Runs the harness; returns its exit code, stdout and parsed result."""
    result = subprocess.run([EXE] + args, stdout=subprocess.PIPE, text=True)
    return result.returncode, result.stdout, last_json_line(result.stdout)


def valid_result(result):
    return (isinstance(result, dict)
            and set(result) == {"correct", "attempted", "failed", "metrics"}
            and isinstance(result["attempted"], int)
            and result["attempted"] >= 1
            and isinstance(result["failed"], int))


def selftest():
    code = subprocess.run([EXE, "--selftest"]).returncode
    failures = 0 if code == 0 else 1
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for workload in spec["workloads"]:
        for trace in (0, 1):
            started = time.monotonic()
            code, _, result = run_harness(
                ["--workload", workload["name"], "--seed", "42",
                 "--seconds", "1", "--trace", str(trace), "--reduced", "1"])
            problems = []
            if code != 0 or not valid_result(result):
                problems.append("exit %d, no valid result line" % code)
            else:
                metrics = result["metrics"]
                if result["correct"] is not True:
                    problems.append("outputs judged incorrect")
                if set(metrics) != set(expected[trace]):
                    problems.append("metrics %s, expected %s" % (
                        sorted(metrics), sorted(expected[trace])))
                for name, m in metrics.items():
                    if m.get("unit") != expected[trace].get(name):
                        problems.append("%s: unit %s" % (name, m.get("unit")))
                    value = m.get("value")
                    if not isinstance(value, (int, float)) or \
                            not math.isfinite(value):
                        problems.append("%s: value %r" % (name, value))
                    elif trace == 0 and value <= 0:
                        problems.append("%s: %r is not positive" % (
                            name, value))
            print("%s  %s --trace %d at reduced size (%.1f s)%s" % (
                "FAIL" if problems else "ok  ", workload["name"], trace,
                time.monotonic() - started,
                "".join("\n        " + p for p in problems)))
            failures += 1 if problems else 0
    print("selftest: %s" % ("ok" if failures == 0 else "FAILED"))
    return 0 if failures == 0 else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and (args.workload is None or args.seed is None or
                              args.seconds is None or args.trace is None):
        parser.error("--workload, --seed, --seconds and --trace are required")
    if not args.selftest and (args.seed < 0 or args.seconds < 1):
        parser.error("--seed must be >= 0 and --seconds >= 1")

    if not build():
        return 1
    if args.selftest:
        return selftest()

    harness_args = ["--workload", args.workload, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace",
                    str(args.trace)]
    code, stdout, result = run_harness(harness_args)
    if code != 0 or not valid_result(result):
        print("perfbench: harness exited %d without a valid result" % code,
              file=sys.stderr)
        return code or 1
    sys.stdout.write(stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
