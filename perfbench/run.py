#!/usr/bin/env python3
"""Build and run the whole-chain benchmark.

    python3 perfbench/run.py --workload cell_e2e --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

Run from the root of a checkout.  The benchmark is a CMake package of its
own (perfbench/CMakeLists.txt) that builds the repository's libraries from
src/; it is configured and built under .bench_build/perfbench on the first
run and only re-checked afterwards.  Build output goes to stderr, so the
last line of stdout is the benchmark's JSON result.  Exits non-zero
without a result when the repository sources are missing, the build
fails, or the correctness gate fails.
"""
import argparse
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build(target):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("perfbench: no src/CMakeLists.txt next to perfbench/; run "
                 "from a checkout of the repository")
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(ROOT / "perfbench"), "-B",
                        str(BUILD), "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs, "--target",
                    target], check=True, stdout=sys.stderr,
                   timeout=BUILD_TIMEOUT_S)
    return BUILD / target


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload",
                        choices=["cell_e2e", "sniffer_air", "fleet_query"])
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's self-tests")
    args = parser.parse_args()
    if not args.selftest and (args.workload is None or args.seed is None):
        parser.error("--workload and --seed are required")
    try:
        binary = build("perfbench_selftest" if args.selftest
                       else "nrs_perfbench")
    except (subprocess.CalledProcessError,
            subprocess.TimeoutExpired) as err:
        sys.exit(f"perfbench: build failed: {err}")
    if args.selftest:
        cmd = [str(binary)]
    else:
        cmd = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace),
               "--weights", str(ROOT / "tools" / "weights" /
                                "predictor_v1.txt"),
               "--trace-dir", str(ROOT / ".bench_build" / "traces")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                              stdout=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")
    lines = done.stdout.splitlines()
    if done.returncode != 0 or args.selftest or not lines:
        sys.stdout.write(done.stdout)
        return done.returncode or (0 if args.selftest else 1)
    result = json.loads(lines[-1])
    error = complete_metrics(result, args.trace)
    print("\n".join(lines[:-1]))
    if error:
        sys.exit(f"perfbench: {error}")
    print(json.dumps(result))
    return 0


def complete_metrics(result, trace):
    """Match the result's metrics to the one list in BENCHMARK.json.

    Every end-to-end metric must have been measured.  A per-layer metric
    that is not on the workload's path reads 0.  A name or unit that
    BENCHMARK.json does not list is an error.  Returns the error, if any.
    """
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = spec["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    units = {m["name"]: m["unit"] for m in want}
    extra = sorted(set(got) - set(units))
    wrong = sorted(n for n in got if n in units and got[n]["unit"] != units[n])
    missing = [n for n in units if n not in got]
    if extra or wrong or (missing and not trace):
        return (f"metrics differ from BENCHMARK.json: not listed {extra}, "
                f"unit differs {wrong}, not measured {missing}")
    result["metrics"] = {n: got.get(n, {"value": 0, "unit": units[n]})
                         for n in units}
    return None


if __name__ == "__main__":
    sys.exit(main())
