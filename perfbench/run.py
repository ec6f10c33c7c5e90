#!/usr/bin/env python3
"""End-to-end verification benchmark: one workload run per invocation.

    python3 perfbench/run.py --workload acasxu_box --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 7          # every workload
    python3 perfbench/run.py --test                           # the benchmark's own tests

Builds the benchmark and the library it measures from this checkout's
sources into `.bench_build/` (first use only), trains any missing network
cache, then runs `nncs_perfbench` for the workload with every NNCS_*
environment variable removed. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}; --trace 0 reports the
end-to-end metrics of BENCHMARK.json and --trace 1 the per-layer ones. The
exit code is 0 only when the run's correctness checks passed. See
perfbench/README.md for the workloads and metrics.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
BUILD = ROOT / ".bench_build"
NETS = BUILD / "nets"
WORKLOADS = ("acasxu_box", "acasxu_zonotope", "cruise_box", "pendulum_zonotope")
# Network caches next to the sources (cruise control's and the pendulum's
# are committed; ACAS Xu's is left by a build of the repository, if any),
# copied in so that only missing or stale ones are trained.
SOURCE_NETS = {"acasxu": "acasxu_nets_cache", "cruise_control": "cruise_control_nets_cache",
               "pendulum": "pendulum_nets_cache"}
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def clean_env():
    """The environment without NNCS_* variables (and the names dropped)."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("NNCS_")}
    return env, sorted(k for k in os.environ if k.startswith("NNCS_"))


def build(targets):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no library sources under {ROOT / 'src'}; run from a full checkout")
    env, _ = clean_env()
    jobs = str(min(4, os.cpu_count() or 1))
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(BENCH), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, env=env, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs, "--target", *targets],
                   check=True, env=env, stdout=sys.stderr)
    for scenario, source in SOURCE_NETS.items():
        if (ROOT / source).is_dir() and not (NETS / scenario).exists():
            shutil.copytree(ROOT / source, NETS / scenario)


def prepare():
    """Load every workload's networks once, training the missing or stale
    ones, so no timed run ever trains."""
    env, _ = clean_env()
    subprocess.run([str(BUILD / "nncs_perfbench"), "--prepare", "--nets", str(NETS)],
                   check=True, env=env, stdout=sys.stderr)


def declared_metrics(trace):
    path = ROOT / "BENCHMARK.json"
    with open(path) as f:
        bench = json.load(f)
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def run_workload(workload, seed, seconds, trace):
    """Run one workload; returns the benchmark's result object."""
    env, dropped = clean_env()
    for name in dropped:
        print(f"perfbench: ignoring {name} from the environment")
    out = BUILD / "runs" / f"{workload}-seed{seed}-trace{trace}"
    cmd = [str(BUILD / "nncs_perfbench"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--nets", str(NETS),
           "--out", str(out)]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: no result within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        fail(f"{workload}: exited {proc.returncode} without a result")
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    problems = []
    if proc.returncode != 0:
        problems.append(f"nncs_perfbench exited {proc.returncode}")
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    if printed != declared_metrics(trace):
        problems.append("printed metrics differ from BENCHMARK.json")
    if trace:
        check = subprocess.run([str(BUILD / "nncs_trace_check"), result["trace_file"],
                                "--min-spans", "8", "--min-tracks", "2"],
                               stdout=subprocess.PIPE, text=True)
        print(check.stdout.strip())
        if check.returncode != 0:
            problems.append("trace file failed nncs_trace_check")
    for p in problems:
        print(f"perfbench: FAILED: {p}")
    if problems:
        result["correct"] = False
        result["failed"] = result["attempted"]
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--test", action="store_true", help="build and run the benchmark's tests")
    args = parser.parse_args()

    if args.test:
        build(["all"])
        prepare()
        env, _ = clean_env()
        sys.exit(subprocess.run(["ctest", "--output-on-failure", "-j", "2"], cwd=BUILD,
                                env=env).returncode)
    if args.workload is None:
        parser.error("--workload is required")
    build(["nncs_perfbench", "nncs_trace_check"])
    prepare()

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {w: run_workload(w, args.seed, args.seconds, args.trace) for w in workloads}
    if args.workload == "all":
        for w, r in results.items():
            print(f"{w}: " + json.dumps({k: r[k] for k in ("correct", "attempted", "failed")}))
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{name}": m for w, r in results.items()
                        for name, m in r["metrics"].items()},
        }
    else:
        r = results[args.workload]
        final = {k: r[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(final))
    sys.exit(0 if final["correct"] else 1)


if __name__ == "__main__":
    main()
