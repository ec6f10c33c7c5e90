"""The metric names a real benchmark run prints must be exactly the names
BENCHMARK.json declares, in both modes (end-to-end and traced).

usage: test_metric_names.py NNCS_PERFBENCH BENCHMARK_JSON NETS_DIR OUT_DIR
"""
import json
import subprocess
import sys


def printed_metrics(binary, nets, out, trace):
    proc = subprocess.run(
        [binary, "--workload", "pendulum_zonotope", "--seed", "3", "--seconds", "0",
         "--trace", str(trace), "--nets", nets, "--out", out],
        capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]


def main():
    binary, bench_json, nets, out = sys.argv[1:5]
    with open(bench_json) as f:
        bench = json.load(f)
    failures = 0
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        declared = {m["name"]: m["unit"] for m in bench[section]}
        printed = {name: m["unit"] for name, m in printed_metrics(binary, nets, out, trace).items()}
        if printed != declared:
            failures += 1
            print(f"{section}: printed but not declared: {sorted(set(printed) - set(declared))}")
            print(f"{section}: declared but not printed: {sorted(set(declared) - set(printed))}")
            print(f"{section}: unit mismatches: "
                  f"{sorted(n for n in printed if n in declared and printed[n] != declared[n])}")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
