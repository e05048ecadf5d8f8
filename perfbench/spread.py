"""Run the benchmark on several seeds and report each metric's spread.

Usage, from the root of a covkg checkout:

    python3 perfbench/spread.py --seeds 10 [--workload NAME ...] [--out FILE]

For every workload, runs ``perfbench/run.py --trace 0`` once per seed
0..N-1 and ``--trace 1`` once at seed 0, one run at a time.  For each
end-to-end metric it prints the median, the quartiles from
``statistics.quantiles(values, n=4)`` and the spread (q3 - q1) / median,
flagged when the spread is not below a third of the metric's bound.  With
``--out`` it writes the same numbers, the per-layer values of the traced run
and the machine record as JSON (perfbench/baseline.json is such a file).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    machine = json.loads(lines[1].partition("machine: ")[2])
    return {"result": json.loads(lines[-1]), "machine": machine,
            "report": lines[:-1]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    bench = json.loads(Path("BENCHMARK.json").read_text())
    names = args.workload or [w["name"] for w in bench["workloads"]]
    summary = {"run_seconds": bench["run_seconds"], "seeds": args.seeds,
               "workloads": {}}
    steady = True
    for name in names:
        runs = []
        for seed in range(args.seeds):
            runs.append(run_once(name, seed, bench["run_seconds"], 0))
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}"
                for k, v in runs[-1]["result"]["metrics"].items()), flush=True)
        if not all(r["result"]["correct"] for r in runs):
            steady = False
            print(f"{name}: a run reported correct=false")
        traced = run_once(name, 0, bench["run_seconds"], 1)
        summary["machine"] = traced["machine"]
        e2e = {}
        for m in bench["end_to_end"]:
            values = [r["result"]["metrics"][m["name"]]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            ok = spread < m["bound"] / 3
            steady &= ok
            e2e[m["name"]] = {"median": med, "q1": q1, "q3": q3,
                              "spread": spread, "unit": m["unit"]}
            print(f"  {name} {m['name']}: median {med:.6g} {m['unit']}, "
                  f"q1 {q1:.6g}, q3 {q3:.6g}, spread {spread:.4f} "
                  f"(bound {m['bound']}){'' if ok else '  <-- not steady'}")
        summary["workloads"][name] = {
            "end_to_end": e2e,
            "per_layer": {k: v["value"]
                          for k, v in traced["result"]["metrics"].items()},
            "report_seed0": runs[0]["report"][2:],
        }
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=2) + "\n")
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
