"""Repeat benchmark runs over several seeds and summarise each metric.

    python3 perfbench/baseline.py [--out perfbench/BASELINE.json]

Makes two sets of runs.  Each set runs `run.py` on every workload once per
seed 0..9 with tracing off; one traced run per workload follows, at seed 0.
Prints, per end-to-end metric and set, the median, the quartiles and the
spread: the distance between the quartiles (`statistics.quantiles(values,
n=4)`) as a share of the median, next to the metric's bound from
BENCHMARK.json.  The same is printed for the raw wall times behind the
normalised ones.  Then it prints by what share the second set's median is
worse than the first's, which must stay within the bound.  With `--out`,
writes the summary as the baseline that later changes quote as their
"before" column.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SEEDS = range(10)
SETS = 2
# raw wall-time counterpart, in the provenance line, of each normalised metric
RAW = {"setup_s": "raw_setup_s", "op_s.p50": "raw_op_s.p50", "op_s.tail": "raw_op_s.tail",
       "ops_per_s": "raw_ops_per_s"}


def run_once(workload: str, seed: int, trace: int) -> dict:
    cmd = [*SPEC["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    result = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if result.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited with {result.returncode}:\n{result.stderr}")
    lines = result.stdout.strip().splitlines()
    outcome = json.loads(lines[-1])
    outcome["provenance"] = json.loads(lines[-2])["provenance"]
    if not outcome["correct"]:
        print(f"  {workload} seed {seed}: output checks failed\n{result.stderr}", file=sys.stderr)
    return outcome


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0}


def show(label: str, stats: dict, bound: float) -> None:
    flag = "" if stats["spread"] <= bound / 3 else "  <-- above a third of the bound"
    print(f"  {label:<20} median {stats['median']:<12.6g} q1 {stats['q1']:<12.6g} q3 {stats['q3']:<12.6g}"
          f" spread {stats['spread']:.4f} (bound {bound}){flag}", flush=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out")
    args = parser.parse_args()

    names = [w["name"] for w in SPEC["workloads"]]
    metrics = {m["name"]: m for m in SPEC["end_to_end"]}
    sets = []
    for number in range(1, SETS + 1):
        sets.append({})
        for workload in names:
            runs = [run_once(workload, seed, 0) for seed in SEEDS]
            sets[-1][workload] = runs
            print(f"set {number}  {workload}  (all correct: {all(r['correct'] for r in runs)})")
            for name, metric in metrics.items():
                show(name, summarise([r["metrics"][name]["value"] for r in runs]), metric["bound"])
                if name in RAW:
                    show(f"  raw {name}", summarise([r["provenance"][RAW[name]] for r in runs]), metric["bound"])

    report = {"seconds": SPEC["run_seconds"], "seeds": list(SEEDS), "sets": SETS, "workloads": {}}
    print("share by which the second set's median is worse than the first's")
    for workload in names:
        trace = run_once(workload, SEEDS[0], 1)
        runs = [s[workload] for s in sets]
        entry = {"correct": all(r["correct"] for r in sum(runs, [trace])), "end_to_end": {}}
        print(f"  {workload}")
        for name, metric in metrics.items():
            stats = [summarise([r["metrics"][name]["value"] for r in set_runs]) for set_runs in runs]
            first, second = stats[0]["median"], stats[1]["median"]
            worse = (second - first if metric["better"] == "lower" else first - second) / first
            entry["end_to_end"][name] = {
                "unit": metric["unit"], "bound": metric["bound"], "median": first,
                "sets": stats, "second_worse_by": worse,
            }
            if name in RAW:
                entry["end_to_end"][name]["raw_sets"] = [
                    summarise([r["provenance"][RAW[name]] for r in set_runs]) for set_runs in runs
                ]
            flag = "" if worse <= metric["bound"] else "  <-- beyond the bound"
            print(f"    {name:<12} {worse:+.4f} (bound {metric['bound']}){flag}")
        entry["per_layer"] = {name: {"value": m["value"], "unit": m["unit"]} for name, m in trace["metrics"].items()}
        entry["provenance"] = {k: v for k, v in runs[0][0]["provenance"].items() if k != "seed" and not k.startswith("raw_")}
        entry["trace_provenance"] = {k: trace["provenance"][k] for k in ("traced_ops", "root_gap_s")}
        report["workloads"][workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
