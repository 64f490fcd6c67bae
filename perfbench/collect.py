"""Repeat benchmark runs over several seeds and summarize each metric.

    python3 perfbench/collect.py --workloads sweep bisect oracle \\
        --seeds 1 2 3 4 5 6 7 8 9 10 --trace 0 --out summary.json

Runs ``run.py`` once per (workload, seed), sequentially, with the
``run_seconds`` of BENCHMARK.json, and writes every run's result line plus,
per metric, the median, the quartiles (``statistics.quantiles(n=4)``) and
the spread (interquartile distance over the median).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "n": len(values)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    report = {"run_seconds": seconds, "trace": args.trace, "workloads": {}}
    ok = True
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=600,
            )
            lines = proc.stdout.strip().splitlines()
            info, result = json.loads(lines[-2]), json.loads(lines[-1])
            ok &= proc.returncode == 0 and result["correct"]
            runs.append({"seed": seed, "exit": proc.returncode, "info": info, "result": result})
            print(workload, seed, proc.returncode, json.dumps(
                {k: round(v["value"], 6) for k, v in result["metrics"].items()}), flush=True)
        names = runs[0]["result"]["metrics"]
        report["workloads"][workload] = {
            "metrics": {name: {"unit": runs[0]["result"]["metrics"][name]["unit"],
                               **summarize([r["result"]["metrics"][name]["value"] for r in runs])}
                        for name in names},
            "runs": runs,
        }
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    for workload, entry in report["workloads"].items():
        for name, s in entry["metrics"].items():
            print(f"{workload:7s} {name:48s} median {s['median']:.6g} {s['unit']:12s} "
                  f"spread {s['spread']:.4f}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
