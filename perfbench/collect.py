"""Run the benchmark over several seeds and summarise each metric.

Usage (from the root of a checkout)::

    python3 perfbench/collect.py --seeds 101-110 --trace 0 --out perfbench/results/baseline.json

Runs ``perfbench/run.py`` once per (workload, seed), one after another, with
the ``run_seconds`` from ``BENCHMARK.json``, and writes every run's result line
plus, per workload and metric, the median, the quartiles and the spread (the
distance between the quartiles as a share of the median, the figure the
benchmark's bounds are set against).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(part) for part in text.split(",")]


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    summary = {"n": len(values), "median": median, "min": min(values), "max": max(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        summary.update(q1=q1, q3=q3, spread=(q3 - q1) / median if median else None)
    return summary


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="e.g. 101-110 or 7,9")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    report = {"run_seconds": spec["run_seconds"], "trace": args.trace, "workloads": {}}
    environment = None
    for workload in args.workloads.split(","):
        runs = []
        for seed in _seeds(args.seeds):
            done = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
            )
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            record = next(line for line in lines if line.startswith("# record "))
            environment = json.loads(Path(record[len("# record "):]).read_text())["environment"]
            runs.append({"seed": seed, **result})
            print(f"{workload} seed {seed}: correct {result['correct']}, "
                  f"checks {result['failed']}/{result['attempted']} failed", flush=True)
        names = runs[0]["metrics"]
        report["workloads"][workload] = {
            "sizes": environment["sizes"],
            "runs": runs,
            "metrics": {
                name: {"unit": runs[0]["metrics"][name]["unit"],
                       **summarise([run["metrics"][name]["value"] for run in runs])}
                for name in names
            },
        }
    report["environment"] = {key: environment[key] for key in
                             ("nproc", "cpu_model", "python", "numpy", "scipy", "jsonschema",
                              "spamsim", "git_commit")}
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    for workload, block in report["workloads"].items():
        for name, summary in block["metrics"].items():
            spread = summary.get("spread")
            print(f"{workload} {name}: median {summary['median']:.6g} {summary['unit']}"
                  + (f", spread {spread:.4f}" if spread is not None else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
