"""Run the benchmark over several seeds and record a baseline file.

Usage, from the root of the repository:

    python3 perfbench/record.py --seeds 1-10 --output perfbench/baseline.json

For each workload it makes one untraced run per seed and one traced run on
the first seed, one after another, with ``run_seconds`` from
``BENCHMARK.json``.  It writes, per workload, the median of each end-to-end
metric with its quartile spread (``(q3 - q1) / median``, quartiles as
``statistics.quantiles(values, n=4)`` gives them), the traced run's result
line, and the machine it ran on.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload]
    argv += ["--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True, timeout=600)
    sys.stderr.write(done.stderr)
    summary, result = done.stdout.strip().splitlines()[-2:]
    print(summary, flush=True)
    return json.loads(result)


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "system": platform.platform(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--output", required=True)
    args = parser.parse_args()

    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = config["run_seconds"]
    names = [w["name"] for w in config["workloads"]]
    seeds = seed_list(args.seeds)

    report = {"machine": machine(), "run_seconds": seconds, "seeds": seeds, "workloads": {}}
    for name in names:
        results = [run(name, seed, seconds, 0) for seed in seeds]
        metrics = {}
        for key, first in results[0]["metrics"].items():
            values = [r["metrics"][key]["value"] for r in results]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            metrics[key] = {
                "value": median,
                "unit": first["unit"],
                "spread": (q3 - q1) / median,
                "values": values,
            }
        report["workloads"][name] = {
            "untraced": {
                "correct": all(r["correct"] for r in results),
                "attempted": sum(r["attempted"] for r in results),
                "failed": sum(r["failed"] for r in results),
                "metrics": metrics,
            },
            "traced": run(name, seeds[0], seconds, 1),
        }
    Path(args.output).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    for name, entry in report["workloads"].items():
        for key, m in entry["untraced"]["metrics"].items():
            print(f"{name:13s} {key:12s} median {m['value']:.4f} {m['unit']:3s} spread {m['spread']:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
