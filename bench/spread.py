"""Run the benchmark over several seeds and summarize each metric.

    python3 bench/spread.py --seeds 1-10 --trace 0 --baseline bench/baseline.json

For every workload and metric it records the values, their median, the
first and third quartiles (``statistics.quantiles(values, n=4)``) and the
spread, the distance between the quartiles as a share of the median.
Runs one seed at a time, one workload after another.  ``--baseline``
replaces the file's ``end_to_end`` (``--trace 0``) or ``per_layer``
(``--trace 1``) section with the result.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds_of(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in doc["workloads"]))
    parser.add_argument("--out", help="also write the summary as JSON")
    parser.add_argument("--baseline", help="update this baseline file's section for --trace")
    args = parser.parse_args()

    summary: dict = {"run_seconds": doc["run_seconds"], "trace": args.trace, "workloads": {}}
    for name in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        notes: list[str] = []
        failed = attempted = 0
        for seed in seeds_of(args.seeds):
            t0 = time.perf_counter()
            out = subprocess.run(
                [sys.executable, *doc["command"][1:], "--workload", name, "--seed", str(seed),
                 "--seconds", str(doc["run_seconds"]), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, check=True,
            )
            lines = out.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            notes += [f"seed {seed}: {line[2:]}" for line in lines if line.startswith("# reference task")]
            failed += result["failed"]
            attempted += result["attempted"]
            for metric, entry in result["metrics"].items():
                values.setdefault(metric, []).append(entry["value"])
            print(f"{name} seed {seed}: {time.perf_counter() - t0:.1f} s, "
                  f"correct={result['correct']}", flush=True)
        metrics = {}
        for metric, xs in values.items():
            q1, _, q3 = statistics.quantiles(xs, n=4)
            med = statistics.median(xs)
            metrics[metric] = {
                "median": med, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / med if med else None, "values": xs,
            }
            print(f"  {metric:34s} median {med:14.6g}  spread {metrics[metric]['spread']}")
        summary["workloads"][name] = {"attempted": attempted, "failed": failed, "metrics": metrics,
                                      "notes": notes}
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    if args.baseline:
        base = json.loads(Path(args.baseline).read_text(encoding="utf-8"))
        base["per_layer" if args.trace else "end_to_end"] = summary["workloads"]
        Path(args.baseline).write_text(json.dumps(base, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
