"""Run the benchmark on two revisions in alternating pairs and judge each
metric's move.

Run:  python3 tools/paired.py --base REV [--head REV] --pairs 10 \
          [--workloads block-drift,long-majority] --out FILE

Both revisions are extracted with ``git archive`` into one scratch
directory (``--work``, default a new temporary one, removed at the end).
For seed 1..PAIRS and each workload, ``bench/run.py --seconds S --trace 0``
runs once on each side, the base first on odd seeds and the head first on
even ones.  The run length S is ``run_seconds`` of the base's
``BENCHMARK.json``, which also gives each metric's ``better`` direction
and ``bound``.

For every workload and metric the output file holds both sides' values,
medians and quartiles (``statistics.quantiles(values, n=4)``, as
``bench/spread.py`` takes them), the number of pairs the head won (ties
count for neither side) and a verdict:

* ``met``: the head's median is better by more than the base's quartile
  spread, and the head won at least nine tenths of the pairs;
* ``worse than bound``: the head's median is worse than the base's by more
  than the metric's bound, a share of the base's median;
* ``worse``: worse by more than the spread, but within the bound;
* ``unresolved``: any other move.

It also holds each side's failed and attempted operation counts.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
#: the share of pairs the head must win for a gain to be met
WIN_SHARE = 0.9


def side(values: list[float]) -> dict:
    """Values, median and quartiles of one side's runs."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": statistics.median(values), "q1": q1, "q3": q3}


def compare(base: list[float], head: list[float], better: str, bound: float) -> dict:
    """Both sides of one metric over pairs ``(base[i], head[i])``: their
    summaries, the move of the median, the base's quartile spread, the
    head's wins and the verdict (see the module docstring)."""
    if len(base) != len(head) or len(base) < 2:
        raise ValueError(f"need two or more pairs of runs, got {len(base)} and {len(head)} values")
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    sign = -1.0 if better == "lower" else 1.0
    b, h = side(base), side(head)
    move = h["median"] - b["median"]
    spread = b["q3"] - b["q1"]
    gain = sign * move  # positive when the head is better
    wins = sum(sign * (y - x) > 0 for x, y in zip(base, head))
    if gain > spread and wins >= WIN_SHARE * len(base):
        verdict = "met"
    elif -gain > bound * abs(b["median"]):
        verdict = "worse than bound"
    elif -gain > spread:
        verdict = "worse"
    else:
        verdict = "unresolved"
    return {
        "better": better,
        "bound": bound,
        "base": b,
        "head": h,
        "move": move,
        "move_share": move / b["median"] if b["median"] else None,
        "spread": spread,
        "wins": wins,
        "pairs": len(base),
        "verdict": verdict,
    }


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True,
                          check=True).stdout.strip()


def extract(rev: str, dest: Path) -> str:
    """Extract ``rev`` into ``dest`` with ``git archive``; its commit id."""
    commit = git("rev-parse", "--verify", f"{rev}^{{commit}}")
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", commit], capture_output=True,
                             check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return commit


def bench(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result line of one ``bench/run.py`` run in the checkout at ``root``."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="the parent revision")
    parser.add_argument("--head", default="HEAD", help="the changed revision (default HEAD)")
    parser.add_argument("--pairs", type=int, default=10, help="pairs of runs, seeds 1..PAIRS")
    parser.add_argument("--workloads", help="comma-separated (default: every workload of the base)")
    parser.add_argument("--out", required=True, help="the JSON file to write")
    parser.add_argument("--work", help="scratch directory for both checkouts (kept)")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")

    work = Path(args.work) if args.work else Path(tempfile.mkdtemp(prefix="paired-"))
    try:
        roots = {"base": work / "base", "head": work / "head"}
        commits = {name: extract(getattr(args, name), root) for name, root in roots.items()}
        doc = json.loads((roots["base"] / "BENCHMARK.json").read_text(encoding="utf-8"))
        metrics = {m["name"]: m for m in doc["end_to_end"]}
        workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in doc["workloads"]]
        runs: dict = {w: {"base": [], "head": []} for w in workloads}
        for seed in range(1, args.pairs + 1):
            order = ("base", "head") if seed % 2 else ("head", "base")
            for workload in workloads:
                for name in order:
                    t0 = time.perf_counter()
                    runs[workload][name].append(bench(roots[name], workload, seed, doc["run_seconds"]))
                    print(f"{workload} seed {seed} {name}: {time.perf_counter() - t0:.0f} s", flush=True)
    finally:
        if not args.work:
            shutil.rmtree(work, ignore_errors=True)

    out = {"base": commits["base"], "head": commits["head"], "pairs": args.pairs,
           "run_seconds": doc["run_seconds"], "workloads": {}}
    for workload, sides in runs.items():
        entry = {
            name: {"attempted": sum(r["attempted"] for r in results),
                   "failed": sum(r["failed"] for r in results)}
            for name, results in sides.items()
        }
        entry["metrics"] = {}
        for metric, spec in metrics.items():
            base, head = ([r["metrics"][metric]["value"] for r in sides[s]] for s in ("base", "head"))
            result = compare(base, head, spec["better"], spec["bound"])
            entry["metrics"][metric] = result
            share = "" if result["move_share"] is None else f" ({result['move_share']:+.1%})"
            print(f"{workload:14s} {metric:16s} {result['base']['median']:.6g} -> "
                  f"{result['head']['median']:.6g}{share}, spread {result['spread']:.3g}, "
                  f"head better in {result['wins']}/{args.pairs}: {result['verdict']}")
        out["workloads"][workload] = entry
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
