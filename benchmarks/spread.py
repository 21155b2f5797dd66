"""Run-to-run spread of the end-to-end metrics.

    python3 benchmarks/spread.py --workload desk-lossless --seeds 1-10

Runs ``run.py`` once per seed, one run at a time, and prints for every
end-to-end metric the median, the quartiles and the spread (interquartile
distance over the median), beside the metric's bound from BENCHMARK.json,
and the same for the unscaled times (``raw.setup_s``, ``raw.trials_per_s``)
for comparison.  A benchmark is steady when every bounded spread stays below
a third of its bound.  ``--json PATH`` also writes the runs and the summary.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarize(values: list[float], bound: float) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "bound": bound, "values": values}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--seconds", type=int,
                        help="run length (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--json", type=Path, help="also write runs and summary here")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = []
    for seed in parse_seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        )
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        # "<workload> unscaled <metric> <value> <unit>"
        raw = {f"raw.{f[2]}": float(f[3]) for f in map(str.split, lines)
               if len(f) == 5 and f[1] == "unscaled"}
        runs.append({"seed": seed, **json.loads(lines[0]), **result, "unscaled": raw})
        values = " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']} {values}",
              flush=True)

    summary = {
        name: summarize([r["metrics"][name]["value"] for r in runs], bound)
        for name, bound in bounds.items()
    }
    for name in runs[0]["unscaled"]:
        summary[name] = summarize([r["unscaled"][name] for r in runs], None)
    for name, s in summary.items():
        flag = "" if s["bound"] is None or s["spread"] < s["bound"] / 3 else "  > bound/3"
        print(f"{args.workload} {name:14} median {s['median']:.6g}  q1 {s['q1']:.6g}  "
              f"q3 {s['q3']:.6g}  spread {s['spread']:.4f}  bound {s['bound']}{flag}")
    if args.json:
        args.json.write_text(json.dumps(
            {"workload": args.workload, "seconds": seconds, "runs": runs, "summary": summary},
            indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
