"""specjac benchmark: one command per workload, run from the repository root.

    python3 benchmarks/run.py --workload desk-lossless --seed 1 --seconds 15 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 15 --trace 1

Each workload runs in its own fresh, single-threaded interpreter
(``worker.py``), one at a time.  With ``--trace 0`` the run measures the
end-to-end metrics: set-up time (median of fresh-interpreter probes) and
trial throughput of a closed loop of CLI rounds, both scaled to a reference
speed (``speed.py``), and peak RSS.  With ``--trace 1``
it reports the per-layer metrics of one traced round instead.  Outputs are
checked in every mode.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
lines before it give every metric by name and unit, and the run's metadata.

Exit status 2 means the checkout does not hold the program; 1 means a
worker failed or ran out of time.  Neither prints a result line.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from spans import CONTEXT, PER_LAYER
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"

# set-up is measured in fresh interpreters, and the median of the probes is
# reported; it also absorbs the one slow probe that writes the bytecode
# caches in a fresh checkout
SETUP_PROBES = 5
# every run must end within 180 s; leave room for cleanup and reporting
TIME_LIMIT_S = 170.0

END_TO_END_UNITS = {"setup_s": "s", "trials_per_s": "1/s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    pass


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    # set-up is measured as a user sees it, with bytecode caches written and used
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.update(
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
        PYTHONPATH=str(ROOT / "src"),
    )
    return env


def run_child(script: str, args: list[str], deadline: float) -> dict:
    """Run one benchmark script in a fresh interpreter; return its last JSON line."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time limit reached before starting a worker")
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / script), *args],
            cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=remaining,
        )
    except subprocess.TimeoutExpired as exc:  # the child was killed and reaped
        raise BenchError(f"{script} exceeded the time limit") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{script} exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def run_workload(name: str, seed: int, seconds: float, trace: bool, size: str,
                 scratch: Path, deadline: float) -> dict:
    workload = WORKLOADS[name]
    out_dir = scratch / name
    trace_file = OUT / f"trace-{name}-seed{seed}.json"
    worker_args = [
        "--workload", name, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(int(trace)), "--size", size,
        "--out-dir", str(out_dir), "--trace-file", str(trace_file),
    ]
    probes = []
    if not trace:
        probe_argv = list(workload.commands(seed, out_dir, size)[0].argv)
        probes = [run_child("setup_probe.py", probe_argv, deadline)
                  for _ in range(SETUP_PROBES)]
    result = run_child("worker.py", worker_args, deadline)
    if probes:
        result["metrics"]["setup_s"] = statistics.median(p["setup_s"] for p in probes)
        result["info"]["setup_samples_s"] = [p["setup_s"] for p in probes]
        result["info"]["raw_setup_s"] = statistics.median(p["raw_s"] for p in probes)
    return result


def metadata(args: argparse.Namespace, versions: dict) -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "nproc": os.cpu_count(),
        "commit": commit, **versions,
    }


def units(trace: bool) -> dict[str, str]:
    if trace:
        return {name: unit for name, unit, _ in PER_LAYER}
    return END_TO_END_UNITS


def report(name: str, result: dict, trace: bool) -> None:
    """Human-readable lines: every metric by name and unit, then the checks."""
    for metric, unit in units(trace).items():
        print(f"{name:15} {metric:44} {result['metrics'][metric]:>16.6f} {unit}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"{name:15} {'failed_frac':44} {failed / attempted:>16.6f} ratio "
          f"({failed} failed of {attempted} operations)")
    info = result["info"]
    for key, value in info["nfe_mean"].items():
        print(f"{name:15} nfe_mean.{key:35} {value:>16.6f} calls/seq")
    for label, digest in info["digests"].items():
        print(f"{name:15} sha256 {label:37} {digest}")
    for note in info["notes"]:
        print(f"{name:15} FAILED {note}")
    if trace:
        for key, unit in CONTEXT:
            print(f"{name:15} context {key:36} {info['context'][key]:>16.6f} {unit}")
        print(f"{name:15} trace written to {info['trace_file']}")
    else:
        walls = ", ".join(f"{w:.3f}" for w in info["round_wall_s"])
        print(f"{name:15} {info['rounds']} rounds, wall s: {walls}")
        print(f"{name:15} {'unscaled trials_per_s':44} {info['raw_trials_per_s']:>16.6f} 1/s")
        print(f"{name:15} {'unscaled setup_s':44} {info['raw_setup_s']:>16.6f} s")
        print(f"{name:15} setup probes s: {', '.join(f'{s:.3f}' for s in info['setup_samples_s'])}")
        print(f"{name:15} peak RSS MB after import {info['import_rss_mb']:.2f}, "
              f"before the first round {info['floor_rss_mb']:.2f}, "
              f"added by the rounds {info['work_rss_mb']:.2f}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measuring time of the closed loop (trace 0)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="round size; tiny is for the benchmark's self-tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "specjac" / "cli.py").is_file():
        print(f"no specjac sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    deadline = time.monotonic() + TIME_LIMIT_S * len(names)
    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        results = {
            name: run_workload(name, args.seed, args.seconds, bool(args.trace), args.size,
                               scratch, deadline)
            for name in names
        }
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    first = next(iter(results.values()))
    print(json.dumps({"meta": metadata(args, first["info"]["versions"])}))
    for name, result in results.items():
        report(name, result, bool(args.trace))
    metric_names = units(bool(args.trace))
    metrics = {}
    for name, result in results.items():
        prefix = f"{name}." if len(results) > 1 else ""
        for metric in metric_names:
            metrics[prefix + metric] = {"value": result["metrics"][metric],
                                        "unit": metric_names[metric]}
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
