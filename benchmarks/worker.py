"""One benchmark process, started in a fresh interpreter by ``run.py``.

Modes:

* ``--trace 0``: repeat the workload's round in a closed loop for
  ``--seconds`` seconds and report throughput and peak RSS;
* ``--trace 1``: run one round with decode timers only, one untraced round
  and one fully traced round, and report the per-layer metrics.

The last line of standard output is one JSON object for ``run.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from spans import Tracer, layer_metrics, trial_timer
from speed import Calibration
from workloads import WORKLOADS, Check, round_seed

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

def import_cli():
    """Import ``specjac.cli`` from this checkout's sources, never elsewhere."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import specjac.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "specjac":
        raise SystemExit(f"specjac imported from {cli.__file__}, not from {SRC}")
    return cli


@dataclass
class Round:
    seed: int
    wall_s: float
    trials: int
    check: Check
    digests: dict[str, str]
    out_bytes: int


def run_round(cli, workload, seed: int, out_dir: Path, size: str) -> Round:
    """Run every command of one round through ``cli.main`` and check outputs."""
    commands = workload.commands(seed, out_dir, size)
    wall = 0.0
    codes = []
    for cmd in commands:
        cmd.out.unlink(missing_ok=True)
        t0 = time.perf_counter()
        codes.append(cli.main(list(cmd.argv)))
        wall += time.perf_counter() - t0
    check = workload.check(commands, size)
    digests, out_bytes = {}, 0
    for cmd, code in zip(commands, codes):
        check.expect(code == 0, f"{cmd.label} exited with {code}")
        if cmd.out.exists():
            data = cmd.out.read_bytes()
            digests[cmd.label] = hashlib.sha256(data).hexdigest()
            out_bytes += len(data)
    return Round(seed, wall, workload.trials(size), check, digests, out_bytes)


def tally(rounds: list[Round]) -> tuple[int, int, list[str]]:
    """Operations attempted and failed over ``rounds``.

    Besides its own checks, a round that repeats an earlier round's seed (and
    so its argv) must reproduce that round's output bytes.
    """
    attempted = sum(r.check.attempted for r in rounds)
    failed = sum(r.check.failed for r in rounds)
    notes = [n for r in rounds for n in r.check.notes][:20]
    first: dict[int, Round] = {}
    for i, r in enumerate(rounds):
        earlier = first.setdefault(r.seed, r)
        if earlier is not r:
            attempted += 1
            if r.digests != earlier.digests:
                failed += 1
                notes.append(f"round {i} output differs from the first round with seed {r.seed}")
    return attempted, failed, notes


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def closed_loop(cli, workload, seed: int, seconds: float, out_dir: Path, size: str,
                calibrate: Calibration) -> tuple[list[Round], list[float]]:
    """Repeat the round until ``seconds`` have passed, and at least twice.

    Each round starts only after the previous one returned (one caller).
    The calibration runs before the first round and after every round, so
    round i lies between calibrations i and i + 1.
    """
    deadline = time.perf_counter() + seconds
    calibrations = [calibrate()]
    rounds: list[Round] = []
    while len(rounds) < 2 or time.perf_counter() < deadline:
        index_seed = round_seed(workload, seed, len(rounds))
        rounds.append(run_round(cli, workload, index_seed, out_dir, size))
        calibrations.append(calibrate())
    return rounds, calibrations


def measure(cli, workload, seed, seconds, out_dir, size, import_rss_mb: float) -> dict:
    calibrate = Calibration()
    calibrate()
    # the floor holds the import and the calibration buffers; what the peak
    # gains above it, the workload's commands (and their checks) added
    floor_mb = peak_rss_mb()
    rounds, calibrations = closed_loop(cli, workload, seed, seconds, out_dir, size, calibrate)
    peak_mb = peak_rss_mb()
    attempted, failed, notes = tally(rounds)
    # The first round pays first-call costs in the process; it is checked,
    # not timed.  Throughput is scaled to the reference speed by the
    # calibrations around each round (see speed.py).
    raw, scaled = [], []
    for i, r in enumerate(rounds[1:], start=1):
        rate = r.trials / r.wall_s
        raw.append(rate)
        scaled.append(rate * (calibrations[i] + calibrations[i + 1]) / 2)
    metrics = {
        "trials_per_s": statistics.median(scaled),
        "peak_rss_mb": peak_mb,
    }
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "info": {
            "rounds": len(rounds),
            "round_wall_s": [r.wall_s for r in rounds],
            "calibration": calibrations,
            "raw_trials_per_s": statistics.median(raw),
            "import_rss_mb": import_rss_mb,
            "floor_rss_mb": floor_mb,
            "work_rss_mb": peak_mb - floor_mb,
            "nfe_mean": rounds[0].check.nfe_mean,
            "digests": rounds[0].digests,
            "notes": notes,
        },
    }


def trace(cli, workload, seed, out_dir, size, trace_path: Path) -> dict:
    with trial_timer() as times:
        timed = run_round(cli, workload, seed, out_dir, size)
    untraced = run_round(cli, workload, seed, out_dir, size)
    with Tracer() as tracer:
        traced = run_round(cli, workload, seed, out_dir, size)
    overhead = traced.wall_s / untraced.wall_s - 1.0
    tracer.dump(trace_path, {"workload": workload.name, "seed": seed, "size": size,
                             "untraced_wall_s": untraced.wall_s, "traced_wall_s": traced.wall_s})
    # untraced round first, so that the digest check compares against it
    attempted, failed, notes = tally([untraced, timed, traced])
    metrics, context = layer_metrics(tracer, times, overhead, traced.out_bytes)
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "info": {
            "context": context,
            "nfe_mean": traced.check.nfe_mean,
            "digests": untraced.digests,
            "digests_match": untraced.digests == timed.digests == traced.digests,
            "trace_file": str(trace_path.relative_to(ROOT)),
            "notes": notes,
        },
    }


def versions() -> dict[str, str]:
    import platform

    import numpy
    import scipy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), required=True)
    parser.add_argument("--out-dir", type=Path, required=True)
    parser.add_argument("--trace-file", type=Path, required=True)
    args = parser.parse_args(argv)

    cli = import_cli()
    import_rss_mb = peak_rss_mb()

    workload = WORKLOADS[args.workload]
    args.out_dir.mkdir(parents=True, exist_ok=True)
    if args.trace:
        result = trace(cli, workload, args.seed, args.out_dir, args.size, args.trace_file)
    else:
        result = measure(cli, workload, args.seed, args.seconds, args.out_dir, args.size,
                         import_rss_mb)
    result["info"]["versions"] = versions()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
