"""Command-line harness: configured decoder runs, losslessness verification,
coupling statistics, and parameter sweeps.

All commands are driven by one YAML config plus dotted-path overrides; every
emitted file starts with a header row and carries the master seed and config
fingerprint, so paired-seed comparisons across couplers keep their
provenance.  Wall-clock timings go to stderr only: output files are
byte-identical across repeated runs of the same config and seed.

Exit codes: 0 success / all tests passed, 1 test failure, 2 configuration
error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import os
import secrets
import sys
import time
from typing import Callable, Iterable, Sequence, TextIO

import numpy as np

from .config import FIELDS, FORMAT_CHOICES, ExperimentConfig, build_config, load_config_file
from .decoder import CouplerKind, DecodeStats, decode_trials, trial_keys
from .errors import BudgetError, ConfigError
from .model import TabularModel, TargetSampler
from .oracle import TestReport, generate_pairs, pair_coupling, run_lossless_suite
from .rng import NORMAL_BOUND, RandomSource

EXIT_OK = 0
EXIT_TEST_FAILURE = 1
EXIT_CONFIG = 2
EXIT_IO = 3

SWEEP_AXES = {
    "L": "decode.window",
    "cfg_scale": "sampling.cfg_scale",
    "flatness": "model.flatness",
    "coupler": "decode.coupler",
}


def _add_fields(parser: argparse.ArgumentParser, *paths: str) -> argparse.ArgumentParser:
    """Give ``parser`` a hidden dotted-path override of each of ``paths``."""
    for path in paths:
        parser.add_argument(f"--{path}", dest=path, metavar="VALUE", help=argparse.SUPPRESS)
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specjac",
        description="Speculative Jacobi decoding experiments on enumerable toy models",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # each command takes overrides of just the config fields it reads; all
    # four read run.seed and output.path, whose aliases share their
    # destination, so the later one given wins
    common = _add_fields(argparse.ArgumentParser(add_help=False), "run.seed", "output.path")
    common.add_argument("--config", metavar="PATH", help="YAML experiment config")
    common.add_argument("--seed", dest="run.seed", metavar="SEED", type=int,
                        help="override run.seed")
    common.add_argument("--out", dest="output.path", metavar="PATH", help="override output.path")
    # all but coupling-stats read the target law, the decode and run.trials;
    # the coupler (verify-lossless runs every one) and the format (only
    # verify-lossless reads it) are added where they are read
    elsewhere = ("decode.coupler", "run.seed", "output.format", "output.path")
    law = [common, _add_fields(argparse.ArgumentParser(add_help=False),
                               *(path for path in FIELDS if path not in elsewhere))]

    _add_fields(sub.add_parser(
        "generate", parents=law, help="run configured decodes, emit per-trial rows"
    ), "decode.coupler").set_defaults(handler=cmd_generate)
    verify = _add_fields(sub.add_parser(
        "verify-lossless", parents=law,
        help="compare vanilla and all couplers to the exact sequence law",
    ), "output.format")
    verify.set_defaults(handler=cmd_verify_lossless)
    verify.add_argument("--format", dest="output.format", choices=FORMAT_CHOICES,
                        help="override output.format")

    stats = sub.add_parser(
        "coupling-stats", parents=[common], help="per-pair collision probabilities and bounds"
    )
    stats.set_defaults(handler=cmd_coupling_stats)
    stats.add_argument("--pairs", type=int, default=50, help="number of random pairs")
    stats.add_argument("--vocab", type=int, default=16, help="pair vocabulary size")
    stats.add_argument(
        "--trials", type=int, default=20000, help="Monte Carlo draws per pair"
    )
    stats.add_argument(
        "--sharpness-range",
        type=float,
        nargs=2,
        default=(0.25, 3.0),
        metavar=("LO", "HI"),
        help="logit sharpness range controlling the entropy regime",
    )

    sweep = sub.add_parser("sweep", parents=law, help="sweep one axis with paired seeds")
    _add_fields(sweep, "decode.coupler").set_defaults(handler=cmd_sweep)
    sweep.add_argument("--axis", required=True, choices=sorted(SWEEP_AXES))
    sweep.add_argument(
        "--values", required=True, nargs="+", help="axis values (space or comma separated)"
    )
    return parser


def resolve_config(args: argparse.Namespace) -> ExperimentConfig:
    data = load_config_file(args.config) if args.config else None
    given = {path: value for path, value in vars(args).items() if value is not None}
    return build_config(data, {path: given[path] for path in FIELDS if path in given})


# ---------------------------------------------------------------------------
# Output writers
# ---------------------------------------------------------------------------


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)  # shortest exact round-trip representation
    return str(value)


def _write(path: str | None, emit: Callable[[TextIO], None]) -> None:
    """Run ``emit`` on stdout, or on ``path`` all or nothing: a temporary
    file beside the (symlink-resolved) target replaces it once ``emit``
    returns, and is removed on an error, leaving the target as it was.
    A device or pipe cannot be replaced and is written in place."""
    if path is None:
        emit(sys.stdout)
        return
    target = os.path.realpath(path)
    if os.path.exists(target) and not os.path.isfile(target):
        with open(target, "w", encoding="utf-8", newline="") as handle:
            emit(handle)
        return
    # a name of this call's own, opened before the cleanup can remove it
    tmp = f"{target}.{os.getpid()}.{secrets.token_hex(4)}.tmp"
    handle = open(tmp, "x", encoding="utf-8", newline="")
    try:
        with handle:
            emit(handle)
        os.replace(tmp, target)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def write_csv(path: str | None, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    def emit(handle) -> None:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])

    _write(path, emit)


def write_reports(
    path: str | None,
    reports: Sequence[TestReport],
    master_seed: int,
    fingerprint: str,
    fmt: str,
) -> None:
    """Write one row per report, with the run's master seed and fingerprint:
    under one CSV header, or (``fmt`` ``report``) as one ``key=value`` line
    per column, ``name`` written as ``report``, and a blank line after each
    report."""
    header = (
        "name", "value", "threshold", "passed", "samples", "notes",
        "master_seed", "fingerprint",
    )
    rows = [
        (r.name, r.value, r.threshold, r.passed, r.samples, r.notes,
         master_seed, fingerprint)
        for r in reports
    ]
    if fmt == "csv":
        write_csv(path, header, rows)
        return

    def emit(handle) -> None:
        for row in rows:
            handle.writelines(f"{key}={_fmt(v)}\n" for key, v in zip(("report", *header[1:]), row))
            handle.write("\n")

    _write(path, emit)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _decode_all(config: ExperimentConfig, master: RandomSource) -> tuple[np.ndarray, DecodeStats]:
    """Decode every trial of ``config`` in one engine call, on the target law
    of its model and sampling sections, from the trial keys of ``master``."""
    decode = config.decode
    sampler = TargetSampler(TabularModel(config.model), config.sampling)
    coupler = None if decode.coupler == "vanilla" else CouplerKind(decode.coupler)
    return decode_trials(
        sampler,
        decode.length,
        trial_keys(master, config.run.trials),
        coupler,
        decode.window,
        decode.redraft,
    )


def _run_columns(config: ExperimentConfig) -> tuple:
    """The run columns of every generate and sweep row: fingerprint, master
    seed, coupler, window, cfg scale and flatness."""
    return (
        config.fingerprint(), config.run.seed, config.decode.coupler,
        config.decode.window, config.sampling.cfg_scale, config.model.flatness,
    )


def _aggregate(
    stats: DecodeStats, n: int, hammings: list, betas: list
) -> dict[str, float | None]:
    """Means over trials of length ``n``, given each trial's mean hamming and
    beta; trials without a hamming or beta value are skipped.  Every
    iteration is one model call, so a trial's iterations are its NFE and it
    finalizes n / NFE tokens per iteration."""

    def mean(values) -> float | None:
        values = [v for v in values if v is not None]
        return float(np.mean(values)) if values else None

    nfes = stats.nfe.astype(np.float64)
    return {
        "nfe": float(nfes.mean()),
        "nfe_std": float(nfes.std()),
        "accepted": float(np.mean(n / nfes)),
        "hamming": mean(hammings),
        "beta": mean(betas),
    }


GENERATE_HEADER = (
    "row", "fingerprint", "master_seed", "coupler", "window", "cfg_scale",
    "flatness", "trials", "nfe", "nfe_std", "iterations",
    "accepted_per_iteration", "mean_hamming", "mean_beta", "sequence",
)


def cmd_generate(config: ExperimentConfig, args: argparse.Namespace) -> int:
    run = _run_columns(config)
    started = time.perf_counter()

    rows = []
    sequences, stats = _decode_all(config, RandomSource(config.run.seed))
    finalized, ends = stats.finalized.tolist(), np.cumsum(stats.nfe).tolist()
    hammings, betas = stats.mean_hamming(), stats.mean_beta()
    trials = zip(sequences.tolist(), stats.nfe.tolist(), ends, hammings, betas)
    for k, (sequence, nfe, end, hamming, beta) in enumerate(trials):
        rows.append((
            f"trial-{k:06d}", *run, 1, nfe, None, nfe,
            "|".join(str(c) for c in finalized[end - nfe : end]),
            hamming, beta,
            " ".join(str(t) for t in sequence),
        ))

    agg = _aggregate(stats, config.decode.length, hammings, betas)
    rows.append((
        "aggregate", *run, config.run.trials, agg["nfe"], agg["nfe_std"], agg["nfe"],
        agg["accepted"], agg["hamming"], agg["beta"], None,
    ))
    write_csv(config.output.path, GENERATE_HEADER, rows)
    elapsed = time.perf_counter() - started
    print(
        f"generate: {config.run.trials} trials, mean nfe {agg['nfe']:.3f}, "
        f"wall {elapsed:.2f}s (timing not written to output)",
        file=sys.stderr,
    )
    return EXIT_OK


def cmd_verify_lossless(config: ExperimentConfig, args: argparse.Namespace) -> int:
    started = time.perf_counter()
    reports = run_lossless_suite(
        TargetSampler(TabularModel(config.model), config.sampling),
        config.decode.length,
        config.decode.window,
        config.run.trials,
        RandomSource(config.run.seed).derive("lossless"),
        conventions=(config.decode.redraft,),
    )
    threshold = reports[0].threshold  # the TV gate's, shared by every variant
    if threshold >= 1.0:
        raise ConfigError(f"run.trials: {config.run.trials} is too few to test: the TV "
                          f"threshold {threshold:.3f} is not below 1, the largest TV")
    write_reports(
        config.output.path, reports, config.run.seed, config.fingerprint(),
        config.output.format,
    )
    passed = sum(1 for r in reports if r.passed)
    elapsed = time.perf_counter() - started
    verdict = "PASS" if passed == len(reports) else "FAIL"
    print(
        f"verify-lossless: {verdict} ({passed}/{len(reports)} reports passed, "
        f"wall {elapsed:.2f}s)",
        file=sys.stderr,
    )
    return EXIT_OK if passed == len(reports) else EXIT_TEST_FAILURE


COUPLING_HEADER = (
    "pair", "vocab", "master_seed", "trials", "tv",
    "independent_analytic", "independent_empirical", "maximal_cost",
    "gumbel_empirical", "gumbel_lower_bound", "renyi2_bound",
)


def cmd_coupling_stats(config: ExperimentConfig, args: argparse.Namespace) -> int:
    for flag, value, floor in (("--vocab", args.vocab, 2), ("--pairs", args.pairs, 1),
                               ("--trials", args.trials, 1)):
        if value < floor:
            raise ConfigError(f"{flag}: must be >= {floor}")
    # the logit spread softmax subtracts; 1.55 bounds generate_pairs' closeness
    spread = 2.0 * (float(np.abs(args.sharpness_range).max()) + 1.55) * NORMAL_BOUND
    if not np.isfinite(spread):
        raise ConfigError("--sharpness-range: the logit spread 2 * (max(|LO|, |HI|) + 1.55) * "
                          f"{NORMAL_BOUND:.2f} is not finite")
    seed = config.run.seed
    master = RandomSource(seed)
    pairs = generate_pairs(
        args.vocab, args.pairs, master.derive("pairs"),
        sharpness_range=tuple(args.sharpness_range),
    )
    rows = [
        (i, args.vocab, seed, args.trials,
         *pair_coupling(p, q, args.trials, master.derive("estimate", i)))
        for i, (p, q) in enumerate(pairs)
    ]
    write_csv(config.output.path, COUPLING_HEADER, rows)
    return EXIT_OK


SWEEP_HEADER = (
    "axis", "value", "fingerprint", "master_seed", "coupler", "window",
    "cfg_scale", "flatness", "trials", "nfe_mean", "nfe_std",
    "accepted_per_iteration_mean", "mean_hamming", "mean_beta",
)


def cmd_sweep(config: ExperimentConfig, args: argparse.Namespace) -> int:
    path = SWEEP_AXES[args.axis]
    if getattr(args, path) is not None:
        raise ConfigError(f"{path}: set by --axis {args.axis}; give its values with --values")
    section, key = path.split(".")
    tokens = [token for chunk in args.values for token in chunk.split(",") if token]
    if not tokens:
        raise ConfigError("sweep.values: at least one value required")
    # every point passes the config schema before the first decode
    points = [config.replace_field(path, token) for token in tokens]
    master = RandomSource(config.run.seed)
    rows = []
    for varied in points:
        # the k-th trial shares its master key across every sweep value
        stats = _decode_all(varied, master)[1]
        agg = _aggregate(stats, varied.decode.length, stats.mean_hamming(), stats.mean_beta())
        rows.append((
            args.axis, getattr(getattr(varied, section), key), *_run_columns(varied),
            varied.run.trials,
            agg["nfe"], agg["nfe_std"], agg["accepted"], agg["hamming"], agg["beta"],
        ))
    write_csv(config.output.path, SWEEP_HEADER, rows)
    return EXIT_OK


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # each subparser binds its command's handler
        return args.handler(resolve_config(args), args)
    except (ConfigError, BudgetError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


def entrypoint() -> None:  # console-script shim
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
