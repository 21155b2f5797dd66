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
import sys
import time
from typing import Any, Callable, Iterable, Sequence, TextIO

import numpy as np

from .config import (
    FIELDS,
    FORMAT_CHOICES,
    ExperimentConfig,
    build_config,
    convert,
    load_config_file,
)
from .decoder import CouplerKind, DecodeStats, decode_trials, trial_keys
from .errors import BudgetError, ConfigError
from .model import TabularModel, TargetSampler
from .oracle import TestReport, generate_pairs, pair_coupling, run_lossless_suite
from .rng import RandomSource

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


def _add_common_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="PATH", help="YAML experiment config")
    parser.add_argument("--seed", type=int, help="override run.seed")
    parser.add_argument("--out", metavar="PATH", help="override output.path")
    parser.add_argument("--format", choices=FORMAT_CHOICES, help="override output.format")
    for path in FIELDS:
        parser.add_argument(f"--{path}", dest=path, metavar="VALUE", help=argparse.SUPPRESS)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specjac",
        description="Speculative Jacobi decoding experiments on enumerable toy models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="run configured decodes, emit per-trial rows")
    _add_common_arguments(gen)

    ver = sub.add_parser(
        "verify-lossless",
        help="compare vanilla and all couplers to the exact sequence law",
    )
    _add_common_arguments(ver)

    stats = sub.add_parser(
        "coupling-stats", help="per-pair collision probabilities and bounds"
    )
    _add_common_arguments(stats)
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

    sweep = sub.add_parser("sweep", help="sweep one axis with paired seeds")
    _add_common_arguments(sweep)
    sweep.add_argument("--axis", required=True, choices=sorted(SWEEP_AXES))
    sweep.add_argument(
        "--values", required=True, nargs="+", help="axis values (space or comma separated)"
    )
    return parser


def resolve_config(args: argparse.Namespace) -> ExperimentConfig:
    data = load_config_file(args.config) if args.config else None
    overrides: dict[str, Any] = {}
    arg_map = vars(args)
    for path in FIELDS:
        value = arg_map.get(path)
        if value is not None:
            overrides[path] = value
    if args.seed is not None:
        overrides["run.seed"] = args.seed
    if args.out is not None:
        overrides["output.path"] = args.out
    if args.format is not None:
        overrides["output.format"] = args.format
    return build_config(data, overrides)


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
    tmp = f"{target}.{os.getpid()}.tmp"
    try:
        with open(tmp, "x", encoding="utf-8", newline="") as handle:
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
    if fmt == "csv":
        header = (
            "name", "value", "threshold", "passed", "samples", "notes",
            "master_seed", "fingerprint",
        )
        rows = [
            (r.name, r.value, r.threshold, r.passed, r.samples, r.notes,
             master_seed, fingerprint)
            for r in reports
        ]
        write_csv(path, header, rows)
        return

    def emit(handle) -> None:
        for report in reports:
            handle.write(f"report={report.name}\n")
            handle.write(f"value={_fmt(report.value)}\n")
            handle.write(f"threshold={_fmt(report.threshold)}\n")
            handle.write(f"passed={_fmt(report.passed)}\n")
            handle.write(f"samples={report.samples}\n")
            handle.write(f"notes={report.notes}\n")
            handle.write(f"master_seed={master_seed}\n")
            handle.write(f"fingerprint={fingerprint}\n")
            handle.write("\n")

    _write(path, emit)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _decode_all(
    config: ExperimentConfig, sampler: TargetSampler, master: RandomSource
) -> tuple[np.ndarray, DecodeStats]:
    """Decode every trial of ``config`` in one engine call."""
    decode = config.decode
    coupler = None if decode.coupler == "vanilla" else CouplerKind(decode.coupler)
    return decode_trials(
        sampler,
        decode.length,
        trial_keys(master, config.run.trials),
        coupler,
        decode.window,
        decode.redraft,
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
        "iterations": float(nfes.mean()),
        "accepted": float(np.mean(n / nfes)),
        "hamming": mean(hammings),
        "beta": mean(betas),
    }


GENERATE_HEADER = (
    "row", "fingerprint", "master_seed", "coupler", "window", "cfg_scale",
    "flatness", "trials", "nfe", "nfe_std", "iterations",
    "accepted_per_iteration", "mean_hamming", "mean_beta", "sequence",
)


def cmd_generate(config: ExperimentConfig) -> int:
    model = TabularModel(config.model)
    sampler = TargetSampler(model, config.sampling)
    master = RandomSource(config.run.seed)
    fingerprint = config.fingerprint()
    started = time.perf_counter()

    rows = []
    sequences, stats = _decode_all(config, sampler, master)
    finalized, ends = stats.finalized.tolist(), np.cumsum(stats.nfe).tolist()
    hammings, betas = stats.mean_hamming(), stats.mean_beta()
    trials = zip(sequences.tolist(), stats.nfe.tolist(), ends, hammings, betas)
    for k, (sequence, nfe, end, hamming, beta) in enumerate(trials):
        rows.append((
            f"trial-{k:06d}", fingerprint, config.run.seed, config.decode.coupler,
            config.decode.window, config.sampling.cfg_scale, config.model.flatness,
            1, nfe, None, nfe,
            "|".join(str(c) for c in finalized[end - nfe : end]),
            hamming, beta,
            " ".join(str(t) for t in sequence),
        ))

    agg = _aggregate(stats, config.decode.length, hammings, betas)
    rows.append((
        "aggregate", fingerprint, config.run.seed, config.decode.coupler,
        config.decode.window, config.sampling.cfg_scale, config.model.flatness,
        config.run.trials, agg["nfe"], agg["nfe_std"], agg["iterations"],
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


def cmd_verify_lossless(config: ExperimentConfig) -> int:
    model = TabularModel(config.model)
    started = time.perf_counter()
    reports = run_lossless_suite(
        model,
        config.sampling,
        config.decode.length,
        config.decode.window,
        config.run.trials,
        RandomSource(config.run.seed).derive("lossless"),
        conventions=(config.decode.redraft,),
    )
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
    if not np.isfinite(args.sharpness_range).all():
        raise ConfigError("--sharpness-range: LO and HI must be finite")
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


def _parse_axis_values(axis: str, raw_values: Sequence[str]) -> list:
    tokens: list[str] = []
    for chunk in raw_values:
        tokens.extend(t for t in chunk.split(",") if t)
    if not tokens:
        raise ConfigError("sweep.values: at least one value required")
    try:
        return [convert(SWEEP_AXES[axis], t) for t in tokens]
    except ValueError as exc:
        raise ConfigError(f"sweep.values: {exc}") from exc


def cmd_sweep(config: ExperimentConfig, args: argparse.Namespace) -> int:
    path = SWEEP_AXES[args.axis]
    values = _parse_axis_values(args.axis, args.values)
    master = RandomSource(config.run.seed)
    rows = []
    for value in values:
        varied = config.replace_field(path, value)
        model = TabularModel(varied.model)
        sampler = TargetSampler(model, varied.sampling)
        # the k-th trial shares its master key across every sweep value
        stats = _decode_all(varied, sampler, master)[1]
        agg = _aggregate(stats, varied.decode.length, stats.mean_hamming(), stats.mean_beta())
        rows.append((
            args.axis, value, varied.fingerprint(), varied.run.seed,
            varied.decode.coupler, varied.decode.window,
            varied.sampling.cfg_scale, varied.model.flatness, varied.run.trials,
            agg["nfe"], agg["nfe_std"], agg["accepted"], agg["hamming"], agg["beta"],
        ))
    write_csv(config.output.path, SWEEP_HEADER, rows)
    return EXIT_OK


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = resolve_config(args)
        if args.command == "generate":
            return cmd_generate(config)
        if args.command == "verify-lossless":
            return cmd_verify_lossless(config)
        if args.command == "coupling-stats":
            return cmd_coupling_stats(config, args)
        if args.command == "sweep":
            return cmd_sweep(config, args)
        raise ConfigError(f"unknown command {args.command!r}")
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
