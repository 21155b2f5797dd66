"""The four benchmark workloads: the CLI commands of one round and the checks
on their outputs.

A round is the unit the closed loop repeats: one ``verify-lossless``, three
``generate`` calls, one ``coupling-stats`` or one ``sweep``.  Every command
of a round is derived from the workload seed and the round's index alone, so
the same seed gives the same inputs.  The checks count operations (a gate
report, a CSV row, a coupling pair, an ordering claim) and the ones that
failed; they never compare against stored bytes.

A workload with ``fresh_inputs`` gives every round its own seed, so a run
averages over many inputs; its checks are exact, so more inputs cannot make
an honest program fail.  The others repeat the workload seed in every round,
because their checks are statistical: each new input is another chance of a
false alarm.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path
from statistics import NormalDist, fmean, pstdev

import yaml

DESK_CONFIG = "configs/desk.yaml"
FLAT_CONFIG = "benchmarks/configs/flat.yaml"
SWEEP_CONFIG = "benchmarks/configs/sweep.yaml"

SJD_COUPLERS = ("independent", "maximal", "gumbel")
SWEEP_VALUES = (0.5, 1.0, 2.0, 4.0)

# Family-wise false-alarm rate of the coupling-pairs checks per round.  A
# fixed 3-sigma band flags 0.27 % of honest checks, which over three checks
# on each of 16 pairs and the many seeds of a benchmark campaign fails
# correct code; the band is widened by Bonferroni over the statistical
# checks of one round instead.
COUPLING_FAMILY_ALPHA = 1e-4


@dataclass(frozen=True)
class Command:
    label: str
    argv: tuple[str, ...]
    out: Path


@dataclass
class Check:
    """Outcome of checking one round: operations attempted and failed."""

    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)
    nfe_mean: dict[str, float] = field(default_factory=dict)

    def expect(self, ok: bool, note: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(note)


def _read_rows(path: Path) -> list[dict[str, str]]:
    if not path.exists():
        return []
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


def round_seed(workload, seed: int, index: int) -> int:
    """CLI seed of round ``index`` of a run with workload seed ``seed``."""
    return (seed << 20) + index if workload.fresh_inputs else seed


class DeskLossless:
    name = "desk-lossless"
    fresh_inputs = False
    sizes = {"full": 1000, "tiny": 300}
    reports = tuple(
        f"lossless.{kind}.{c}" for c in ("vanilla",) + SJD_COUPLERS for kind in ("tv", "gof")
    )

    def commands(self, seed: int, out_dir: Path, size: str) -> list[Command]:
        out = out_dir / f"{self.name}.csv"
        argv = (
            "verify-lossless", "--config", DESK_CONFIG, "--seed", str(seed),
            "--run.trials", str(self.sizes[size]), "--out", str(out),
        )
        return [Command("verify-lossless", argv, out)]

    def trials(self, size: str) -> int:
        # vanilla plus three couplers, each decoding run.trials sequences
        return 4 * self.sizes[size]

    def check(self, commands: list[Command], size: str) -> Check:
        check = Check()
        by_name = {row["name"]: row for row in _read_rows(commands[0].out)}
        for name in self.reports:
            row = by_name.get(name)
            check.expect(row is not None and row["passed"] == "true",
                         f"gate report {name}: {row['value'] if row else 'missing'}")
        return check


class FlatGenerate:
    name = "flat-generate"
    fresh_inputs = False
    sizes = {"full": 100, "tiny": 20}

    def commands(self, seed: int, out_dir: Path, size: str) -> list[Command]:
        cmds = []
        for coupler in SJD_COUPLERS:
            out = out_dir / f"{self.name}-{coupler}.csv"
            argv = (
                "generate", "--config", FLAT_CONFIG, "--seed", str(seed),
                "--run.trials", str(self.sizes[size]), "--decode.coupler", coupler,
                "--out", str(out),
            )
            cmds.append(Command(coupler, argv, out))
        return cmds

    def trials(self, size: str) -> int:
        return len(SJD_COUPLERS) * self.sizes[size]

    def check(self, commands: list[Command], size: str) -> Check:
        with open(FLAT_CONFIG, encoding="utf-8") as handle:
            cfg = yaml.safe_load(handle)
        vocab = cfg["model"]["vocab_size"]
        length = cfg["decode"]["length"]
        trials = self.sizes[size]
        check = Check()
        for cmd in commands:
            rows = _read_rows(cmd.out)
            per_trial = [r for r in rows if r["row"].startswith("trial-")]
            aggregates = [r for r in rows if r["row"] == "aggregate"]
            nfes, iterations = [], []
            for k in range(trials):
                row = per_trial[k] if k < len(per_trial) else None
                ok = row is not None and self._trial_ok(row, cmd.label, vocab, length)
                check.expect(ok, f"{cmd.label} trial row {k} malformed or missing")
                if ok:
                    nfes.append(int(row["nfe"]))
                    iterations.append(int(row["iterations"]))
            check.expect(len(per_trial) == trials and len(aggregates) == 1,
                         f"{cmd.label}: {len(per_trial)} trial rows, {len(aggregates)} aggregates")
            agg = aggregates[0] if aggregates else None
            agrees = (
                agg is not None and len(nfes) == trials
                and int(agg["trials"]) == trials
                and _close(float(agg["nfe"]), fmean(nfes))
                and _close(float(agg["nfe_std"]), pstdev(nfes))
                and _close(float(agg["iterations"]), fmean(iterations))
            )
            check.expect(agrees, f"{cmd.label}: aggregate row disagrees with trial rows")
            if agg is not None:
                check.nfe_mean[cmd.label] = float(agg["nfe"])
        nfe = check.nfe_mean
        for coupler in ("maximal", "gumbel"):
            ok = coupler in nfe and "independent" in nfe and nfe[coupler] < nfe["independent"]
            check.expect(ok, f"nfe_mean.{coupler} < nfe_mean.independent does not hold: {nfe}")
        return check

    @staticmethod
    def _trial_ok(row: dict[str, str], coupler: str, vocab: int, length: int) -> bool:
        try:
            tokens = [int(t) for t in row["sequence"].split()]
            nfe = int(row["nfe"])
            int(row["iterations"])
        except ValueError:
            return False
        return (
            row["coupler"] == coupler
            and row["trials"] == "1"
            and len(tokens) == length
            and all(0 <= t < vocab for t in tokens)
            and 1 <= nfe <= length
        )


class CouplingPairs:
    name = "coupling-pairs"
    fresh_inputs = False
    sizes = {"full": (16, 5000), "tiny": (4, 2000)}
    vocab = 64

    def commands(self, seed: int, out_dir: Path, size: str) -> list[Command]:
        pairs, draws = self.sizes[size]
        out = out_dir / f"{self.name}.csv"
        argv = (
            "coupling-stats", "--vocab", str(self.vocab), "--pairs", str(pairs),
            "--trials", str(draws), "--seed", str(seed), "--out", str(out),
        )
        return [Command("coupling-stats", argv, out)]

    def trials(self, size: str) -> int:
        # a trial here is one Monte Carlo draw of a pair (the CLI's --trials)
        pairs, draws = self.sizes[size]
        return pairs * draws

    def check(self, commands: list[Command], size: str) -> Check:
        pairs, draws = self.sizes[size]
        # three statistical checks per pair share the family-wise rate
        z = NormalDist().inv_cdf(1.0 - COUPLING_FAMILY_ALPHA / (2 * 3 * pairs))
        rows = _read_rows(commands[0].out)
        check = Check()
        for i in range(pairs):
            row = rows[i] if i < len(rows) else None
            check.expect(row is not None and self._pair_ok(row, i, draws, z),
                         f"pair {i} breaks a coupling bound or is missing")
        check.expect(len(rows) == pairs, f"{len(rows)} pair rows, expected {pairs}")
        return check

    def _pair_ok(self, row: dict[str, str], index: int, draws: int, z: float) -> bool:
        tv = float(row["tv"])
        analytic = float(row["independent_analytic"])
        independent = float(row["independent_empirical"])
        gumbel = float(row["gumbel_empirical"])
        upper = 1.0 - tv
        lower = upper / (1.0 + tv)

        def sigma(p: float) -> float:
            return math.sqrt(p * (1.0 - p) / draws)

        return (
            int(row["pair"]) == index
            and int(row["vocab"]) == self.vocab
            and int(row["trials"]) == draws
            and _close(float(row["maximal_cost"]), upper)
            and _close(float(row["gumbel_lower_bound"]), lower)
            and gumbel >= lower - z * sigma(lower) - 1e-12
            and gumbel <= upper + z * sigma(upper) + 1e-12
            and abs(independent - analytic) <= z * sigma(analytic) + 1e-12
            and analytic <= float(row["renyi2_bound"]) + 1e-12
        )


class EntropySweep:
    name = "entropy-sweep"
    fresh_inputs = True
    sizes = {"full": 4, "tiny": 1}

    def commands(self, seed: int, out_dir: Path, size: str) -> list[Command]:
        out = out_dir / f"{self.name}.csv"
        argv = (
            "sweep", "--config", SWEEP_CONFIG, "--seed", str(seed),
            "--run.trials", str(self.sizes[size]), "--axis", "flatness",
            "--values", ",".join(str(v) for v in SWEEP_VALUES), "--out", str(out),
        )
        return [Command("sweep", argv, out)]

    def trials(self, size: str) -> int:
        return len(SWEEP_VALUES) * self.sizes[size]

    def check(self, commands: list[Command], size: str) -> Check:
        with open(SWEEP_CONFIG, encoding="utf-8") as handle:
            cfg = yaml.safe_load(handle)
        length = cfg["decode"]["length"]
        window = cfg["decode"]["window"]
        rows = _read_rows(commands[0].out)
        check = Check()
        for i, value in enumerate(SWEEP_VALUES):
            row = rows[i] if i < len(rows) else None
            ok = row is not None and self._row_ok(row, value, self.sizes[size], length, window)
            check.expect(ok, f"sweep row {i} (flatness {value}) malformed or missing")
            if ok:
                check.nfe_mean[f"maximal@flatness={value}"] = float(row["nfe_mean"])
        check.expect(len(rows) == len(SWEEP_VALUES), f"{len(rows)} sweep rows")
        if len(check.nfe_mean) == len(SWEEP_VALUES):
            check.nfe_mean["maximal"] = fmean(check.nfe_mean.values())
        return check

    @staticmethod
    def _row_ok(row: dict[str, str], value: float, trials: int, length: int, window: int) -> bool:
        try:
            nfe_mean = float(row["nfe_mean"])
            nfe_std = float(row["nfe_std"])
            per_iteration = float(row["accepted_per_iteration_mean"])
        except ValueError:
            return False
        return (
            row["axis"] == "flatness"
            and float(row["value"]) == value
            and row["coupler"] == "maximal"
            and int(row["trials"]) == trials
            and 1.0 <= nfe_mean <= length
            and nfe_std >= 0.0
            and 0.0 < per_iteration <= window
        )


WORKLOADS = {w.name: w for w in (DeskLossless(), FlatGenerate(), CouplingPairs(), EntropySweep())}
