"""Self-tests of the benchmark harness.

    python3 -m pytest benchmarks -q

They run every workload at tiny size, traced and untraced, and check that
the benchmark reports what BENCHMARK.json promises, that its output checks
pass on this program, and that they fail on a known defect.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import worker
from spans import TARGETS, Tracer, _bindings
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def tiny_result(name: str, trace: int) -> tuple[dict, list[str]]:
    proc = run_bench("--workload", name, "--seed", "1", "--seconds", "0",
                     "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def assert_reports(result: dict, lines: list[str], declared: dict[str, str]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    printed = {line.split()[1]: line.split()[3] for line in lines[1:] if len(line.split()) >= 4}
    for metric, unit in declared.items():
        assert printed.get(metric) == unit, f"{metric} not printed with unit {unit}"
    assert result["attempted"] > 0
    assert result["failed"] == 0, lines
    assert result["correct"] is True


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_untraced_run_reports_every_end_to_end_metric(name):
    result, lines = tiny_result(name, trace=0)
    assert_reports(result, lines, {m["name"]: m["unit"] for m in SPEC["end_to_end"]})
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert any(line.split()[1:2] == ["failed_frac"] for line in lines)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_reports_every_layer_metric_with_unchanged_outputs(name):
    # failed == 0 includes: the traced round's output digests equal the
    # untraced round's
    result, lines = tiny_result(name, trace=1)
    assert_reports(result, lines, {m["name"]: m["unit"] for m in SPEC["per_layer"]})


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_tracer_patches_every_binding_and_restores_it():
    worker.import_cli()
    import specjac.decoder
    import specjac.oracle

    bindings = [b for _, module, qualname, _ in TARGETS for b in _bindings(module, qualname)]
    originals = [getattr(owner, attr) for owner, attr in bindings]
    assert (specjac.decoder, "mrs") in bindings
    assert (specjac.oracle, "tv_distance") in bindings
    with Tracer():
        assert all(getattr(o, a) is not f for (o, a), f in zip(bindings, originals))
    assert all(getattr(o, a) is f for (o, a), f in zip(bindings, originals))


def test_skipped_residual_draw_makes_desk_lossless_fail(monkeypatch, tmp_path):
    """The mutation of acceptance criterion 11 must drive failed_frac above 0."""
    cli = worker.import_cli()
    import specjac.decoder as decoder_mod
    from specjac.couplers import MrsOutcome, mrs

    def broken_mrs(p, q, x, rng):
        out = mrs(p, q, x, rng)
        return out if out.accepted else MrsOutcome(False, x)

    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(decoder_mod, "mrs", broken_mrs)
    # full size: at the tiny size the gate pools almost every cell and has no power
    check = worker.run_round(cli, WORKLOADS["desk-lossless"], 1, tmp_path, "full").check
    assert 0 < check.failed < check.attempted, check.notes


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "desk-lossless", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
