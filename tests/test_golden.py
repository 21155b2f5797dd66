"""Golden outputs: fixed commands must reproduce stored bytes.

The files under ``tests/golden/`` were written by ``main(argv + ["--out",
path])`` for each command below.  The first four are the argv of acceptance
criterion 10.  The others cover what those miss: per-trial rows at V=16
(the flat regime of ``benchmarks/configs/flat.yaml``, spelled out as
overrides), the redraft rejection convention, guided and top-k truncated
target laws (zero-probability tokens), and a V=64 order-3 flatness sweep.
A refactor that keeps behaviour keeps every draw, stream key, float format
and CSV column, so these bytes must not move.  Regenerate a golden file
only with a change that states and justifies its new stream layout.
"""

from pathlib import Path

import pytest

from specjac.cli import EXIT_OK, main

GOLDEN = Path(__file__).parent / "golden"

FLAT = [
    "--model.vocab_size", "16", "--model.context_order", "2", "--model.flatness", "4.0",
    "--model.seed", "5", "--decode.length", "64", "--decode.window", "16",
]
GUIDED = ["--sampling.cfg_scale", "1.5", "--sampling.top_k", "3", "--run.trials", "25"]

COMMANDS = {
    "generate.csv": ["generate", "--run.trials", "25", "--decode.coupler", "gumbel"],
    "verify-lossless.csv": [
        "verify-lossless", "--model.vocab_size", "3", "--decode.length", "3",
        "--decode.window", "2", "--run.trials", "3000",
    ],
    "coupling-stats.csv": ["coupling-stats", "--pairs", "6", "--trials", "5000"],
    "sweep.csv": ["sweep", "--axis", "L", "--values", "2,4", "--run.trials", "20"],
    "generate-flat-independent.csv": [
        "generate", *FLAT, "--run.trials", "10", "--decode.coupler", "independent",
    ],
    "generate-flat-maximal.csv": [
        "generate", *FLAT, "--run.trials", "10", "--decode.coupler", "maximal",
    ],
    "verify-lossless-redraft.csv": [
        "verify-lossless", "--model.vocab_size", "3", "--decode.length", "3",
        "--decode.window", "2", "--decode.redraft", "true", "--run.trials", "1500",
    ],
    "generate-guided-maximal.csv": ["generate", *GUIDED, "--decode.coupler", "maximal"],
    "generate-guided-gumbel.csv": ["generate", *GUIDED, "--decode.coupler", "gumbel"],
    "sweep-flatness-v64.csv": [
        "sweep", "--model.vocab_size", "64", "--model.context_order", "3",
        "--decode.length", "64", "--decode.window", "16", "--decode.coupler", "maximal",
        "--axis", "flatness", "--values", "0.5,4", "--run.trials", "2",
    ],
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_output_matches_golden(name, tmp_path):
    out = tmp_path / name
    assert main(COMMANDS[name] + ["--out", str(out)]) == EXIT_OK
    assert out.read_bytes() == (GOLDEN / name).read_bytes()
