"""Golden outputs: fixed commands must reproduce stored bytes.

The files under ``tests/golden/`` were written by ``main(argv + ["--out",
path])`` for each command below.  The first four are the argv of acceptance
criterion 10.  The others cover what those miss: per-trial rows at V=16
(the flat regime of ``benchmarks/configs/flat.yaml``, spelled out as
overrides; under ``gumbel`` its slots live through many window shifts,
each keeping its position's noise), the redraft rejection convention, guided and top-k truncated
target laws (zero-probability tokens), a V=64 order-3 flatness sweep, a
nucleus (top-p) law at temperature 0.7 under guidance (also under the
redraft convention, so maximal redraft residuals meet masked rows), an
order-0 model (one context, the same law at every position), an order-1
model (a context is the last token alone), an order longer than the
sequence (every context still holds BOS), a window wider than the
sequence under the redraft convention (BOS digits inside the window), the
``report`` format of the first verify-lossless argv, and a coupler sweep on
a V=16 model (each row's fingerprint and coupler columns vary).
A refactor that keeps behaviour keeps every draw, stream key, float format
and CSV column, so these bytes must not move.  Regenerate a golden file
only with a change that states and justifies its new stream layout.
"""

from pathlib import Path

import pytest

from specjac.cli import EXIT_OK, main

GOLDEN = Path(__file__).parent / "golden"
DESK = ["--config", str(Path(__file__).resolve().parents[1] / "configs" / "desk.yaml")]

FLAT = [
    "--model.vocab_size", "16", "--model.context_order", "2", "--model.flatness", "4.0",
    "--model.seed", "5", "--decode.length", "64", "--decode.window", "16",
]
NUCLEUS = [
    "--sampling.top_p", "0.9", "--sampling.temperature", "0.7", "--sampling.cfg_scale", "1.5",
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
    "generate-flat-gumbel.csv": [
        "generate", *FLAT, "--run.trials", "10", "--decode.coupler", "gumbel",
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
    "generate-flat-nucleus.csv": [
        "generate", *FLAT, *NUCLEUS, "--run.trials", "10", "--decode.coupler", "maximal",
    ],
    "generate-flat-nucleus-redraft.csv": [
        "generate", *FLAT, *NUCLEUS, "--run.trials", "10", "--decode.coupler", "maximal",
        "--decode.redraft", "true",
    ],
    "generate-order0.csv": [
        "generate", "--model.context_order", "0", "--model.vocab_size", "8",
        "--decode.coupler", "independent", "--run.trials", "25",
    ],
    "generate-order1-maximal.csv": [
        "generate", "--model.context_order", "1", "--model.vocab_size", "5",
        "--decode.coupler", "maximal", "--run.trials", "30",
    ],
    "verify-lossless-order5.csv": [
        "verify-lossless", "--model.context_order", "5", "--model.vocab_size", "3",
        "--decode.length", "3", "--decode.window", "2", "--run.trials", "2000",
    ],
    "verify-lossless-desk.csv": ["verify-lossless", *DESK, "--run.trials", "2000"],
    "verify-lossless-desk-top-k.csv": [
        "verify-lossless", *DESK, "--sampling.top_k", "3", "--run.trials", "2000",
    ],
    "verify-lossless-desk-pooled.csv": ["verify-lossless", *DESK, "--run.trials", "300"],
    "verify-lossless.report": [
        "verify-lossless", "--model.vocab_size", "3", "--decode.length", "3",
        "--decode.window", "2", "--run.trials", "3000", "--format", "report",
    ],
    "sweep-coupler-v16.csv": [
        "sweep", "--model.vocab_size", "16", "--model.flatness", "2.0", "--decode.length", "12",
        "--decode.window", "4", "--axis", "coupler",
        "--values", "vanilla,independent,maximal,gumbel", "--run.trials", "10",
    ],
    "generate-wide-window-redraft.csv": [
        "generate", "--model.vocab_size", "5", "--model.context_order", "3",
        "--decode.length", "6", "--decode.window", "8", "--decode.coupler", "gumbel",
        "--decode.redraft", "true", "--run.trials", "40",
    ],
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_output_matches_golden(name, tmp_path):
    out = tmp_path / name
    assert main(COMMANDS[name] + ["--out", str(out)]) == EXIT_OK
    assert out.read_bytes() == (GOLDEN / name).read_bytes()
