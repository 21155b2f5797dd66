"""Golden outputs: the four determinism commands must reproduce stored bytes.

The files under ``tests/golden/`` were written by ``main(argv + ["--out",
path])`` for each command below (the same argv as acceptance criterion 10).
A refactor that keeps behaviour keeps every draw, stream key, float format
and CSV column, so these bytes must not move.  Regenerate a golden file
only with a change that states and justifies its new stream layout.
"""

from pathlib import Path

import pytest

from specjac.cli import EXIT_OK, main

GOLDEN = Path(__file__).parent / "golden"

COMMANDS = {
    "generate.csv": ["generate", "--run.trials", "25", "--decode.coupler", "gumbel"],
    "verify-lossless.csv": [
        "verify-lossless", "--model.vocab_size", "3", "--decode.length", "3",
        "--decode.window", "2", "--run.trials", "3000",
    ],
    "coupling-stats.csv": ["coupling-stats", "--pairs", "6", "--trials", "5000"],
    "sweep.csv": ["sweep", "--axis", "L", "--values", "2,4", "--run.trials", "20"],
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_output_matches_golden(name, tmp_path):
    out = tmp_path / name
    assert main(COMMANDS[name] + ["--out", str(out)]) == EXIT_OK
    assert out.read_bytes() == (GOLDEN / name).read_bytes()
