"""README.md: its library example runs as written, and its config claims hold."""

import re
from pathlib import Path

from specjac.config import build_config, load_config_file

ROOT = Path(__file__).resolve().parents[1]


def test_library_example_runs(capsys):
    # the python blocks continue one another, so they share one namespace
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert len(blocks) == 2
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
    assert capsys.readouterr().out == "8 model calls for 64 tokens\n"
    assert namespace["tokens"].shape == (1000, 64)
    assert namespace["exact"].shape == (4**5,)
    assert namespace["mass"].shape == (1,)


def test_desk_config_spells_out_the_defaults():
    assert build_config(load_config_file(str(ROOT / "configs" / "desk.yaml"))) == build_config()
