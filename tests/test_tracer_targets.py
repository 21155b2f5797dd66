"""The benchmark tracer's targets exist in the package.

``benchmarks/spans.py`` wraps specjac functions by name (``TARGETS``).  A
rename or removal under ``src/`` breaks every traced benchmark run, so each
name must still resolve to a callable.  The tracer module is loaded from its
file and only read.  The benchmark's own tests also require two re-exports,
which a refactor under ``src/`` could drop unseen by this suite otherwise.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "benchmarks" / "spans.py"


def _targets():
    spec = importlib.util.spec_from_file_location("_bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TARGETS


@pytest.mark.parametrize("module, qualname", [(m, q) for _, m, q, _ in _targets()])
def test_tracer_target_resolves(module, qualname):
    owner = importlib.import_module(module)
    for part in qualname.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


def test_benchmark_bindings_exist():
    # the benchmark's mutant patches ``decoder.mrs``; its tracer must find
    # ``tv_distance`` bound in ``oracle``
    import specjac.couplers
    import specjac.decoder
    import specjac.oracle
    import specjac.prob

    assert specjac.decoder.mrs is specjac.couplers.mrs
    assert specjac.oracle.tv_distance is specjac.prob.tv_distance
