"""Every function and public method under ``src/specjac`` has a caller there,
every module constant is loaded there, every name a module imports is used
in it, the package exports only names that some module loads, the
decode engine names a coupler in one function, ``decoder._draft``, and
only ``model`` reads the CDF table of a ``TargetSampler`` by attribute.

A helper that only tests call belongs under ``tests/``, not in the package;
a one-law convenience that only tests and the tracer call stays in its own
module, importable from there, but out of ``specjac.__all__``.
The scan reads each module's syntax tree (``__init__.py`` only re-exports,
so its imports are not uses): a module-level function is used when some
module loads it by name or attribute, a public method when some module
loads it by attribute.  ``ALLOWED`` lists the few entry points called from
outside src, each with its reason; an entry that gains a caller in src
fails the scan until it leaves the list.
"""

import ast
import importlib.util
from pathlib import Path

import pytest

import specjac
from specjac.decoder import CouplerKind

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for p in (ROOT / "src" / "specjac").glob("*.py") if p.name != "__init__.py")
SPANS = ROOT / "benchmarks" / "spans.py"
DECODER = ROOT / "src" / "specjac" / "decoder.py"

ALLOWED = {
    ("specjac.couplers", "mrs_joint_distribution"): "exact joint law for the decoder-law oracle",
    ("specjac.cli", "entrypoint"): "console script in pyproject.toml",
}


def _traced() -> set:
    """(module, qualname) of every benchmark tracer target: the tracer wraps
    them by name, so renaming or deleting one breaks the benchmark."""
    spec = importlib.util.spec_from_file_location("_bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return {(module, qualname) for _, module, qualname, _ in spans.TARGETS}


def _definitions(tree: ast.Module):
    """(qualname, name, is_method) of each module-level function and each
    public method of a module-level class."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node.name, False
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name, True


def _trees(extra: str = "") -> dict[str, ast.Module]:
    """Syntax tree of each src module by dotted name; ``extra`` is source
    appended to every module."""
    return {
        f"specjac.{path.stem}": ast.parse(f"{path.read_text()}\n{extra}") for path in MODULES
    }


def _callers(trees: dict[str, ast.Module]):
    """A predicate telling whether some module of ``trees`` loads a
    definition: a function by name or attribute, a method by attribute."""
    names, attributes = set(), set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
    return lambda name, is_method: name in attributes or (not is_method and name in names)


def test_every_definition_has_a_caller_in_src():
    trees = _trees()
    called, allowed = _callers(trees), _traced() | ALLOWED.keys()
    unused = [
        f"{module}.{qualname}"
        for module, tree in trees.items()
        for qualname, name, is_method in _definitions(tree)
        if (module, qualname) not in allowed and not called(name, is_method)
    ]
    assert unused == [], f"defined in src but called only from outside it: {unused}"


def _stale(trees: dict[str, ast.Module]) -> list[str]:
    """``ALLOWED`` entries that some module of ``trees`` now calls."""
    called = _callers(trees)
    return [
        f"{module}.{qualname}" for module, qualname in ALLOWED
        if called(qualname.split(".")[-1], "." in qualname)
    ]


@pytest.mark.parametrize("extra, stale", [
    ("", []),
    ("mrs_joint_distribution(p, q)", ["specjac.couplers.mrs_joint_distribution"]),
])
def test_allowlist_names_only_definitions_without_a_caller(extra, stale):
    assert _stale(_trees(extra)) == stale


def _uncalled_exports(trees: dict[str, ast.Module], names) -> list[str]:
    """The entries of ``names`` that no module of ``trees`` loads, in order."""
    called = _callers(trees)
    return [name for name in names if not called(name, False)]


def test_every_export_has_a_caller_in_src():
    assert _uncalled_exports(_trees(), specjac.__all__) == []


@pytest.mark.parametrize("extra, uncalled", [
    ("", ["decode_sjd", "mrs_joint_distribution"]),
    ("mrs_joint_distribution(p, q)", ["decode_sjd"]),
])
def test_export_scan_names_an_uncalled_function(extra, uncalled):
    names = ["mrs", "decode_sjd", "decode_trials", "mrs_joint_distribution"]
    assert _uncalled_exports(_trees(extra), names) == uncalled


def _unloaded_constants(trees: dict[str, ast.Module]) -> list[str]:
    """``module.NAME`` of each name bound by a module-level assignment of
    ``trees`` (dunders aside) that no module of ``trees`` loads."""
    called = _callers(trees)
    return [
        f"{module}.{node.id}"
        for module, tree in trees.items()
        for statement in tree.body
        if isinstance(statement, (ast.Assign, ast.AnnAssign))
        for node in ast.walk(statement)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
        and not node.id.startswith("__") and not called(node.id, False)
    ]


def test_every_module_constant_is_loaded_in_src():
    assert _unloaded_constants(_trees()) == []


@pytest.mark.parametrize("extra, unloaded", [
    ("ORPHAN = 1", [f"specjac.{path.stem}.ORPHAN" for path in MODULES]),
    ("ORPHAN: int = 1\nprint(ORPHAN)", []),
])
def test_constant_scan_names_an_unloaded_constant(extra, unloaded):
    assert _unloaded_constants(_trees(extra)) == unloaded


def _unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by the module-level imports of ``tree`` (``__future__``
    features aside) that the module never loads, in import order."""
    bound = [
        alias.asname or alias.name.split(".")[0]
        for node in tree.body
        if isinstance(node, ast.Import)
        or (isinstance(node, ast.ImportFrom) and node.module != "__future__")
        for alias in node.names
    ]
    loaded = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [name for name in bound if name not in loaded]


def test_every_module_level_import_is_used():
    unused = {path.name: _unused_imports(ast.parse(path.read_text())) for path in MODULES}
    assert {name: names for name, names in unused.items() if names} == {}


@pytest.mark.parametrize("module, line, orphans", [
    ("cli.py", "from typing import Any", ["Any"]),
    ("oracle.py", "from .model import SamplingParams, TabularModel",
     ["SamplingParams", "TabularModel"]),
])
def test_unused_import_scan_names_an_orphan(module, line, orphans):
    source = (ROOT / "src" / "specjac" / module).read_text()
    assert _unused_imports(ast.parse(f"{source}\n{line}\n")) == orphans


def _per_coupler_functions(tree: ast.Module) -> list[str]:
    """Names of the functions of ``tree`` that name a ``CouplerKind`` member
    as an attribute (``CouplerKind.MAXIMAL``), in source order."""
    members = {kind.name for kind in CouplerKind}
    return [
        function.name for function in ast.walk(tree) if isinstance(function, ast.FunctionDef)
        if any(
            isinstance(node, ast.Attribute) and node.attr in members
            and isinstance(node.value, ast.Name) and node.value.id == "CouplerKind"
            for node in ast.walk(function)
        )
    ]


@pytest.mark.parametrize("extra, functions", [
    ("", ["_draft"]),
    ("def stray(kind):\n    return kind is CouplerKind.MAXIMAL", ["_draft", "stray"]),
])
def test_draft_is_the_engines_one_per_coupler_function(extra, functions):
    tree = ast.parse(f"{DECODER.read_text()}\n{extra}\n")
    assert _per_coupler_functions(tree) == functions


def _cdf_table_readers(trees: dict[str, ast.Module]) -> list[str]:
    """The modules of ``trees`` other than ``specjac.model`` that read a
    ``TargetSampler``'s CDF table attribute ``_cdf`` directly.  Its rows at
    and past ``_cdf_rows`` are unsummed ``np.empty`` memory, which would draw
    wrong tokens silently; ``TargetSampler.cdf_of`` sums a row before it is
    read."""
    return [
        module for module, tree in trees.items() if module != "specjac.model"
        if any(isinstance(node, ast.Attribute) and node.attr == "_cdf" for node in ast.walk(tree))
    ]


@pytest.mark.parametrize("extra, readers", [
    ("", []),
    ("sampler._cdf[rows]", [f"specjac.{path.stem}" for path in MODULES if path.stem != "model"]),
])
def test_only_the_model_reads_the_cdf_table(extra, readers):
    assert _cdf_table_readers(_trees(extra)) == readers
