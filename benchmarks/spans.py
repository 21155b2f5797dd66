"""Tracing from outside the program.

The traced run wraps the public functions of each specjac layer (``rng``,
``prob``, ``couplers``, ``model``, ``decoder``, ``oracle``, ``cli``) and
records one span per call: name, start, end and the enclosing span.  Nothing
under ``src/`` changes.  A function is patched at every module attribute
bound to it (``mrs`` lives in ``couplers``, ``decoder`` and the package
namespace, and ``oracle.acceptance_rate_check`` imports it at call time),
and methods are patched on their class.  Every patched attribute is restored
on exit.

Self time is a span's duration minus the time of its wrapped children.  Hot
per-token functions are aggregated in place (calls, total and self time)
instead of being kept as span records, so a traced round fits in memory;
coarse functions keep their span records, which are written to a JSON file.
"""

from __future__ import annotations

import json
import math
import sys
from collections import defaultdict
from contextlib import contextmanager
from importlib import import_module
from pathlib import Path
from time import perf_counter

COUPLERS = ("vanilla", "independent", "maximal", "gumbel")
SJD_COUPLERS = COUPLERS[1:]

# (metric prefix, module, qualified name, keep span records)
TARGETS = (
    ("rng.derive", "specjac.rng", "RandomSource.derive", False),
    ("rng.draw_uniform01", "specjac.rng", "RandomSource.draw_uniform01", False),
    ("rng.uniforms", "specjac.rng", "RandomSource.uniforms", False),
    ("prob.tv_distance", "specjac.prob", "tv_distance", False),
    ("prob.residual_distribution", "specjac.prob", "residual_distribution", False),
    ("prob.apply_processors", "specjac.prob", "apply_processors", False),
    ("couplers.mrs", "specjac.couplers", "mrs", False),
    ("couplers.sample_independent", "specjac.couplers", "sample_independent", False),
    ("couplers.gs_couple", "specjac.couplers", "gs_couple", False),
    ("couplers.sample_gumbel_noise", "specjac.couplers", "sample_gumbel_noise", False),
    ("couplers.gumbel_from_uniform", "specjac.couplers", "gumbel_from_uniform", False),
    ("model.window_dists", "specjac.model", "TargetSampler.window_dists", False),
    ("model.dist", "specjac.model", "TargetSampler.dist", False),
    ("model.enumerate", "specjac.model", "enumerate_sequence_distribution", True),
    ("decoder.decode_sjd", "specjac.decoder", "decode_sjd", True),
    ("decoder.decode_vanilla", "specjac.decoder", "decode_vanilla", True),
    ("decoder.record_beta", "specjac.decoder", "record_beta", False),
    ("decoder.record_hamming", "specjac.decoder", "record_hamming", False),
    ("oracle.collect", "specjac.oracle", "collect", True),
    ("oracle.tv_to_exact", "specjac.oracle", "tv_to_exact", True),
    ("oracle.gof_test", "specjac.oracle", "gof_test", True),
    ("oracle.generate_pairs", "specjac.oracle", "generate_pairs", True),
    ("oracle.estimate_gumbel_collision", "specjac.oracle", "estimate_gumbel_collision", True),
    ("oracle.estimate_independent_collision", "specjac.oracle",
     "estimate_independent_collision", True),
    ("cli.main", "specjac.cli", "main", True),
    ("cli.resolve_config", "specjac.cli", "resolve_config", True),
    ("cli.write_csv", "specjac.cli", "write_csv", True),
    ("cli.write_reports", "specjac.cli", "write_reports", True),
)

# (name, unit, better) of every per-layer metric, in report order
PER_LAYER = (
    ("rng.derive.calls", "count", "lower"),
    ("rng.derive.self_s", "s", "lower"),
    ("rng.draw_uniform01.calls", "count", "lower"),
    ("rng.draw_uniform01.self_s", "s", "lower"),
    ("rng.uniforms.calls", "count", "lower"),
    ("rng.uniforms.self_s", "s", "lower"),
    ("prob.tv_distance.calls", "count", "lower"),
    ("prob.tv_distance.self_s", "s", "lower"),
    ("prob.residual_distribution.calls", "count", "lower"),
    ("prob.residual_distribution.self_s", "s", "lower"),
    ("prob.apply_processors.calls", "count", "lower"),
    ("prob.apply_processors.self_s", "s", "lower"),
    ("couplers.mrs.calls", "count", "lower"),
    ("couplers.mrs.self_s", "s", "lower"),
    ("couplers.mrs.accept_frac", "ratio", "higher"),
    ("couplers.sample_independent.self_s", "s", "lower"),
    ("couplers.gs_couple.calls", "count", "lower"),
    ("couplers.gs_couple.self_s", "s", "lower"),
    ("couplers.sample_gumbel_noise.self_s", "s", "lower"),
    ("couplers.gumbel_from_uniform.self_s", "s", "lower"),
    ("model.window_dists.calls", "count", "lower"),
    ("model.window_dists.positions", "count", "lower"),
    ("model.window_dists.self_s", "s", "lower"),
    ("model.dist.calls", "count", "lower"),
    ("model.dist.self_s", "s", "lower"),
    ("model.table_builds", "count", "lower"),
    ("model.miss_frac", "ratio", "lower"),
    ("model.enumerate.s", "s", "lower"),
    *(
        (f"decoder.trial_us.{stat}.{c}", unit, better)
        for c in COUPLERS
        for stat, unit, better in (("p50", "us", "lower"), ("tail", "us", "lower"))
    ),
    ("decoder.decode_sjd.self_s", "s", "lower"),
    ("decoder.record_beta.self_s", "s", "lower"),
    ("decoder.record_hamming.self_s", "s", "lower"),
    ("decoder.tokens_per_nfe", "tokens/nfe", "higher"),
    ("decoder.window_util", "ratio", "higher"),
    *((f"decoder.nfe_mean.{c}", "calls/seq", "lower") for c in SJD_COUPLERS),
    ("oracle.collect.self_s", "s", "lower"),
    ("oracle.tv_to_exact.s", "s", "lower"),
    ("oracle.gof_test.s", "s", "lower"),
    ("oracle.generate_pairs.s", "s", "lower"),
    ("oracle.estimate_gumbel_collision.self_s", "s", "lower"),
    ("oracle.estimate_independent_collision.self_s", "s", "lower"),
    ("cli.resolve_config.s", "s", "lower"),
    ("cli.write.s", "s", "lower"),
    ("cli.out_bytes", "bytes", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)

# (name, unit) of values that describe the traced round rather than a cost:
# printed beside the per-layer metrics, with no better direction
CONTEXT = (
    ("rng.uniforms.elems_per_call", "count"),
    *(
        (f"decoder.trial_us.{stat}.{c}", unit)
        for c in COUPLERS
        for stat, unit in (("tail_pct", "pct"), ("samples", "count"))
    ),
)

# tail percentiles tried from the highest down; the first with at least ten
# samples beyond it is reported
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def _resolve(module: str, qualname: str):
    owner = import_module(module)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


def _bindings(module: str, qualname: str) -> list[tuple[object, str]]:
    """Every attribute through which callers reach the target.

    A method is reached through its class only.  A function is reached
    through every loaded ``specjac`` module that binds it, by any name.
    """
    owner, attr = _resolve(module, qualname)
    if "." in qualname:
        return [(owner, attr)]
    fn = getattr(owner, attr)
    found = []
    for mod_name, mod in sorted(sys.modules.items()):
        if mod is None or not (mod_name == "specjac" or mod_name.startswith("specjac.")):
            continue
        found.extend((mod, name) for name, value in vars(mod).items() if value is fn)
    return found


class _Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, owner: object, attr: str, value: object) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def _coupler(fn_name: str, args: tuple, kwargs: dict) -> str:
    if fn_name == "decode_vanilla":
        return "vanilla"
    kind = args[4] if len(args) > 4 else kwargs["coupler"]
    return kind.value


@contextmanager
def trial_timer():
    """Time every decode call, and nothing else, by coupler.

    Yields a dict coupler -> list of per-trial seconds.  The two timer reads
    per trial are the only instrumentation, so these latencies are close to
    untraced ones.
    """
    times: dict[str, list[float]] = defaultdict(list)
    patches = _Patches()

    def timed(fn):
        name = fn.__name__

        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            result = fn(*args, **kwargs)
            times[_coupler(name, args, kwargs)].append(perf_counter() - t0)
            return result

        return wrapper

    try:
        for qualname in ("decode_sjd", "decode_vanilla"):
            for owner, attr in _bindings("specjac.decoder", qualname):
                patches.replace(owner, attr, timed(getattr(owner, attr)))
        yield times
    finally:
        patches.restore()


class Tracer:
    """Span recorder installed over the specjac layers while in a ``with`` block."""

    def __init__(self) -> None:
        # per name: [calls, total seconds, self seconds]
        self.stats: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counters: dict[str, float] = defaultdict(float)
        # span records: [name, parent span index or -1, start, end]
        self.spans: list[list] = []
        # frames of the calls in progress: [child seconds, enclosing span index]
        self._stack: list[list] = [[0.0, -1]]
        self._patches = _Patches()

    def __enter__(self) -> "Tracer":
        try:
            for name, module, qualname, keep in TARGETS:
                for owner, attr in _bindings(module, qualname):
                    hook = self._hook(name, getattr(owner, "__name__", ""))
                    wrapper = self._wrap(name, getattr(owner, attr), keep, hook)
                    self._patches.replace(owner, attr, wrapper)
        except BaseException:
            self._patches.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._patches.restore()

    def _wrap(self, name: str, fn, keep: bool, hook):
        stat = self.stats[name]
        stack = self._stack
        spans = self.spans

        def wrapper(*args, **kwargs):
            if keep:
                span = len(spans)
                spans.append([name, stack[-1][1], 0.0, 0.0])
            else:
                span = stack[-1][1]
            frame = [0.0, span]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                duration = t1 - t0
                stack[-1][0] += duration
                stat[0] += 1
                stat[1] += duration
                stat[2] += duration - frame[0]
                if keep:
                    spans[span][2] = t0
                    spans[span][3] = t1
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return wrapper

    def _hook(self, name: str, site: str):
        """Counter update for a call of ``name`` through module ``site``."""
        counters = self.counters
        if name == "rng.uniforms":
            def hook(args, kwargs, result):
                counters["rng.uniforms.elems"] += len(result)
        elif name == "couplers.mrs":
            def hook(args, kwargs, result):
                counters["couplers.mrs.accepted"] += result.accepted
        elif name == "model.window_dists":
            def hook(args, kwargs, result):
                counters["model.window_dists.positions"] += len(result)
        elif name == "prob.apply_processors" and site == "specjac.model":
            # the model builds a target-law table only on a cache miss
            def hook(args, kwargs, result):
                counters["model.table_builds"] += 1
        elif name == "decoder.decode_sjd":
            def hook(args, kwargs, result):
                sequence, stats = result
                coupler = _coupler("decode_sjd", args, kwargs)
                counters[f"nfe.{coupler}"] += stats.nfe
                counters[f"trials.{coupler}"] += 1
                counters["sjd.tokens"] += len(sequence)
                counters["sjd.nfe"] += stats.nfe
        else:
            return None
        return hook

    def total(self, name: str) -> float:
        return self.stats[name][1] if name in self.stats else 0.0

    def self_time(self, name: str) -> float:
        return self.stats[name][2] if name in self.stats else 0.0

    def calls(self, name: str) -> int:
        return self.stats[name][0] if name in self.stats else 0

    def outermost_total(self, names: tuple[str, ...]) -> float:
        """Summed duration of spans in ``names`` not nested in one another."""
        total = 0.0
        for name, parent, start, end in self.spans:
            if name in names and (parent < 0 or self.spans[parent][0] not in names):
                total += end - start
        return total

    def dump(self, path: Path, meta: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "meta": meta,
            "stats": {k: {"calls": v[0], "total_s": v[1], "self_s": v[2]}
                      for k, v in sorted(self.stats.items())},
            "counters": dict(sorted(self.counters.items())),
            "span_fields": ["name", "parent", "start", "end"],
            "spans": self.spans,
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)


def _ratio(num: float, den: float) -> float:
    """``num / den``, or 0 when the layer did no work (den == 0)."""
    return num / den if den else 0.0


def _nearest_rank(ordered: list[float], pct: float) -> float:
    return ordered[math.ceil(len(ordered) * pct / 100) - 1]


def trial_latency(times: dict[str, list[float]]) -> dict[str, float]:
    """Median and highest well-sampled percentile of decode latency, in us."""
    out: dict[str, float] = {}
    for coupler in COUPLERS:
        samples = sorted(t * 1e6 for t in times.get(coupler, ()))
        n = len(samples)
        p50 = tail = pct = 0.0
        if n:
            p50 = _nearest_rank(samples, 50.0)
            pct = next((p for p in TAIL_PERCENTILES if n * (1 - p / 100) >= 10), 0.0)
            if pct:
                tail = _nearest_rank(samples, pct)
        out[f"decoder.trial_us.p50.{coupler}"] = p50
        out[f"decoder.trial_us.tail.{coupler}"] = tail
        out[f"decoder.trial_us.tail_pct.{coupler}"] = pct
        out[f"decoder.trial_us.samples.{coupler}"] = n
    return out


def layer_metrics(
    tracer: Tracer,
    times: dict[str, list[float]],
    overhead_frac: float,
    out_bytes: int,
) -> tuple[dict[str, float], dict[str, float]]:
    """Every metric of ``PER_LAYER`` and every value of ``CONTEXT`` from one
    traced round, as two dicts."""
    c = tracer.counters
    values: dict[str, float] = {}
    for name, _, _ in PER_LAYER:
        base, _, stat = name.rpartition(".")
        if stat == "calls":
            values[name] = tracer.calls(base)
        elif stat == "self_s":
            values[name] = tracer.self_time(base)
    lookups = c["model.window_dists.positions"] + tracer.calls("model.dist")
    values.update({
        "rng.uniforms.elems_per_call": _ratio(c["rng.uniforms.elems"], tracer.calls("rng.uniforms")),
        "couplers.mrs.accept_frac": _ratio(c["couplers.mrs.accepted"], tracer.calls("couplers.mrs")),
        "model.window_dists.positions": c["model.window_dists.positions"],
        "model.table_builds": c["model.table_builds"],
        "model.miss_frac": _ratio(c["model.table_builds"], lookups),
        "model.enumerate.s": tracer.total("model.enumerate"),
        "decoder.tokens_per_nfe": _ratio(c["sjd.tokens"], c["sjd.nfe"]),
        "decoder.window_util": _ratio(c["sjd.tokens"], c["model.window_dists.positions"]),
        "oracle.tv_to_exact.s": tracer.total("oracle.tv_to_exact"),
        "oracle.gof_test.s": tracer.total("oracle.gof_test"),
        "oracle.generate_pairs.s": tracer.total("oracle.generate_pairs"),
        "cli.resolve_config.s": tracer.total("cli.resolve_config"),
        "cli.write.s": tracer.outermost_total(("cli.write_csv", "cli.write_reports")),
        "cli.out_bytes": out_bytes,
        "trace.overhead_frac": overhead_frac,
    })
    for coupler in SJD_COUPLERS:
        values[f"decoder.nfe_mean.{coupler}"] = _ratio(c[f"nfe.{coupler}"], c[f"trials.{coupler}"])
    values.update(trial_latency(times))
    return ({name: values[name] for name, _, _ in PER_LAYER},
            {name: values[name] for name, _ in CONTEXT})
