"""Experiment configuration: YAML file, dotted-path overrides, fingerprint.

One config drives every CLI command.  Field paths in the file and on the
command line are identical (``--decode.window 8`` overrides the ``window``
key of the ``decode`` section), so an experiment is fully reproducible from
a single artifact plus the overrides recorded in its output files.

The schema is the five section dataclasses: their fields give the dotted
paths, their annotations the converters, their ``__post_init__`` the range
and choice checks, and one desk-scale instance the defaults.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, fields
from typing import Any, get_args, get_type_hints

import yaml

from .decoder import CouplerKind
from .errors import ConfigError
from .model import ModelSpec, SamplingParams
from .rng import NORMAL_BOUND

COUPLER_CHOICES = ("vanilla", *(kind.value for kind in CouplerKind))
FORMAT_CHOICES = ("csv", "report")


@dataclass(frozen=True)
class DecodeConfig:
    length: int = 5
    window: int = 4
    coupler: str = CouplerKind.MAXIMAL.value
    redraft: bool = False

    def __post_init__(self) -> None:
        if self.length < 1:
            raise ValueError("length: must be >= 1")
        if self.window < 1:
            raise ValueError("window: must be >= 1")
        if self.coupler not in COUPLER_CHOICES:
            raise ValueError(f"coupler: must be one of {', '.join(COUPLER_CHOICES)}")


@dataclass(frozen=True)
class RunConfig:
    trials: int = 200000
    seed: int = 1234

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError("trials: must be >= 1")


@dataclass(frozen=True)
class OutputConfig:
    format: str = "csv"
    path: str | None = None

    def __post_init__(self) -> None:
        if self.format not in FORMAT_CHOICES:
            raise ValueError(f"format: must be one of {', '.join(FORMAT_CHOICES)}")


@dataclass(frozen=True)
class ExperimentConfig:
    model: ModelSpec
    sampling: SamplingParams
    decode: DecodeConfig
    run: RunConfig
    output: OutputConfig

    def fingerprint(self) -> str:
        """Hash of every semantically meaningful field (output routing excluded)."""
        payload = asdict(self)
        del payload["output"]
        canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:12]

    def replace_field(self, path: str, value) -> "ExperimentConfig":
        """Return a copy with one dotted-path field replaced."""
        return build_config(asdict(self), {path: value})


# Desk-scale defaults: a 1024-point exact law that enumerates in milliseconds
# while Monte Carlo noise at 2e5 trials is small enough to detect a 5% cell
# shift.
DEFAULTS: dict[str, dict[str, Any]] = asdict(ExperimentConfig(
    ModelSpec(vocab_size=4, flatness=2.0, seed=11),
    SamplingParams(),
    DecodeConfig(),
    RunConfig(),
    OutputConfig(),
))

SECTIONS: dict[str, type] = get_type_hints(ExperimentConfig)

# dotted field path -> annotated type, in declaration order
FIELDS: dict[str, Any] = {
    f"{section}.{f.name}": get_type_hints(cls)[f.name]
    for section, cls in SECTIONS.items()
    for f in fields(cls)
}

_BOOL_WORDS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def convert(path: str, value):
    """Convert a file value or override string to the type of field ``path``.

    ``none``/``null``/empty strings mean None for optional fields.  Booleans
    are accepted only by boolean fields, and integer fields reject floats
    with a fractional part instead of truncating them.
    """
    hint = FIELDS[path]
    if type(None) in get_args(hint):
        if value is None or (isinstance(value, str) and value.lower() in ("none", "null", "")):
            return None
        (hint,) = (arg for arg in get_args(hint) if arg is not type(None))
    if hint is bool:
        if isinstance(value, bool):
            return value
        if isinstance(value, str) and value.lower() in _BOOL_WORDS:
            return _BOOL_WORDS[value.lower()]
        raise ValueError(f"expected a boolean, got {value!r}")
    if isinstance(value, bool):
        raise ValueError(f"expected {hint.__name__}, got {value!r}")
    if hint is int and isinstance(value, float) and not value.is_integer():
        raise ValueError(f"expected an integer, got {value!r}")
    return hint(value)


class _UniqueKeyLoader(getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
    """PyYAML's safe loader (libyaml's when PyYAML was built with it) that
    rejects a key repeated in one mapping, where PyYAML keeps the last."""

    def construct_mapping(self, node, deep=False):
        own = [key for key, _ in node.value if key.tag != "tag:yaml.org,2002:merge"]
        mapping = super().construct_mapping(node, deep)  # checks keys are hashable
        seen = set()
        for key_node in own:
            key = self.construct_object(key_node)  # the key built above
            if key in seen:
                raise yaml.constructor.ConstructorError(
                    "while constructing a mapping", node.start_mark,
                    f"found duplicate key {key!r}", key_node.start_mark)
            seen.add(key)
        return mapping


def load_config_file(path: str) -> dict[str, dict[str, Any]]:
    """Parse a YAML config file into the nested-section dictionary with
    :class:`_UniqueKeyLoader`.  A section left empty (null) sets nothing."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = yaml.load(handle, Loader=_UniqueKeyLoader)
        except (yaml.YAMLError, UnicodeDecodeError) as exc:  # read as UTF-8
            raise ConfigError(f"{path}: not valid YAML: {exc}") from exc
    if data is None:
        return {}
    if not isinstance(data, dict):
        raise ConfigError("config file must contain a mapping of sections")
    for section, values in data.items():
        if values is None:
            data[section] = {}
        elif not isinstance(values, dict):
            raise ConfigError(f"{section}: section must be a mapping")
    return data


def build_config(
    data: dict[str, dict[str, Any]] | None = None,
    overrides: dict[str, Any] | None = None,
) -> ExperimentConfig:
    """Merge defaults, file data, and dotted-path overrides into a config.

    Raises :class:`ConfigError` naming the offending field path on any
    unknown field or invalid value.
    """
    merged = {section: dict(values) for section, values in DEFAULTS.items()}
    updates = [
        (f"{section}.{key}", value)
        for section, values in (data or {}).items()
        for key, value in values.items()
    ]
    for path, value in updates + list((overrides or {}).items()):
        if path not in FIELDS:
            raise ConfigError(f"{path}: unknown configuration field")
        section, key = path.split(".")
        try:
            merged[section][key] = convert(path, value)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{path}: {exc}") from exc

    built = {}
    for section, cls in SECTIONS.items():
        try:
            built[section] = cls(**merged[section])
        except ValueError as exc:
            raise ConfigError(f"{section}.{exc}") from exc
    config = ExperimentConfig(**built)
    top_k = config.sampling.top_k
    if top_k is not None and top_k > config.model.vocab_size:
        raise ConfigError("sampling.top_k: must be in [1, model.vocab_size]")
    # largest processed logit, (1 + 2 * cfg_scale) * NORMAL_BOUND / (flatness
    # * temperature), term by term as the guidance mix forms it
    stored = NORMAL_BOUND / config.model.flatness
    scale = config.sampling.cfg_scale
    if not math.isfinite((stored * (1.0 + scale) + stored * scale) / config.sampling.temperature):
        raise ConfigError(
            "model.flatness, sampling.temperature, sampling.cfg_scale: the largest "
            f"processed logit, {NORMAL_BOUND:.2f} * (1 + 2 * cfg_scale) / (flatness * "
            "temperature), is not finite"
        )
    return config
