"""Speculative Jacobi decoding with coupled draft sampling.

A desk-scale toolkit for lossless parallel decoding of discrete
autoregressive models: exact categorical arithmetic, three draft couplers
(independent, maximal, Gumbel-shared), enumerable toy models, the decode
engines, and a statistical oracle that verifies the losslessness and
coupling-cost guarantees.
"""

from .config import DecodeConfig, ExperimentConfig, OutputConfig, RunConfig, build_config
from .couplers import MrsOutcome, mrs
from .decoder import CouplerKind, DecodeStats, decode_trials, trial_keys
from .model import (
    ModelSpec,
    SamplingParams,
    TabularModel,
    TargetSampler,
    enumerate_sequence_distribution,
    sequence_codes,
)
from .oracle import (
    EmpiricalLaw,
    TestReport,
    collect,
    gof_test,
    run_lossless_suite,
    tv_to_exact,
)
from .prob import (
    Categorical,
    Logits,
    apply_processors,
    independent_collision,
    mix_cfg,
    renyi2_entropy,
    tv_distance,
)
from .rng import RandomSource

__version__ = "0.1.0"

__all__ = [
    "Categorical",
    "CouplerKind",
    "DecodeConfig",
    "DecodeStats",
    "EmpiricalLaw",
    "ExperimentConfig",
    "Logits",
    "ModelSpec",
    "MrsOutcome",
    "OutputConfig",
    "RandomSource",
    "RunConfig",
    "SamplingParams",
    "TabularModel",
    "TargetSampler",
    "TestReport",
    "apply_processors",
    "build_config",
    "collect",
    "decode_trials",
    "enumerate_sequence_distribution",
    "gof_test",
    "independent_collision",
    "mix_cfg",
    "mrs",
    "renyi2_entropy",
    "run_lossless_suite",
    "sequence_codes",
    "tv_distance",
    "trial_keys",
    "tv_to_exact",
]
