"""Speculative Jacobi decoding with coupled draft sampling.

A desk-scale toolkit for lossless parallel decoding of discrete
autoregressive models: exact categorical arithmetic, three draft couplers
(independent, maximal, Gumbel-shared), enumerable toy models, the decode
engines, and a statistical oracle that verifies the losslessness and
coupling-cost guarantees.
"""

from .config import DecodeConfig, ExperimentConfig, OutputConfig, RunConfig, build_config
from .couplers import (
    MrsOutcome,
    gs_couple,
    maximal_coupling_cost,
    mrs,
    mrs_joint_distribution,
    sample_gumbel_noise,
    sample_independent,
)
from .decoder import (CouplerKind, DecodeStats, decode_sjd, decode_trials, decode_vanilla,
                      trial_keys)
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
    acceptance_rate_check,
    collect,
    coupling_bound_sweep,
    gof_test,
    hamming_nfe_correlation,
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
    residual_distribution,
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
    "acceptance_rate_check",
    "apply_processors",
    "build_config",
    "collect",
    "coupling_bound_sweep",
    "decode_sjd",
    "decode_trials",
    "decode_vanilla",
    "enumerate_sequence_distribution",
    "gof_test",
    "gs_couple",
    "hamming_nfe_correlation",
    "independent_collision",
    "maximal_coupling_cost",
    "mix_cfg",
    "mrs",
    "mrs_joint_distribution",
    "renyi2_entropy",
    "residual_distribution",
    "run_lossless_suite",
    "sample_gumbel_noise",
    "sample_independent",
    "sequence_codes",
    "tv_distance",
    "trial_keys",
    "tv_to_exact",
]
