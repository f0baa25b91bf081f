"""Experiment harness: configuration, orchestration, result files, CLI."""

from .config import ExperimentConfig, config_hash, load_config, validate_config
from .experiments import EXPERIMENTS, run_experiment

__all__ = [
    "ExperimentConfig",
    "config_hash",
    "load_config",
    "validate_config",
    "EXPERIMENTS",
    "run_experiment",
]
