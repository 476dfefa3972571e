"""Experiment harness: configuration, data, orchestration, and reports."""

from .config import ExperimentConfig, build_config, config_hash, load_config
from .data import gen_synthetic, load_breast_cancer, split_sample
from .experiments import run_experiment
from .reports import Report, Series, write_report
