"""Benchmark harness: configs, presets, experiment execution, CLI."""

from .presets import build_guesses, build_problem, preset_names, preset_text
from .run import (
    ComparisonRow,
    ComparisonTable,
    ErrorReport,
    compare_methods,
    interface_error,
    run_experiment,
)
from .spec import ExperimentSpec, load_config, with_out_dir

__all__ = [
    "ExperimentSpec",
    "load_config",
    "with_out_dir",
    "preset_names",
    "preset_text",
    "build_guesses",
    "build_problem",
    "ErrorReport",
    "run_experiment",
    "interface_error",
    "ComparisonRow",
    "ComparisonTable",
    "compare_methods",
]
