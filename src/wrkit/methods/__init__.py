"""Waveform-relaxation drivers and their shared configuration."""

from .config import IterationHistory, Method, WrConfig, relax_update
from .dnwr import dnwr_run
from .nnwr import nnwr_run
from .schedule import (
    Arrangement,
    Role,
    Schedule,
    StageTask,
    arrangement_schedule,
    producer_map,
)
from .swr import swr_run
from .workspace import RunGrids, guess_grids, make_run_grids, traces_from_field

__all__ = [
    "Arrangement",
    "Role",
    "Schedule",
    "StageTask",
    "arrangement_schedule",
    "producer_map",
    "Method",
    "WrConfig",
    "IterationHistory",
    "relax_update",
    "RunGrids",
    "make_run_grids",
    "guess_grids",
    "traces_from_field",
    "dnwr_run",
    "nnwr_run",
    "swr_run",
]
