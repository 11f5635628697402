"""Finite-difference kernels: per-subdomain solves and flux extraction.

The single-domain reference is the same march on the whole domain; it
lives with the model adapters, as ``wrkit.methods.workspace.solve_monodomain``.
"""

from .heat import heat_interface_flux, solve_heat_subdomain
from .problems import HeatProblem, SpaceTimeField, Wave2DProblem, WaveProblem, sample
from .wave import solve_wave_strip_2d, solve_wave_subdomain, wave_interface_flux

__all__ = [
    "HeatProblem",
    "WaveProblem",
    "Wave2DProblem",
    "SpaceTimeField",
    "sample",
    "solve_heat_subdomain",
    "heat_interface_flux",
    "solve_wave_subdomain",
    "wave_interface_flux",
    "solve_wave_strip_2d",
]
