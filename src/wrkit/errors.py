"""Exception types shared across the library.

Every error raised on a documented failure path derives from
:class:`WrkitError`, so callers can catch one base class at the harness
boundary while tests assert the specific subtype.
"""

from __future__ import annotations


class WrkitError(Exception):
    """Base class for all library-specific errors."""


# ---------------------------------------------------------------------------
# grid construction


class NonIncreasingBoundaries(WrkitError):
    """Partition boundaries must be strictly increasing."""


class TooFewSubdomains(WrkitError):
    """A partition needs at least two subdomains."""


class NonDivisibleWindow(WrkitError):
    """The time step does not divide the time window."""


class IncompatibleGrids(WrkitError):
    """Two objects were combined whose grids do not match."""


class WindowMismatch(WrkitError):
    """Source and target time grids cover different windows."""


class NonFiniteTrace(WrkitError, ValueError):
    """An interface trace got a NaN or infinite sample (a run that diverged, say)."""


# ---------------------------------------------------------------------------
# kernels


class CflViolation(WrkitError):
    """An explicit wave step was requested above the stability limit."""


class WrongBoundaryKind(WrkitError):
    """Flux extraction needs a boundary where the solution value was imposed."""


class SingularSystem(WrkitError):
    """An implicit step produced a system that could not be factorized."""


# ---------------------------------------------------------------------------
# waveform relaxation methods


class UnsupportedCount(WrkitError):
    """The requested ordering is not defined for this subdomain count."""


class NoReference(WrkitError):
    """An error metric was requested but no reference is available."""


# ---------------------------------------------------------------------------
# convergence envelopes


class EvenCount(WrkitError):
    """This envelope is defined for an odd number of subdomains."""


class OddCount(WrkitError):
    """This envelope is defined for an even number of subdomains."""


class QDiverged(WrkitError):
    """The reflection series did not converge within the term budget."""


# ---------------------------------------------------------------------------
# harness


class ParseError(WrkitError):
    """A config line could not be parsed; carries the 1-based line number."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


class UnknownKey(WrkitError):
    """A config line used a key outside the schema."""


class ValidationError(WrkitError):
    """A parsed config failed semantic validation."""


class InconsistentSpecs(WrkitError):
    """compare_methods was given specs that disagree on the shared setup."""
