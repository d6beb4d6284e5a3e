"""Exception types shared across the simulator.

``VesselSimError`` subclasses signal violated domain preconditions or
invariants (CLI exit code 3).  ``ConfigError`` signals a bad scenario file
(CLI exit code 2).
"""


class VesselSimError(Exception):
    """Base class for domain errors."""


class DegenerateTieError(VesselSimError):
    """Both siphon diameters are exactly equal and the tie policy forbids a choice."""


class InvalidStepError(VesselSimError):
    """Flow integration asked for a non-positive or non-finite time step."""


class FlowRangeError(VesselSimError):
    """Flow integration whose per-step outflows or step count leave the float range."""


class EmptySampleSetError(VesselSimError):
    """An estimator or classifier was given no samples to work with."""


class MismatchedPairsError(VesselSimError):
    """The four expectation estimates do not cover the four coincidence pairs."""


class InvariantError(VesselSimError, ValueError):
    """A value breaks an invariant of the object or function it was given to;
    ``field`` names the offending parameter (None if the check spans several)."""

    def __init__(self, message: str, field: str | None = None) -> None:
        super().__init__(message)
        self.field = field


class NotNormalizedError(InvariantError):
    """Amplitude vector whose squared moduli do not sum to one."""


class WrongArityError(InvariantError):
    """Amplitude vector with the wrong number of entries."""


class NotUnitError(InvariantError):
    """Measurement direction whose Euclidean norm is not one."""


class ConfigError(Exception):
    """Malformed or incomplete scenario configuration."""
