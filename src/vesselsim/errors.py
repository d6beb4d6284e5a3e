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


class NotNormalizedError(VesselSimError):
    """Amplitude vector whose squared moduli do not sum to one."""


class WrongArityError(VesselSimError):
    """Amplitude vector with the wrong number of entries."""


class NotUnitError(VesselSimError):
    """Measurement direction whose Euclidean norm is not one."""


class ConfigError(Exception):
    """Malformed or incomplete scenario configuration."""
