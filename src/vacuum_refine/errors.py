"""Exception hierarchy shared across the package."""

from __future__ import annotations


class VacuumRefineError(Exception):
    """Base class for every error raised by this package."""


class DomainError(VacuumRefineError, ValueError):
    """An argument violates an operation's precondition."""


class UnitarityError(VacuumRefineError, ValueError):
    """A matrix that must be unitary is not, within tolerance."""


class ImpossibleOutcomeError(VacuumRefineError):
    """Post-selection on an outcome whose probability is numerically zero."""


class NumericalConsistencyError(VacuumRefineError):
    """A computed quantity failed an internal consistency check."""


class ResourceLimitError(VacuumRefineError):
    """A dense-matrix operation exceeded the qubit cap, ``DEFAULT_DENSE_CAP``."""


class DegenerateEnergyError(VacuumRefineError):
    """No usable phase parameter: the energy estimate is too close to zero."""


class CorrectionError(VacuumRefineError):
    """The mixed-value correction denominator is too close to zero."""


class ConfigError(VacuumRefineError):
    """A configuration or input file failed to parse or validate."""
