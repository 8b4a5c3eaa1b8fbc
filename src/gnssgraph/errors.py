"""Exception hierarchy shared by all gnssgraph modules."""


class GnssError(Exception):
    """Base class for all gnssgraph errors."""


class NearSingular(GnssError):
    """Geometry too close to a singular configuration to invert."""


class DegenerateGeometry(GnssError):
    """Receiver/satellite geometry is physically implausible."""


class ElevationTooLow(GnssError):
    """Elevation angle below the model's validity limit."""


class InsufficientSatellites(GnssError):
    """Not enough usable satellites for the requested solution."""


class NoConvergence(GnssError):
    """Iterative solver failed to converge within its iteration budget."""


class SingularGeometry(GnssError):
    """Normal equations are numerically singular."""


class NotPositiveDefinite(GnssError):
    """Covariance matrix expected to be positive definite is not."""


class SearchLimitExceeded(GnssError):
    """Integer search ran out of its step budget before it finished."""


class AmbiguityCheckFailed(GnssError):
    """An integer fix failed its check in the original ambiguity space."""


class WindowExceeded(GnssError):
    """Epoch pair separated by more than the configured time window."""


class EmptyInput(GnssError):
    """Operation requires at least one element."""


class MissingVelocity(GnssError):
    """Graph construction is missing a velocity for a consecutive pair."""


class SingularNormalEquations(GnssError):
    """Factor-graph normal equations could not be solved."""


class InvalidWaypoints(GnssError):
    """Waypoint trajectory definition is unusable."""


class MalformedHeader(GnssError):
    """RINEX header is structurally invalid."""


class MalformedEpoch(GnssError):
    """A RINEX epoch record is inconsistent with its payload."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class LengthMismatch(GnssError):
    """Two trajectories that must align have different lengths or times."""


class IoFailure(GnssError):
    """File could not be written or read."""
