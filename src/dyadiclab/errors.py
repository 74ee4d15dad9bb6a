"""Exception types shared across the package."""


class DyadicLabError(Exception):
    """Base class for all package errors."""


# --- metric space validation -------------------------------------------------

class MetricValidationError(DyadicLabError):
    """A distance matrix failed one of the metric axioms."""


class AsymmetricMatrix(MetricValidationError):
    def __init__(self, i, j, dij, dji):
        self.i, self.j = i, j
        super().__init__(f"dist({i},{j})={dij!r} != dist({j},{i})={dji!r}")


class NonzeroDiagonal(MetricValidationError):
    def __init__(self, i, value):
        self.i = i
        super().__init__(f"dist({i},{i})={value!r} != 0")


class DuplicatePoint(MetricValidationError):
    def __init__(self, i, j):
        self.i, self.j = i, j
        super().__init__(f"dist({i},{j})=0 for distinct points {i}, {j}")


class TriangleViolation(MetricValidationError):
    """dist(i,k) exceeds the floating sum dist(i,j) + dist(j,k) by ``excess``."""

    def __init__(self, i, j, k, excess):
        self.i, self.j, self.k = i, j, k
        super().__init__(
            f"dist({i},{k}) > dist({i},{j}) + dist({j},{k}) by {excess!r}")


class UnknownPoint(DyadicLabError):
    """A point name or index not present in the space."""


class InvalidParams(DyadicLabError):
    """Malformed parameters for a generator or estimator."""


# --- grids and forests -------------------------------------------------------

class TooLargeForExhaustive(DyadicLabError):
    """Base set exceeds the exhaustive enumeration cap."""


class NoCandidateParent(DyadicLabError):
    """A child point has no coarser grid point within reach (malformed input)."""


class CoverViolation(DyadicLabError):
    """A covering statement failed; carries the witness point."""

    def __init__(self, message, witness=None):
        self.witness = witness
        super().__init__(message)


class UnknownCenter(DyadicLabError):
    """Requested cube center is not among the given cubes."""


# --- coloring ----------------------------------------------------------------

class PreconditionNotWS(DyadicLabError):
    """Recoloring input is not in the required class (v green, S red, rest of the ball green)."""


class InjectivityViolation(DyadicLabError):
    """Two distinct colorings mapped to the same recolored output."""

    def __init__(self, message, first=None, second=None):
        self.first, self.second = first, second
        super().__init__(message)


# --- goodness ----------------------------------------------------------------

class CenterNotInGrid(DyadicLabError):
    """Fixed cube center is absent from the sampled grid at the requested level."""


class InvalidTrials(DyadicLabError):
    """Trial count must be a positive integer."""


class ScheduleInvalid(DyadicLabError):
    """Epsilon schedule violates its constraints."""


class InvalidProbabilities(DyadicLabError):
    """Equalization called with a > p_Q or values outside (0, 1]."""


# --- measures ----------------------------------------------------------------

class DegenerateMeasure(DyadicLabError):
    """Measure is identically zero."""


# --- CLI ---------------------------------------------------------------------

class ConfigError(DyadicLabError):
    """Bad command-line configuration."""


class InputError(DyadicLabError):
    """Input file missing, unreadable, or not a valid space."""
