"""Exception types shared across the package."""


class SepfiltError(Exception):
    """Base class for all package errors."""


class BadParams(SepfiltError):
    """Invalid generator or configuration parameters."""


class NondegenerateViolation(SepfiltError):
    """A simplex whose edge lengths admit no positive-volume embedding."""


class DimensionMismatch(SepfiltError):
    """A cell set does not have the dimension required by its parent."""


class SeparationViolation(SepfiltError):
    """A component or color class fits in no ball of the required radius."""


class Infeasible(SepfiltError):
    """Not even the full candidate facet set separates, so no move is tried."""


class CensusMismatch(SepfiltError):
    """The rainbow census disagrees with the expected per-point identity."""

    def __init__(self, message, census=None):
        super().__init__(message)
        self.census = census


class RadiusOrder(SepfiltError):
    """Radius arguments violate the required ordering r1 < r2."""
