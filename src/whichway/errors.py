"""Exception types shared across the package."""


class WhichWayError(Exception):
    """Base class for all package-specific errors."""


class DimensionError(WhichWayError, ValueError):
    """Operands have incompatible or invalid dimensions."""


class InputFormatError(WhichWayError, ValueError):
    """A file or text input does not follow its documented format: a records
    or dataset CSV, or a channel spec."""


class NonFiniteError(WhichWayError, ValueError):
    """An input holds a NaN or infinite entry where a finite number is required."""


class PositivityError(WhichWayError, ValueError):
    """A matrix required to be Hermitian positive semidefinite is not."""


class SupportError(WhichWayError, ValueError):
    """A rank-one combination leaks outside the support of the state factors,
    so the contraction factorization does not exist."""


class ContractionError(WhichWayError, ValueError):
    """The reconstructed operator violates U^dag U <= 1 beyond tolerance."""


class ConventionError(WhichWayError, ValueError):
    """A wave-plate program row does not realize its target arm-unitary pair
    under the documented Jones convention."""


class NumericalError(WhichWayError, RuntimeError):
    """A numerical procedure failed to converge or produced an inconsistent
    result (e.g. D falls below the Fuchs-van de Graaf floor 1 - V_G)."""
