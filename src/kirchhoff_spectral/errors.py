"""Exception types shared across the toolkit."""


class KirchhoffError(Exception):
    """Base class for all toolkit errors."""


class DomainError(KirchhoffError, ValueError):
    """A function was evaluated outside its admissible domain."""


class InvalidWeightError(KirchhoffError, ValueError):
    """A weight function evaluated below 1."""


class NormOverflowError(KirchhoffError, OverflowError):
    """A weighted-norm term exceeded the exponent cap.

    Carries the offending mode index ``k`` (0-based) and the exponent value.
    """

    def __init__(self, k: int, exponent: float):
        self.k = k
        self.exponent = exponent
        super().__init__(
            f"norm overflow: term exponent {exponent:.6g} at mode k={k} "
            f"exceeds the cap"
        )


class NotOmegaContinuousError(KirchhoffError, ValueError):
    """The modulus vanished on a gap where the function values differ."""


class NegativeNonlinearityError(KirchhoffError, ValueError):
    """The nonlinearity evaluated negative along a trajectory."""


class NondegeneracyError(KirchhoffError, ValueError):
    """A required nondegeneracy condition failed."""


class PreconditionError(KirchhoffError, ValueError):
    """An operation precondition was violated."""


class InsufficientDecayError(KirchhoffError, ValueError):
    """Spectral components do not decay fast enough for the construction."""


class ParametrizationError(KirchhoffError, ValueError):
    """The arc-parametrization degenerated or lost monotonicity."""


class ScenarioError(KirchhoffError, ValueError):
    """A scenario configuration failed to parse or validate."""

    def __init__(self, message: str, *, field: str | None = None):
        self.field = field
        if field is not None:
            message = f"{field}: {message}"
        super().__init__(message)
