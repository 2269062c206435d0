"""The numpy-free definitions the CLI needs before it computes anything.

The parser's choices and defaults and the state-validation error live here,
so that parsing arguments and reporting a usage error never import numpy.
"""

ENSEMBLE = "ensemble"
SINGLE_SHOT = "single-shot"
MODES = (ENSEMBLE, SINGLE_SHOT)

RESOURCE_INDICES = (1, 2, 3, 4)

DEFAULT_SWEEP_COUNT = 1000
DEFAULT_TOL = 1e-9


class StateValidationError(ValueError):
    """A matrix or amplitude vector fails a state invariant.

    The measured size of the violation is stored on .violation.
    """

    def __init__(self, message: str, violation: float):
        super().__init__(f"{message} (violation {violation:.3e})")
        self.violation = violation

    @classmethod
    def _check(cls, message: str, violation: float, bound: float) -> None:
        """The state guards' one bound rule: raise cls(message, violation) unless violation <= bound; NaN fails."""
        if not violation <= bound:
            raise cls(message, violation)
