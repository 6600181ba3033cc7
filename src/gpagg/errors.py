"""Exception types shared across the package."""


class GPAggError(Exception):
    """Base class for all gpagg errors."""


class DimensionError(GPAggError, ValueError):
    """Inputs have incompatible shapes or dimensions."""


class NumericalError(GPAggError, RuntimeError):
    """A linear-algebra step failed beyond what jitter can repair."""

    def __init__(self, message: str, jitter: float | None = None):
        super().__init__(message)
        self.jitter = jitter


class FitError(GPAggError, RuntimeError):
    """Neither the fit's init nor its optimizer run could be scored.

    ``diagnostics`` holds one dict per failed step: its ``stage``
    ("init" or "run") and the ``error`` it hit.
    """

    def __init__(self, message: str, diagnostics: list[dict]):
        super().__init__(message)
        self.diagnostics = diagnostics
