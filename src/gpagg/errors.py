"""Exception types shared across the package, and ``checked``: the one
rule for a number a caller hands in (a bool is no number, a float no
integer, and a number must be finite)."""

import math
import numbers


def checked(name: str, value, kind: type, minimum: float | None = None):
    """``value`` as ``kind`` (int, float or str; numpy scalars count), or
    a ``ValueError`` naming ``name`` for a bool, a value of another kind,
    a non-finite float or a number below ``minimum``."""
    abstract = {int: numbers.Integral, float: numbers.Real, str: str}[kind]
    if isinstance(value, bool) or not isinstance(value, abstract):
        raise ValueError(f"{name} must be of type {kind.__name__}, got {value!r}")
    value = kind(value)
    if (kind is float and not math.isfinite(value)) or (minimum is not None and value < minimum):
        rule = ["finite"] * (kind is float) + [f">= {minimum}"] * (minimum is not None)
        raise ValueError(f"{name} must be {' and '.join(rule)}, got {value!r}")
    return value


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
