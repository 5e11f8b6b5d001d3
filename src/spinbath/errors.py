"""Exception types shared across the package.

Every error raised deliberately by this package derives from
:class:`SpinBathError`, so callers can catch one base type at the
boundary (the CLI does exactly that to map errors to exit codes).
"""

from __future__ import annotations


class SpinBathError(Exception):
    """Base class for all errors raised by this package."""


class NormalizationError(SpinBathError):
    """An amplitude pair violates |x|^2 + |y|^2 = 1 beyond tolerance.

    Attributes
    ----------
    which : str
        Which pair failed, e.g. ``"system"`` or ``"spin 3"``.
    residual : float
        The measured deviation ``| |x|^2 + |y|^2 - 1 |``.
    """

    def __init__(self, which: str, residual: float):
        self.which = which
        self.residual = residual
        super().__init__(
            f"{which}: amplitudes not normalized, |x|^2+|y|^2 deviates "
            f"from 1 by {residual:.3e} (tolerance 1e-12)"
        )


class EmptyEnvironmentError(SpinBathError):
    """A model was built with zero environment spins."""


class InvalidParameterError(SpinBathError):
    """A scalar argument is outside its documented domain."""


class DimensionMismatchError(SpinBathError):
    """An observable's environment part count differs from the model's N."""


class IndexOutOfRangeError(SpinBathError):
    """A frequency index nu lies outside [0, 2^N)."""


class CapExceededError(SpinBathError):
    """An enumeration-based routine was asked for more spins than its cap.

    The message carries a memory estimate so the caller can judge
    whether raising the cap is sane on their machine.
    """


class DegenerateSetError(SpinBathError):
    """A point set has no usable structure (e.g. all points coincide)."""


class ConfigError(SpinBathError):
    """A configuration document or CLI value is malformed.

    Attributes
    ----------
    field_path : str
        Dotted path of the offending field, e.g. ``"config.model.inline.spins[1].alpha"``.
    """

    def __init__(self, field_path: str, message: str):
        self.field_path = field_path
        super().__init__(f"{field_path}: {message}")
