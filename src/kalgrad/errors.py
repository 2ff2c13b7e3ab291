"""Exception hierarchy shared by all kalgrad modules."""


class KalgradError(Exception):
    """Base class for all kalgrad errors."""


class NumericalError(KalgradError):
    """Base class for runtime numerical failures (CLI exit code 2)."""


class SingularMatrixError(NumericalError):
    """A matrix that must be invertible (or SPD) is numerically singular."""


class NonFiniteError(NumericalError):
    """A map or derivative produced NaN or infinity."""


class PositivityLostError(NumericalError):
    """A covariance or metric matrix lost positive definiteness mid-run."""


class DomainError(NumericalError):
    """A mean parameter left the open domain of its observation family."""


class OutOfSupportError(NumericalError):
    """An observation lies outside the support of its observation family."""


def at_step(exc: NumericalError, t) -> NumericalError:
    """``exc``, the same object, with its message now naming step t, for
    its handler to re-raise."""
    exc.args = (f"{exc} at t = {t}",)
    return exc


class UnknownModelError(KalgradError):
    """Requested built-in model name is not registered."""


class ConfigError(KalgradError):
    """Invalid or incomplete run configuration (CLI exit code 1)."""
