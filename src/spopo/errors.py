"""Exception hierarchy with stable machine-readable error codes.

The CLI prints ``{"error": code, "message": ...}`` on stderr and exits with
``exit_code``: 2 for a config error, 3 for a physics-domain refusal
(``validation-error``, ``spectral-leakage``, ``at-threshold``,
``no-finite-threshold``), 4 for a numerical failure.
"""


class SpopoError(Exception):
    """Base class; ``code`` is the stable string emitted by the CLI."""

    code = "error"
    exit_code = 1


class ConfigError(SpopoError):
    """Malformed or inconsistent scenario configuration."""

    code = "config-error"
    exit_code = 2


class ValidationError(SpopoError):
    """Physical-domain precondition violated (bad matrix, bad parameter)."""

    code = "validation-error"
    exit_code = 3


class SpectralLeakageError(ValidationError):
    """Pump spectrum does not fit inside the frequency window."""

    code = "spectral-leakage"
    exit_code = 3


class AtThresholdError(SpopoError):
    """Operating point at or above the oscillation threshold: the cavity
    input-output map is singular there, or the pulse-train closed forms
    diverge (|r| e^g > 1).  ``theta`` is the comb shift where the cavity
    map failed, when one did."""

    code = "at-threshold"
    exit_code = 3

    def __init__(self, message, theta=None):
        super().__init__(message)
        self.theta = theta


class NoFiniteThresholdError(SpopoError):
    """cos(delta_rt + delta0) = 0: no finite oscillation threshold."""

    code = "no-finite-threshold"
    exit_code = 3


class NumericalError(SpopoError):
    """Internal numerical failure (should not occur below threshold)."""

    code = "numerical-failure"
    exit_code = 4
