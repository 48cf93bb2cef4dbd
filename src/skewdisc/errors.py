"""Exception types raised by the estimation pipeline.

Data-dependent numeric failures get their own classes so that callers
(the simulation harness, the CLI) can tell them apart from plain misuse,
which is reported through ValueError.
"""


class Error(Exception):
    """Base class for all skewdisc errors."""


class SymmetryError(Error):
    """A matrix that must be symmetric is not, beyond tolerance."""


class NearSingularError(Error):
    """A covariance matrix is too close to singular to whiten."""


class DegenerateSkewnessError(Error):
    """The sample third moment is numerically zero; the sample looks
    symmetric and the discriminant direction is unidentifiable."""


class NonFiniteError(Error):
    """A moment or a direction is not finite although the data are: the
    data's scale overflows double precision."""


class SupervisionRequiredError(Error):
    """A supervised estimator was called on data without labels."""


class WeightDivergenceError(Error):
    """A limiting constant was requested for a mixture weight at which
    the asymptotic theory degenerates (alpha1 too close to 1/2 or 1)."""


class ConfigError(Error):
    """An experiment configuration is invalid; the message names the field."""


class WorkerError(Error):
    """A worker process died before it sent back its share of the work."""
