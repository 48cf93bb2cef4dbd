"""Sample moment statistics: mean, second and third central moments and
the third-moment slices of whitened data.

The second moment uses divisor n (not n - 1) throughout, matching the
estimator definitions the asymptotic theory is stated for.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class MomentSet:
    """Sample mean, centered second moment and third-moment vector."""

    mean: np.ndarray
    c2_hat: np.ndarray
    c3_hat: np.ndarray
    n: int


@dataclass(frozen=True)
class TkSet:
    """Third-moment slices T_k of centered, whitened observations.

    slices is one (p, p, p) array: slices[k] = (1/n) sum_i z_i z_i' (e_k' z_i),
    each symmetric. A sequence of (p, p) slices is stacked on construction.
    """

    slices: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.slices, dtype=float)
        gap = np.linalg.norm(s - s.transpose(0, 2, 1), axis=(1, 2))
        if (gap > 1e-10 * np.maximum(np.linalg.norm(s, axis=(1, 2)), 1.0)).any():
            raise ValueError("third-moment slices must be symmetric")
        object.__setattr__(self, "slices", s)

    @property
    def p(self):
        return len(self.slices)


def sample_moments(data):
    """Mean, covariance (divisor n) and third-moment vector of a sample.

    c3_hat = (1/n) sum_i (x_i - mean)(x_i - mean)'(x_i - mean), the
    vector of row-wise squared norms weighted against the centered rows.
    """
    x = data.observations
    n = data.n
    if n < 2:
        raise ValueError("need at least 2 observations for sample moments")
    mean = x.mean(axis=0)
    xc = x - mean
    c2 = xc.T @ xc / n
    c3 = xc.T @ (xc * xc).sum(axis=1) / n
    return MomentSet(mean=mean, c2_hat=(c2 + c2.T) / 2.0, c3_hat=c3, n=n)


def tk_slices(whitened):
    """Third-moment slices of already centered and whitened data.

    One pass per coordinate; no (n, p, p) intermediate is stored.
    """
    z = np.asarray(whitened, dtype=float)
    n, p = z.shape
    t = np.empty((p, p, p))
    for k in range(p):
        t[k] = z.T @ (z * z[:, [k]]) / n
    return TkSet(slices=(t + t.transpose(0, 2, 1)) / 2.0)


def tobi_matrix(tk):
    """Sum of squared third-moment slices; symmetric positive
    semidefinite by construction."""
    t = sum(s @ s for s in tk.slices)
    return (t + t.T) / 2.0
