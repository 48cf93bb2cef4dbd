"""Sample moment statistics: mean, second and third central moments and
the third-moment slices of whitened data.

The second moment uses divisor n (not n - 1) throughout, matching the
estimator definitions the asymptotic theory is stated for.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteError


@dataclass(frozen=True)
class MomentSet:
    """Sample mean, centered second moment and third-moment vector."""

    mean: np.ndarray
    c2_hat: np.ndarray
    c3_hat: np.ndarray
    n: int


def sample_moments(data):
    """Mean, covariance (divisor n) and third-moment vector of a sample.

    c3_hat = (1/n) sum_i (x_i - mean)(x_i - mean)'(x_i - mean), the
    vector of row-wise squared norms weighted against the centered rows.
    A covariance that overflows raises NonFiniteError. c3_hat overflows
    first, but whitening does not use it, so est_mom, which does, checks it.
    """
    x = data.observations
    n = data.n
    if n < 2:
        raise ValueError("need at least 2 observations for sample moments")
    mean = x.mean(axis=0)
    xc = x - mean
    c2 = xc.T @ xc / n
    if not np.isfinite(c2).all():
        raise NonFiniteError("sample covariance overflows; rescale the data")
    c3 = xc.T @ (xc * xc).sum(axis=1) / n
    return MomentSet(mean=mean, c2_hat=(c2 + c2.T) / 2.0, c3_hat=c3, n=n)


def tk_slices(whitened):
    """Third-moment slices of already centered and whitened data, as one
    (p, p, p) array: slice k is (1/n) sum_i z_i z_i' (e_k' z_i),
    symmetrised so that each slice is symmetric to the last bit.

    One pass per coordinate; no (n, p, p) intermediate is stored.
    """
    z = np.asarray(whitened, dtype=float)
    n, p = z.shape
    t = np.empty((p, p, p))
    for k in range(p):
        t[k] = z.T @ (z * z[:, [k]]) / n
    return (t + t.transpose(0, 2, 1)) / 2.0


def tobi_matrix(tk):
    """Sum of squared third-moment slices, tk a (p, p, p) array of
    symmetric slices; symmetric positive semidefinite by construction."""
    t = sum(s @ s for s in tk)
    return (t + t.T) / 2.0
