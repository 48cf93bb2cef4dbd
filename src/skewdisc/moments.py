"""Sample moment statistics: mean, covariance, the third-moment vector
and the third-moment slices of whitened data, all as plain ndarrays.

The second moment uses divisor n (not n - 1) throughout, matching the
estimator definitions the asymptotic theory is stated for.
"""

import numpy as np

from .errors import NonFiniteError


def sample_moments(x):
    """Mean and covariance (divisor n) of the rows of an n x p array x.

    Returns
    -------
    (mean, c2) : (ndarray (p,), ndarray (p, p))
        c2 is symmetric to the last bit.

    An x that is not two-dimensional or has fewer than 2 rows raises
    ValueError; a covariance that overflows raises NonFiniteError.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ValueError(f"expected an n x p array, got shape {x.shape}")
    n = x.shape[0]
    if n < 2:
        raise ValueError("need at least 2 observations for sample moments")
    mean = x.mean(axis=0)
    xc = x - mean
    c2 = xc.T @ xc / n
    if not np.isfinite(c2).all():
        raise NonFiniteError("sample covariance overflows; rescale the data")
    return mean, (c2 + c2.T) / 2.0


def third_moment(xc):
    """Third-moment vector (1/n) sum_i x_i ||x_i||^2 of the rows x_i of an
    already centered n x p array xc; it overflows before the covariance."""
    return xc.T @ (xc * xc).sum(axis=1) / xc.shape[0]


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
