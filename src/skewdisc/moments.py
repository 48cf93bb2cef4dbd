"""Sample moment statistics: mean, covariance, the third-moment vector
and the third-moment tensor of whitened data, all as plain ndarrays.

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
        c2 is second_moment(x - mean), symmetric to the last bit.

    An x that is not two-dimensional or has fewer than 2 rows raises
    ValueError; a covariance that overflows raises NonFiniteError.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ValueError(f"expected an n x p array, got shape {x.shape}")
    if x.shape[0] < 2:
        raise ValueError("need at least 2 observations for sample moments")
    mean = x.mean(axis=0)
    c2 = second_moment(x - mean)
    if not np.isfinite(c2).all():
        raise NonFiniteError("sample covariance overflows; rescale the data")
    return mean, c2


def second_moment(xc):
    """(1/n) sum_i x_i x_i' of the rows of a centered array xc, symmetric."""
    c2 = xc.T @ xc / xc.shape[0]
    return (c2 + c2.T) / 2.0


def third_moment(xc):
    """Third-moment vector (1/n) sum_i x_i ||x_i||^2 of the rows x_i of an
    already centered n x p array xc; it overflows before the covariance."""
    return xc.T @ (xc * xc).sum(axis=1) / xc.shape[0]


def tk_slices(whitened):
    """Third-moment tensor T[k, a, b] = (1/n) sum_i z_ik z_ia z_ib of
    already centered and whitened rows z_i, as one (p, p, p) array whose
    slice k is T_k; T(e_k, u, u) = (1/n) sum_i z_ik (u'z_i)^2 is the
    projection pursuit step. Only the blocks T[k, k:, k:] are summed, over
    blocks of at most min(8192, 2^15 / p + 1) rows copied coordinate-major,
    so that each temporary holds about 2^15 values or fewer and stays in
    cache; the rest is filled by the index symmetry of T, which holds to
    the last bit."""
    z = np.asarray(whitened, dtype=float)
    n, p = z.shape
    step = min(8192, 2 ** 15 // p + 1)
    t = np.zeros((p, p, p))
    for rows in np.split(z, range(step, n, step)):
        cols = rows.T.copy()
        for k in range(p):
            t[k, k:, k:] += (cols[k:] * cols[k]) @ cols[k:].T
    for k in range(p):
        block = (t[k, k:, k:] + t[k, k:, k:].T) / (2.0 * n)
        t[k, k:, k:] = t[k:, k, k:] = t[k:, k:, k] = block
    return t


def tobi_matrix(tk):
    """Sum of squared third-moment slices, tk a (p, p, p) array of
    symmetric slices: U U' of the mode-1 unfolding U[a, (k, b)] =
    T[k, a, b]. Symmetric positive semidefinite by construction."""
    unfolding = tk.transpose(1, 0, 2).reshape(len(tk), -1)
    t = unfolding @ unfolding.T
    return (t + t.T) / 2.0
