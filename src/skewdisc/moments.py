"""Sample moment statistics: mean, covariance, the third-moment vector
and the third-moment tensor of whitened data, all as plain ndarrays.

Every function takes one n x p dataset or a stack of them, shape
(B, n, p), and returns each member's statistic with the stack axis
leading. numpy runs each member's reductions and products on its own
rows, so a member's statistics have the same bits in any stack. The
datasets the package builds are p-major: each member's p columns lie
contiguous over its n rows, so every reduction over rows runs along
memory.

The second moment uses divisor n (not n - 1) throughout, matching the
estimator definitions the asymptotic theory is stated for.
"""

import numpy as np

from .errors import NonFiniteError


def sample_moments(x):
    """Mean and covariance (divisor n) of the rows of an n x p array x, or
    of each member of a (B, n, p) stack.

    Returns
    -------
    (mean, c2) : (ndarray (..., p), ndarray (..., p, p))
        c2 is second_moment(x - mean), symmetric to the last bit.

    An x that is neither an n x p array nor a stack of them, or has fewer
    than 2 rows, raises ValueError; a covariance that overflows raises
    NonFiniteError.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim not in (2, 3):
        raise ValueError(f"expected an n x p array or a stack of them, got shape {x.shape}")
    if x.shape[-2] < 2:
        raise ValueError("need at least 2 observations for sample moments")
    mean = x.mean(axis=-2)
    c2 = second_moment(x - mean[..., None, :])
    if not np.isfinite(c2).all():
        raise NonFiniteError("sample covariance overflows; rescale the data")
    return mean, c2


def second_moment(xc):
    """(1/n) sum_i x_i x_i' of the rows of a centered array xc (or of each
    member of a stack), symmetric."""
    c2 = xc.swapaxes(-1, -2) @ xc / xc.shape[-2]
    return (c2 + c2.swapaxes(-1, -2)) / 2.0


def third_moment(xc):
    """Third-moment vector (1/n) sum_i x_i ||x_i||^2 of the rows x_i of an
    already centered n x p array xc (or of each member of a stack); it
    overflows before the covariance."""
    squares = np.einsum("...ij,...ij->...i", xc, xc)  # ||x_i||^2 with no n x p temporary
    return (xc.swapaxes(-1, -2) @ squares[..., None])[..., 0] / xc.shape[-2]


def tk_slices(whitened):
    """Third-moment tensor T[k, a, b] = (1/n) sum_i z_ik z_ia z_ib of
    already centered and whitened rows z_i, as one (..., p, p, p) array
    whose slice k is T_k; T(e_k, u, u) = (1/n) sum_i z_ik (u'z_i)^2 is the
    projection pursuit step. Only the blocks T[k, k:, k:] are summed, over
    blocks of at most min(8192, 2^15 / p + 1) rows of the coordinate-major
    data (copied so only if z is not p-major), so that each member's
    temporaries hold about 2^15 values or fewer and stay in cache; the
    blocks depend on p alone. The rest is filled by the index symmetry of
    T, which holds to the last bit."""
    z = np.asarray(whitened, dtype=float)
    n, p = z.shape[-2:]
    cols = np.ascontiguousarray(z.swapaxes(-1, -2))
    step = min(8192, 2 ** 15 // p + 1)
    t = np.zeros(z.shape[:-2] + (p, p, p))
    for start in range(0, n, step):
        rows = cols[..., start:start + step]
        for k in range(p):
            t[..., k, k:, k:] += (rows[..., k:, :] * rows[..., k, None, :]) @ \
                rows[..., k:, :].swapaxes(-1, -2)
    for k in range(p):
        block = t[..., k, k:, k:]
        block = (block + block.swapaxes(-1, -2)) / (2.0 * n)
        t[..., k, k:, k:] = t[..., k:, k, k:] = t[..., k:, k:, k] = block
    return t


def tobi_matrix(tk):
    """Sum of squared third-moment slices, tk a (..., p, p, p) array of
    symmetric slices: U U' of the mode-1 unfolding U[a, (k, b)] =
    T[k, a, b]. Symmetric positive semidefinite by construction."""
    p = tk.shape[-1]
    unfolding = tk.swapaxes(-3, -2).reshape(tk.shape[:-3] + (p, p * p))
    t = unfolding @ unfolding.swapaxes(-1, -2)
    return (t + t.swapaxes(-1, -2)) / 2.0
