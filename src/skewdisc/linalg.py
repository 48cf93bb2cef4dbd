"""Dense symmetric linear algebra shared by the whole package.

Everything here is a pure function built on numpy's symmetric
eigensolver; the two eigensolvers take one matrix or a stack of them,
with the stack axes leading. The inverse square root deliberately goes through the full
eigendecomposition (not Cholesky or a Newton iteration) so that the
result is the unique symmetric positive definite root and so that the
singularity floor is an explicit, testable quantity. The eigensolvers
check finiteness (eigh gives NaN for a nan or inf entry), not symmetry:
each caller passes a matrix it has just symmetrised or a checked sigma.
"""

import numpy as np

from .errors import NearSingularError, NonFiniteError

#: Relative eigenvalue floor below which a covariance counts as singular.
SINGULARITY_RTOL = 1e-12


def _norm(a):
    # np.linalg.norm(a) of a real array, bit for bit, without its argument handling.
    v = a.ravel("K")
    return np.sqrt(v.dot(v))


def _exponent(a, axis=None):
    # The one power-of-two scale e, 0 for a zero a: a * 2^-e peaks in [0.5, 1);
    # one per entry left when axis is reduced. max(max, -min) is max |a| with
    # no |a| temporary.
    return np.frexp(np.maximum(a.max(axis), -a.min(axis)))[1]


def _fix_sign(vectors):
    # Sign convention: the first coordinate of largest absolute value is
    # made nonnegative, so repeated decompositions are bitwise stable.
    idx = np.argmax(np.abs(vectors), axis=-2)
    signs = np.sign(np.take_along_axis(vectors, idx[..., None, :], axis=-2))
    signs[signs == 0] = 1.0
    return vectors * signs


def sym_eigen(m):
    """Full eigendecomposition of a symmetric matrix.

    Parameters
    ----------
    m : ndarray, shape (..., p, p)
        Symmetric matrices, lower triangle read; nan or inf: NonFiniteError.

    Returns
    -------
    (values, vectors) : (ndarray (..., p), ndarray (..., p, p))
        Eigenvalues in descending order; column i of vectors is the
        eigenvector of values[i]. Eigenvectors are orthonormal and
        sign-fixed (largest-magnitude coordinate nonnegative).
    """
    if not np.isfinite(m).all():
        raise NonFiniteError("matrix has non-finite entries")
    vals, vecs = np.linalg.eigh(m)
    return vals[..., ::-1], _fix_sign(vecs)[..., ::-1]


def inv_sqrt(m):
    """Symmetric inverse square root of a positive definite matrix, or of
    each matrix of a stack.

    Parameters
    ----------
    m : ndarray, shape (..., p, p)
        Symmetric matrices, lower triangle read; nan or inf: NonFiniteError.
        Eigenvalues at or below SINGULARITY_RTOL * max(eigenvalue) raise;
        regularizing silently would make every downstream whitening
        meaningless.

    Returns
    -------
    ndarray, shape (..., p, p)
        The unique symmetric positive definite R with R @ m @ R = I,
        symmetric to the last bit.

    Raises
    ------
    NearSingularError
        If the smallest eigenvalue of a matrix is at or below the floor; the
        message gives the first such matrix's range.
    """
    if not np.isfinite(m).all():
        raise NonFiniteError("matrix has non-finite entries")
    vals, vecs = np.linalg.eigh(m)
    low, high = vals[..., 0], vals[..., -1]
    singular = (low <= SINGULARITY_RTOL * high) | (high <= 0.0)
    if singular.any():
        i = np.argmax(singular)
        raise NearSingularError(
            f"covariance is numerically singular: eigenvalue range "
            f"[{low.flat[i]:.3e}, {high.flat[i]:.3e}], relative floor {SINGULARITY_RTOL:.1e}")
    root = (vecs / np.sqrt(vals)[..., None, :]) @ vecs.swapaxes(-1, -2)
    return (root + root.swapaxes(-1, -2)) / 2.0


def projector_pair(v):
    """Orthogonal projectors onto span(v) and its complement. A zero v raises
    ValueError, a nonzero v whose squared norm underflows NonFiniteError.

    Returns
    -------
    (P, Q) : pair of ndarray, each (p, p)
        P = v v' / ||v||^2 and Q = I - P.
    """
    v = np.asarray(v, dtype=float)
    if not v.any():
        raise ValueError("cannot project onto the zero vector")
    nrm2 = float(v @ v)
    if nrm2 < np.finfo(float).tiny:
        raise NonFiniteError("the squared norm of the vector underflows; rescale it")
    p_mat = np.outer(v, v) / nrm2
    return p_mat, np.eye(len(v)) - p_mat


def commutation_matrix(p):
    """The (p, p)-commutation matrix K with K vec(A) = vec(A') for all A.

    vec stacks columns (Fortran order). K is symmetric, orthogonal and
    an involution.
    """
    if p < 1:
        raise ValueError("p must be a positive integer")
    r = np.arange(p * p)
    return np.eye(p * p)[r % p * p + r // p]  # row i p + j is e_(j p + i)


def kron_sum_inverse(alpha, u):
    """Closed-form inverse of {I kron (I + a uu')} + {(I + a uu') kron I}.

    Parameters
    ----------
    alpha : float
        Nonnegative scalar a.
    u : array_like, shape (p,)
        Unit vector (within 1e-10).

    Returns
    -------
    ndarray, shape (p^2, p^2)
        (1 / (2(a+2))) [I kron I + (a+1) (B kron B)] with
        B = I - (a/(a+1)) uu'.
    """
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    u = np.asarray(u, dtype=float)
    if abs(np.linalg.norm(u) - 1.0) > 1e-10:
        raise ValueError("u must be a unit vector")
    b = np.eye(len(u)) - (alpha / (alpha + 1.0)) * np.outer(u, u)
    return (np.eye(b.size) + (alpha + 1.0) * np.kron(b, b)) / (2.0 * (alpha + 2.0))
