"""Dense symmetric linear algebra shared by the whole package.

Everything here is a pure function built on numpy's symmetric
eigensolver. The inverse square root deliberately goes through the full
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


def _fix_sign(vectors):
    # Sign convention: the first coordinate of largest absolute value is
    # made nonnegative, so repeated decompositions are bitwise stable.
    idx = np.argmax(np.abs(vectors), axis=0)
    signs = np.sign(vectors[idx, np.arange(vectors.shape[1])])
    signs[signs == 0] = 1.0
    return vectors * signs


def sym_eigen(m):
    """Full eigendecomposition of a symmetric matrix.

    Parameters
    ----------
    m : ndarray, shape (p, p)
        Symmetric matrix, lower triangle read; nan or inf: NonFiniteError.

    Returns
    -------
    (values, vectors) : (ndarray (p,), ndarray (p, p))
        Eigenvalues in descending order; column i of vectors is the
        eigenvector of values[i]. Eigenvectors are orthonormal and
        sign-fixed (largest-magnitude coordinate nonnegative).
    """
    if not np.isfinite(m).all():
        raise NonFiniteError("matrix has non-finite entries")
    vals, vecs = np.linalg.eigh(m)
    return vals[::-1], _fix_sign(vecs)[:, ::-1]


def inv_sqrt(m):
    """Symmetric inverse square root of a positive definite matrix.

    Parameters
    ----------
    m : ndarray, shape (p, p)
        Symmetric matrix, lower triangle read; nan or inf: NonFiniteError.
        Eigenvalues at or below SINGULARITY_RTOL * max(eigenvalue) raise;
        regularizing silently would make every downstream whitening
        meaningless.

    Returns
    -------
    ndarray, shape (p, p)
        The unique symmetric positive definite R with R @ m @ R = I,
        symmetric to the last bit.

    Raises
    ------
    NearSingularError
        If the smallest eigenvalue is at or below the floor.
    """
    if not np.isfinite(m).all():
        raise NonFiniteError("matrix has non-finite entries")
    vals, vecs = np.linalg.eigh(m)
    if vals[0] <= SINGULARITY_RTOL * vals[-1] or vals[-1] <= 0.0:
        raise NearSingularError(
            f"covariance is numerically singular: eigenvalue range "
            f"[{vals[0]:.3e}, {vals[-1]:.3e}], relative floor {SINGULARITY_RTOL:.1e}")
    root = (vecs / np.sqrt(vals)) @ vecs.T
    return (root + root.T) / 2.0


def projector_pair(v):
    """Orthogonal projectors onto span(v) and its complement.

    Returns
    -------
    (P, Q) : pair of ndarray, each (p, p)
        P = v v' / ||v||^2 and Q = I - P.
    """
    v = np.asarray(v, dtype=float)
    nrm2 = float(v @ v)
    if nrm2 == 0.0:
        raise ValueError("cannot project onto the zero vector")
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
