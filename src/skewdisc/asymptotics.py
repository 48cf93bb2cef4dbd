"""Closed-form limiting quantities of the direction estimators.

Every affine equivariant estimator here has limiting covariance of the
shared shape C * (tau / ||theta||^2) * Q_theta Sigma^{-1} Q_theta, with
Q_theta the projector onto the orthogonal complement of theta; the
estimators differ only through the scalar C. The method-of-moments
estimator is not affine equivariant and carries its own two-term
covariance. avar_ae and avar_mom return the covariance matrix of
sqrt(n) * (normalized estimate - target) as a plain ndarray; a Sigma
too close to singular to whiten raises NearSingularError.

Scalar constants
----------------
c0_constant : shared by TOBI and JADE3 (and the oracle projection
    pursuit direction).
c_skewvec   : c0 plus a dimension-dependent penalty; always larger.
c_lda       : the supervised baseline, a lower bound for all of them.
"""

import numpy as np

from .errors import WeightDivergenceError
from .linalg import inv_sqrt, projector_pair
from .model import derive

#: Constants are refused closer to the boundary than this: 1 - 4*beta
#: vanishes at alpha1 = 1/2 and tau-identifiability collapses at 1.
WEIGHT_MARGIN = 1e-6

#: Separations outside [1 / TAU_LIMIT, TAU_LIMIT] are refused: beyond them
#: tau^3 and (1 + beta*tau)^4 leave the range of a double.
TAU_LIMIT = 1e77


def _check_weight(alpha1):
    if not 0.5 + WEIGHT_MARGIN < alpha1 < 1.0 - WEIGHT_MARGIN:
        raise WeightDivergenceError(
            f"limiting constants diverge at alpha1 = {alpha1}: the symmetric "
            f"case alpha1 = 0.5 and the single-component case alpha1 = 1 are "
            f"excluded (margin {WEIGHT_MARGIN})"
        )


def _check_tau(tau):
    if not 1.0 / TAU_LIMIT <= tau <= TAU_LIMIT:
        raise ValueError(
            f"tau must lie in [{1.0 / TAU_LIMIT:g}, {TAU_LIMIT:g}], got {tau}")


def c0_constant(alpha1, tau):
    """Limiting constant shared by the eigenvector-based estimators.

    C0 = (1 + b*t) (b*t^2 + 6*b*t + 2) / (b^2 (1 - 4b) t^3)
    with b = alpha1 * (1 - alpha1) and t = tau.
    """
    _check_weight(alpha1)
    _check_tau(tau)
    beta = alpha1 * (1.0 - alpha1)
    bt = beta * tau
    return (1.0 + bt) * (bt * tau + 6.0 * bt + 2.0) / (
        beta ** 2 * (1.0 - 4.0 * beta) * tau ** 3)


def c_skewvec(alpha1, tau, p):
    """Limiting constant of the skewness-vector estimator in dimension
    p: c0 plus 2 (p + 1) (1 + beta*tau)^4 / (beta^2 (1 - 4 beta) tau^3).
    Strictly above c0_constant, and growing linearly in p."""
    if p < 2:
        raise ValueError(f"p must be at least 2, got {p}")
    base = c0_constant(alpha1, tau)
    beta = alpha1 * (1.0 - alpha1)
    correction = 2.0 * (p + 1) * (1.0 + beta * tau) ** 4 / (
        beta ** 2 * (1.0 - 4.0 * beta) * tau ** 3)
    return base + correction


def c_lda(alpha1, tau):
    """Limiting constant of the supervised baseline:
    (1 + beta*tau) / (beta*tau). Lower bound for the unsupervised
    constants; tends to 1 as tau grows."""
    _check_weight(alpha1)
    _check_tau(tau)
    bt = alpha1 * (1.0 - alpha1) * tau
    return (1.0 + bt) / bt


def avar_ae(constant_c, params):
    """Limiting covariance of an affine equivariant estimator with
    scalar constant constant_c:

        C * (tau / ||theta||^2) * Q_theta Sigma^{-1} Q_theta.
    """
    if not constant_c > 0:
        raise ValueError(f"constant_c must be positive, got {constant_c}")
    d = derive(params)
    _, q = projector_pair(d.theta)
    root = inv_sqrt(params.sigma)  # Sigma^{-1} = root^2; refuses a near-singular Sigma
    theta_sq = float(d.theta @ d.theta)
    cov = constant_c * (d.tau / theta_sq) * (q @ (root @ root) @ q)
    return (cov + cov.T) / 2.0


def avar_mom(params):
    """Limiting covariance of the method-of-moments estimator:

        (w1*w2 - tau (1 + beta*tau) / ||theta||^2) Q Sigma^{-1} Q
        + 4 w1 Q (Sigma + beta h h') Q

    with w1 = (1 + beta*tau)^2 / (||h||^4 beta^2 (1 - 4 beta)
    ||theta||^2) and w2 = 2 tr(Sigma^2) + 4 beta h'Sigma h
    + beta (1 - 4 beta) ||h||^4. Not a multiple of Q Sigma^{-1} Q for
    generic Sigma.
    """
    d = derive(params)
    _check_weight(params.alpha1)
    sigma = params.sigma
    h = d.h
    beta = d.beta
    theta_sq = float(d.theta @ d.theta)
    h_sq = float(h @ h)
    one_4b = 1.0 - 4.0 * beta
    w1 = (1.0 + beta * d.tau) ** 2 / (h_sq ** 2 * beta ** 2 * one_4b * theta_sq)
    w2 = (2.0 * float(np.trace(sigma @ sigma))
          + 4.0 * beta * float(h @ sigma @ h)
          + beta * one_4b * h_sq ** 2)
    _, q = projector_pair(d.theta)
    root = inv_sqrt(sigma)  # Sigma^{-1} = root^2; refuses a near-singular Sigma
    first = (w1 * w2 - d.tau * (1.0 + beta * d.tau) / theta_sq) * (q @ (root @ root) @ q)
    second = 4.0 * w1 * (q @ d.c2 @ q)
    cov = first + second
    return (cov + cov.T) / 2.0
