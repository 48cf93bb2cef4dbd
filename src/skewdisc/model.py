"""Two-component Gaussian location mixture: parameters, sampling and
closed-form population moments.

The generative model is x ~ alpha1 N(mu1, Sigma) + alpha2 N(mu2, Sigma)
with shared covariance and alpha1 in (0.5, 1). The optimal projection
direction for separating the components is theta / ||theta|| with
theta = Sigma^{-1} h and h = mu2 - mu1.

All population moment formulas below are stated for the centered
parametrization mu1 = -alpha2 h, mu2 = alpha1 h (so E x = 0); the public
functions shift arbitrary means internally. Second- and higher-order
central moments do not depend on the shift.
"""

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import NonFiniteError, SymmetryError
from .linalg import _exponent, commutation_matrix, inv_sqrt

#: Relative symmetry tolerance for a given sigma.
SYMMETRY_RTOL = 1e-12


@dataclass(frozen=True)
class MixtureParams:
    """Parameters of the two-component location mixture.

    alpha1 is the weight of component 1 and must lie in (0.5, 1); the
    perfectly symmetric case alpha1 = 0.5 is excluded because skewness
    carries no direction information there. The means must be finite.
    sigma must be finite (else NonFiniteError) and symmetric, with
    ||sigma - sigma'||_F <= 1e-12 max(||sigma||_F, 1) at any finite scale
    (else SymmetryError), with strictly positive eigenvalues (else
    ValueError); it is kept as a read-only copy.
    """

    alpha1: float
    mu1: np.ndarray
    mu2: np.ndarray
    sigma: np.ndarray

    def __post_init__(self):
        if not 0.5 < self.alpha1 < 1.0:
            raise ValueError(f"alpha1 must be in (0.5, 1), got {self.alpha1}")
        mu1 = np.asarray(self.mu1, dtype=float)
        mu2 = np.asarray(self.mu2, dtype=float)
        if mu1.shape != mu2.shape or mu1.ndim != 1:
            raise ValueError("mu1 and mu2 must be vectors of equal length")
        if not (np.isfinite(mu1).all() and np.isfinite(mu2).all()):
            raise ValueError("mu1 and mu2 must be finite")
        if np.array_equal(mu1, mu2):
            raise ValueError("mu1 and mu2 must differ (degenerate mixture)")
        sigma = np.array(self.sigma, dtype=float)
        if sigma.shape != (len(mu1), len(mu1)):
            raise ValueError("sigma shape does not match the mean vectors")
        # Checked first: the comparison below is False for NaN.
        if not np.isfinite(sigma).all():
            raise NonFiniteError("matrix has non-finite entries")
        # At unit scale, so the verdict is scale-free and no sum of squares overflows.
        scaled = np.ldexp(sigma, -_exponent(sigma))
        scale = np.linalg.norm(scaled)
        gap = np.linalg.norm(scaled - scaled.T)
        if gap > SYMMETRY_RTOL * scale:
            raise SymmetryError(
                f"matrix is not symmetric: asymmetry {gap / scale:.3e} exceeds "
                f"{SYMMETRY_RTOL:.1e} relative")
        smallest = np.linalg.eigvalsh(sigma)[0]
        if smallest <= 0.0:
            raise ValueError(
                f"matrix is not positive definite: smallest eigenvalue {smallest:.3e}")
        sigma.flags.writeable = False
        object.__setattr__(self, "mu1", mu1)
        object.__setattr__(self, "mu2", mu2)
        object.__setattr__(self, "sigma", sigma)

    @property
    def p(self):
        return len(self.mu1)

    @functools.cached_property
    def cholesky(self):
        """The lower Cholesky factor of sigma, computed on first use."""
        return np.linalg.cholesky(self.sigma)


@dataclass(frozen=True)
class DerivedParams:
    """Every derived population symbol of the mixture.

    h      mean difference mu2 - mu1
    theta  Sigma^{-1} h, the unnormalized discriminant direction
    tau    h' Sigma^{-1} h, squared Mahalanobis distance of the means
    beta   alpha1 * alpha2
    gamma  alpha1 - alpha2
    delta  (1 + beta tau)^{-1/2}
    c2     Sigma + beta h h', the covariance of x
    """

    h: np.ndarray
    theta: np.ndarray
    tau: float
    beta: float
    gamma: float
    delta: float
    c2: np.ndarray


@dataclass(frozen=True)
class DataSet:
    """An n x p observation matrix, or a stack of B of them as one (B, n, p)
    array, with optional component labels of shape (n,) or (B, n).

    Labels take values in {-1, +1}; component 1 maps to -1. The
    observations are kept p-major: each member's p columns lie contiguous
    over its n rows (an array laid out otherwise is copied so). whitening
    keeps the record of stages that estimators build, for every later
    estimator and every member.
    """

    observations: np.ndarray
    labels: np.ndarray | None = None
    whitening: object = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        obs = np.asarray(self.observations, dtype=float)
        if obs.ndim not in (2, 3):
            raise ValueError("observations must be an n x p matrix or a stack of them")
        if not np.isfinite(obs).all():
            raise ValueError("observations must be finite (no nan or inf)")
        if not obs.swapaxes(-1, -2).flags.c_contiguous:
            obs = np.ascontiguousarray(obs.swapaxes(-1, -2)).swapaxes(-1, -2)
        object.__setattr__(self, "observations", obs)
        if self.labels is not None:
            lab = np.asarray(self.labels)
            if lab.shape != obs.shape[:-1]:
                raise ValueError("labels length must match the number of rows")
            if not ((lab == 1) | (lab == -1)).all():
                raise ValueError("labels must take values in {-1, +1}")
            object.__setattr__(self, "labels", np.where(lab == 1, 1, -1))

    @property
    def n(self):
        return self.observations.shape[-2]

    @property
    def p(self):
        return self.observations.shape[-1]


@dataclass(frozen=True)
class PopulationMoments:
    """Closed-form covariance blocks of (x, x kron x, x x'x) for the
    centered mixture, plus the moments c2 and c3 themselves.

    Kronecker coordinates are laid out so that (x kron x)[i*p + j]
    equals x_i x_j, matching numpy.kron. cov_x_xkronx.reshape(p, p, p) is
    the third moment tensor; for a whitened law its slices are the T_k.
    """

    c2: np.ndarray
    c3: np.ndarray
    cov_x_xkronx: np.ndarray
    cov_xkronx: np.ndarray
    cov_x_xxtx: np.ndarray
    cov_xkronx_xxtx: np.ndarray
    cov_xxtx: np.ndarray


def derive(params):
    """Compute all derived population symbols from the raw parameters."""
    h = params.mu2 - params.mu1
    theta = np.linalg.solve(params.sigma, h)
    tau = float(h @ theta)
    alpha2 = 1.0 - params.alpha1
    beta = params.alpha1 * alpha2
    gamma = params.alpha1 - alpha2
    delta = (1.0 + beta * tau) ** -0.5
    return DerivedParams(h=h, theta=theta, tau=tau, beta=beta, gamma=gamma,
                         delta=delta, c2=params.sigma + beta * np.outer(h, h))


def sample(params, n, rng):
    """Draw n observations from the mixture; with rng a sequence of B
    generators, a (B, n, p) stack whose member b is drawn by rng[b] from
    params[b], or from params itself when it is one MixtureParams.

    Each row comes from component 1 with probability alpha1 (label -1)
    and from component 2 otherwise (label +1). A member's draw is fully
    determined by the state of its generator: first n uniforms pick the
    components, then n*p standard normals supply the noise. One
    MixtureParams factors its sigma once, however often it is drawn from.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    stacked = not isinstance(rng, np.random.Generator)
    rngs = list(rng) if stacked else [rng]
    each = [params] * len(rngs) if isinstance(params, MixtureParams) else list(params)
    p = each[0].p
    from_first = np.empty((len(rngs), n), dtype=bool)
    obs = np.empty((len(rngs), p, n))
    for b, (draw, member) in enumerate(zip(rngs, each)):
        # Member b's slot, read as n x p, holds its noise, then its means,
        # then its rows, so that a member needs one n x p temporary.
        slot = obs[b].reshape(n, p)
        from_first[b] = draw.random(n) < member.alpha1
        draw.standard_normal(out=slot)
        rows = slot @ member.cholesky.T
        np.take((member.mu2, member.mu1), from_first[b].astype(np.intp), axis=0, out=slot,
                mode="clip")
        rows += slot
        obs[b] = rows.T
    labels = np.where(from_first, -1, 1)
    if not stacked:
        obs, labels = obs[0], labels[0]
    return DataSet(observations=obs.swapaxes(-1, -2), labels=labels)


def population_moments(params):
    """Evaluate the six closed-form covariance blocks of
    (x, x kron x, x x'x) for the centered version of ``params``.

    Returns
    -------
    PopulationMoments
        c2 = Sigma + beta h h'
        c3 = beta gamma ||h||^2 h
        and the four higher-order blocks; see the field docstrings.
    """
    d = derive(params)
    sigma = params.sigma
    h = d.h
    beta, gamma = d.beta, d.gamma
    p = params.p
    hh = np.outer(h, h)
    nh2 = float(h @ h)
    tr_s = float(np.trace(sigma))
    s2 = sigma @ sigma
    k_pp = commutation_matrix(p)
    kron_h = np.kron(h, h)

    c3 = beta * gamma * nh2 * h

    cov_x_xkronx = beta * gamma * np.outer(h, kron_h)

    cov_x_xxtx = (
        tr_s * sigma + 2.0 * s2
        + 2.0 * beta * (hh @ sigma) + 2.0 * beta * (sigma @ hh)
        + beta * nh2 * sigma + beta * tr_s * hh
        + beta * (1.0 - 3.0 * beta) * nh2 * hh
    )

    cov_xkronx = (
        (np.eye(p * p) + k_pp)
        @ (np.kron(sigma, sigma) + beta * np.kron(hh, sigma) + beta * np.kron(sigma, hh))
        + beta * (1.0 - 4.0 * beta) * np.kron(hh, hh)
    )

    col_h = h[:, None]
    cov_xkronx_xxtx = (
        beta * gamma * (tr_s + (1.0 - 3.0 * beta) * nh2) * np.outer(kron_h, h)
        + 2.0 * beta * gamma
        * ((np.kron(np.eye(p), sigma) + np.kron(sigma, np.eye(p))) @ np.outer(kron_h, h))
        + 2.0 * beta * gamma * np.outer(kron_h, sigma @ h)
        + beta * gamma * nh2 * np.kron(col_h, sigma)
        + beta * gamma * nh2 * np.kron(sigma, col_h)
    )

    # Two coefficients below are (1 - 3 beta), not gamma; the gathered
    # sixth moment has no odd dependence on the weight difference.
    cov_xxtx = (
        4.0 * beta * tr_s * (sigma @ hh)
        + 8.0 * beta * (s2 @ hh)
        + 4.0 * beta * (1.0 - 3.0 * beta) * nh2 * (sigma @ hh)
        + (2.0 * float(np.trace(s2)) + tr_s ** 2) * d.c2
        + 4.0 * (cov_x_xxtx @ sigma)
        + beta * (2.0 * tr_s * nh2 + 4.0 * float(h @ sigma @ h))
        * (sigma + (1.0 - 3.0 * beta) * hh)
        + beta * (1.0 - 3.0 * beta) * nh2 ** 2 * (sigma + (1.0 - 3.0 * beta) * hh)
    )

    return PopulationMoments(
        c2=(d.c2 + d.c2.T) / 2.0,
        c3=c3,
        cov_x_xkronx=cov_x_xkronx,
        cov_xkronx=(cov_xkronx + cov_xkronx.T) / 2.0,
        cov_x_xxtx=(cov_x_xxtx + cov_x_xxtx.T) / 2.0,
        cov_xkronx_xxtx=cov_xkronx_xxtx,
        cov_xxtx=(cov_xxtx + cov_xxtx.T) / 2.0,
    )


def whitened_mixture(params):
    """The exact law of C2^{-1/2} (x - E x).

    Useful for injecting exact population moments into the estimators:
    the whitened variable is again a two-component location mixture,
    with mean difference C2^{-1/2} h and component covariance
    C2^{-1/2} Sigma C2^{-1/2}. A C2 outside double range raises
    NonFiniteError, with no overflow warning before it.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        d = derive(params)
    root = inv_sqrt(d.c2)
    h_w = root @ d.h
    sigma_w = root @ params.sigma @ root
    alpha2 = 1.0 - params.alpha1
    return MixtureParams(
        alpha1=params.alpha1,
        mu1=-alpha2 * h_w,
        mu2=params.alpha1 * h_w,
        sigma=(sigma_w + sigma_w.T) / 2.0,
    )
