"""Direction estimators for the two-component Gaussian location mixture.

Four unsupervised estimators of theta / ||theta||:

MOM      method of moments; needs the true mixture weight, not affine
         equivariant.
SKEWVEC  whitened third-moment (skewness) vector mapped back by the
         whitener.
TOBI     leading eigenvector of the sum of squared third-moment slices
         of whitened data.
JADE3    maximizer of sum_k (v' T_k v)^2 over the unit sphere, found by
         a fixed-point iteration.

Plus the supervised LDA baseline and an experimental projection pursuit
plug-in (PP). SKEWVEC, TOBI and JADE3 are affine equivariant; their
estimates are defined up to sign, which align_sign resolves against a
reference vector.

SKEWVEC, TOBI, JADE3 and PP share one pipeline: whiten(data) centres,
whitens and takes third moments once per dataset and keeps the Whitening
record on the DataSet for every later method; MOM and LDA use the raw
data. The record caches T (Whitening.tk) and the TOBI pair (Whitening.tobi)
that JADE3 starts from. JADE3 and PP share one fixed-point loop on T: PP's
step mean((u'z)^2 z) = T(., u, u) is the coefficient vector of JADE3's.
METHODS, the one method table, is what the CLI and simulations dispatch through.
Every method works on the data times 2^-e, e = linalg._exponent(x) (of x - mean
for MOM), so unit is the same bits at any power-of-two scale of the data.
"""

import functools
import math
from collections import namedtuple
from dataclasses import dataclass, field, replace

import numpy as np

from . import moments as mom
from .asymptotics import c0_constant, c_lda, c_skewvec
from .errors import DegenerateSkewnessError, NonFiniteError, SupervisionRequiredError
from .linalg import _exponent, _norm, inv_sqrt, sym_eigen

MOM = "MOM"
SKEWVEC = "SKEWVEC"
TOBI = "TOBI"
JADE3 = "JADE3"
LDA = "LDA"
PP = "PP"

#: Default fixed-point settings for JADE3 and PP.
DEFAULT_TOL = 1e-12
DEFAULT_MAX_ITER = 200
_MAX_RESTARTS = 5
_UNDERFLOW = 1e-300


@dataclass(frozen=True)
class DirectionEstimate:
    """An estimated direction with its diagnostics.

    raw is the estimator's native output (carrying its Fisher-consistency
    scale), unit the normalized direction, raw_norm ||raw|| taken before raw
    was scaled back into the data's units. For non-iterative methods
    converged is True and iterations 0. notes carries warnings such as a
    tied leading eigenvalue.
    """

    raw: np.ndarray
    unit: np.ndarray
    method: str
    converged: bool
    iterations: int
    notes: tuple = ()
    raw_norm: float = None


@dataclass(frozen=True)
class Whitening:
    """Whitening and third moments of one dataset x, taken on y = x 2^-exponent:
    whitener = C2^{-1/2} of the sample covariance of y (divisor n), whitened
    rows z_i = whitener @ (y_i - mean(y)), c3 = third_moment(z) (only est_mom
    takes the raw data's), whether ||c3|| is below skewness_floor(p) (affine
    invariant, as the whitened covariance trace is p), and, built on first use,
    tk = the T_k slices of z as one (p, p, p) array and tobi = tobi_unit(tk),
    whose DegenerateSkewnessError is kept and raised again on every later use."""

    exponent: int
    whitener: np.ndarray
    whitened: np.ndarray
    c3: np.ndarray
    symmetric: bool
    _tobi: tuple = field(default=None, init=False, repr=False, compare=False)

    def skewness(self):
        """c3; raises DegenerateSkewnessError when the sample looks symmetric."""
        if self.symmetric:
            raise DegenerateSkewnessError(
                "whitened third moment is numerically zero; the sample looks symmetric")
        return self.c3

    @functools.cached_property
    def tk(self):
        return mom.tk_slices(self.whitened)

    @property
    def tobi(self):
        if self._tobi is None:
            try:
                object.__setattr__(self, "_tobi", tobi_unit(self.tk))
            except DegenerateSkewnessError as exc:
                object.__setattr__(self, "_tobi", exc)
        if isinstance(self._tobi, DegenerateSkewnessError):
            raise self._tobi
        return self._tobi


def _estimate(raw, e, method, converged=True, iterations=0, notes=()):
    # raw is 2^e times the data's direction; its norm times 2^-e must be a normal double.
    nrm = _norm(raw)
    if nrm == 0.0:
        raise DegenerateSkewnessError(f"{method} produced a zero direction")
    if not (math.isfinite(nrm) and -1021 <= math.frexp(nrm)[1] - e <= 1024):
        raise NonFiniteError(
            f"{method} produced a direction outside double range; rescale the data")
    return DirectionEstimate(raw=np.ldexp(raw, -e), unit=raw / nrm, method=method,
                             converged=converged, iterations=iterations,
                             notes=tuple(notes), raw_norm=math.ldexp(nrm, -e))


def skewness_floor(c2_trace):
    """Degeneracy floor for third-moment norms: below it the sample is
    treated as symmetric and direction estimation refuses to guess.
    Written so that it stays finite wherever the floor itself is (a float
    ** 1.5 raises OverflowError beyond trace 1e205)."""
    return 1e-10 * c2_trace * c2_trace ** 0.5


def whiten(data):
    """Center and whiten a dataset, scaled as Whitening states, by the
    inverse square root of its sample covariance (divisor n), and take the
    third moments of the whitened rows. The record is built once per
    DataSet and kept on it; its observations must not change afterwards.

    Raises
    ------
    NearSingularError
        If the sample covariance is numerically singular.
    """
    if data.whitening is None:
        e = _exponent(data.observations)
        x = np.ldexp(data.observations, -e)
        mean, c2 = mom.sample_moments(x)
        whitener = inv_sqrt(c2)
        x -= mean
        z = x @ whitener
        del x  # before third_moment's n x p temporary
        c3 = mom.third_moment(z)
        object.__setattr__(data, "whitening", Whitening(
            exponent=e, whitener=whitener, whitened=z, c3=c3,
            symmetric=bool(_norm(c3) < skewness_floor(float(data.p)))))
    return data.whitening


def mom_direction(c2, c3, alpha1):
    """Method-of-moments direction from second and third moments.

    Solves (C2 - b^{1/3} g^{-2/3} ||c3||^{-4/3} c3 c3')^{-1}
    b^{-1/3} g^{-1/3} ||c3||^{-2/3} c3 with b = alpha1 alpha2 and
    g = alpha1 - alpha2. With exact population moments this returns
    theta itself.
    """
    if not 0.5 < alpha1 < 1.0:
        raise ValueError(f"alpha1 must be in (0.5, 1), got {alpha1}")
    c2 = np.asarray(c2, dtype=float)
    c3 = np.asarray(c3, dtype=float)
    alpha2 = 1.0 - alpha1
    beta = alpha1 * alpha2
    gamma = alpha1 - alpha2
    nc3 = _norm(c3)
    inner = c2 - beta ** (1 / 3) * gamma ** (-2 / 3) * nc3 ** (-4 / 3) * np.outer(c3, c3)
    rhs = beta ** (-1 / 3) * gamma ** (-1 / 3) * nc3 ** (-2 / 3) * c3
    return np.linalg.solve(inner, rhs)


def est_mom(data, alpha1):
    """Method-of-moments estimate; requires the true weight alpha1.

    Raises
    ------
    DegenerateSkewnessError
        If the sample third moment is below the degeneracy floor.
    numpy.linalg.LinAlgError
        If the inner matrix is singular.
    NonFiniteError
        If the direction leaves double range.
    """
    # Scaled before centring, so the mean cannot overflow; e + f is the exponent of x - mean.
    e = _exponent(data.observations)
    xc = np.ldexp(data.observations, -e)
    xc -= xc.mean(axis=0)
    f = _exponent(xc)
    np.ldexp(xc, -f, out=xc)
    c2 = mom.second_moment(xc)
    c3 = mom.third_moment(xc)
    if _norm(c3) < skewness_floor(float(np.trace(c2))):
        raise DegenerateSkewnessError(
            "sample third moment is numerically zero; the sample looks symmetric"
        )
    return _estimate(mom_direction(c2, c3, alpha1), e + f, MOM)


def skewvec_direction(whitener, c3_whitened):
    """Skewness-vector direction: the whitener applied to the
    third-moment vector of the whitened data."""
    return np.asarray(whitener) @ np.asarray(c3_whitened, dtype=float)


def est_skewvec(data):
    """Skewness-vector estimate.

    Raises
    ------
    DegenerateSkewnessError
        If the whitened third moment is below the degeneracy floor.
    """
    wh = whiten(data)
    return _estimate(skewvec_direction(wh.whitener, wh.skewness()), wh.exponent, SKEWVEC)


def tobi_unit(tk):
    """Leading unit eigenvector of sum_k T_k^2 in whitened coordinates;
    tk is the (p, p, p) array of slices. Raises DegenerateSkewnessError
    when the trace of that sum, ||T||_F^2, is below skewness_floor(p)^2.

    Returns
    -------
    (u, ambiguous) : (ndarray, bool)
        ambiguous flags a leading eigenvalue gap within 1e-10 relative,
        in which case the returned eigenvector is arbitrary within the
        tied subspace.
    """
    squares = mom.tobi_matrix(tk)
    if np.trace(squares) < skewness_floor(float(len(tk))) ** 2:
        raise DegenerateSkewnessError(
            "whitened third-moment tensor is numerically zero; the sample looks symmetric")
    values, vectors = sym_eigen(squares)
    ambiguous = len(values) > 1 and bool(
        values[0] - values[1] <= 1e-10 * max(abs(values[0]), _UNDERFLOW))
    return vectors[:, 0], ambiguous


def est_tobi(data):
    """Third-order blind identification estimate: whitener times the
    leading eigenvector of the squared-slice sum; raises as tobi_unit
    does. A tied leading eigenvalue is reported through notes, not raised."""
    wh = whiten(data)
    u, ambiguous = wh.tobi
    notes = ("ambiguous leading eigenvalue",) if ambiguous else ()
    return _estimate(wh.whitener @ u, wh.exponent, TOBI, notes=notes)


def _fixed_point(tk, step, init, tol, max_iter, rng):
    # Iterates u <- update / ||update|| on the tensor T = tk, where
    # (update, objective) = step(tu, coef) with tu[k] = T_k u and coef[k] =
    # u' T_k u = T(e_k, u, u), both from one matrix-vector product with the
    # (p*p, p) view of T. An objective (None: nothing to watch) that drops
    # between iterates adds the note "objective decreased". On the contiguous
    # arrays made here ndarray.dot rounds as @ does, at less call overhead;
    # rows @ u keeps @, as rows may view a caller's strided tk.
    if rng is None:
        rng = np.random.default_rng(0)
    p = len(init)
    rows = tk.reshape(p * p, p)
    u = init / _norm(init)
    notes = []
    iterations = 0
    restarts = 0
    prev_obj = None
    while iterations < max_iter:
        tu = (rows @ u).reshape(p, p)
        update, obj = step(tu, tu.dot(u))
        if prev_obj is not None and obj < prev_obj - 1e-12 * max(1.0, prev_obj):
            notes.append("objective decreased")
        prev_obj = obj
        nrm = math.sqrt(update.dot(update))
        if not math.isfinite(nrm) or nrm < _UNDERFLOW:
            if restarts >= _MAX_RESTARTS:
                notes.append("restarts exhausted")
                break
            restarts += 1
            u = rng.standard_normal(len(u))
            u /= _norm(u)
            prev_obj = None
            continue
        new_u = update / nrm
        iterations += 1
        crit = 1.0 - abs(float(new_u.dot(u)))
        u = new_u
        if crit < tol:
            return u, True, iterations, tuple(notes)
    return u, False, iterations, tuple(notes)


def jade3_unit(tk, init, tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER, rng=None):
    """Fixed-point iteration u <- sum_k (u' T_k u) T_k u, renormalized,
    on the unit sphere.

    Stops when 1 - |u_new' u_old| < tol (sign-invariant) or after
    max_iter accepted steps. An update whose norm underflows triggers a
    restart from a fresh random unit vector, at most 5 times. tk is the
    (p, p, p) array of slices.

    Returns
    -------
    (u, converged, iterations, notes)
    """
    return _fixed_point(tk, lambda tu, coef: (coef.dot(tu), float(coef.dot(coef))), init,
                        tol, max_iter, rng)


def est_jade3(data, tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER, rng=None):
    """3-JADE estimate, started from the TOBI eigenvector of the same
    whitened slices (so it raises where TOBI does); restarts draw from rng."""
    wh = whiten(data)
    init, ambiguous = wh.tobi
    notes = ("ambiguous leading eigenvalue in init",) if ambiguous else ()
    u, converged, iterations, jade_notes = jade3_unit(
        wh.tk, init, tol=tol, max_iter=max_iter, rng=rng)
    return _estimate(wh.whitener @ u, wh.exponent, JADE3, converged=converged,
                     iterations=iterations, notes=notes + jade_notes)


def est_lda(data):
    """Supervised baseline: pooled within-class covariance (divisor n)
    inverse applied to the difference of class means, oriented from the
    -1 class toward the +1 class.

    Raises
    ------
    SupervisionRequiredError
        If the dataset has no labels.
    ValueError
        If either class occupies fewer than 2 rows.
    NearSingularError
        If the pooled covariance is numerically singular.
    """
    if data.labels is None:
        raise SupervisionRequiredError("LDA needs labeled data")
    e = _exponent(data.observations)
    neg, pos = (np.ldexp(data.observations[data.labels == s], -e) for s in (-1, 1))
    if len(neg) < 2 or len(pos) < 2:
        raise ValueError("each class must occupy at least 2 rows")
    mean_neg = neg.mean(axis=0)
    mean_pos = pos.mean(axis=0)
    cn = neg - mean_neg
    cp = pos - mean_pos
    s_w = (cn.T @ cn + cp.T @ cp) / data.n
    s_w = (s_w + s_w.T) / 2.0
    root = inv_sqrt(s_w)
    return _estimate(root @ (root @ (mean_pos - mean_neg)), e, LDA)


def est_pp(data, tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER, rng=None):
    """Projection pursuit plug-in (experimental): fixed point
    u <- normalize(mean((u'z)^2 z)) on the whitened data, a stationary
    point of the squared projection skewness, started from the whitened
    third-moment vector, stepping on T(., u, u) of the cached tensor
    whiten(data).tk. Same loop and restart policy as JADE3; may
    legitimately return converged=False.

    Raises
    ------
    DegenerateSkewnessError
        If the whitened third moment is below the degeneracy floor.
    """
    wh = whiten(data)
    c3 = wh.skewness()
    u, converged, iterations, notes = _fixed_point(
        wh.tk, lambda tu, coef: (coef, None), c3, tol, max_iter, rng)
    return _estimate(wh.whitener @ u, wh.exponent, PP, converged=converged,
                     iterations=iterations, notes=notes)


def align_sign(est, reference):
    """Resolve the sign ambiguity of an estimate against a reference
    vector: flip when unit' reference < 0, leave the orthogonal case
    untouched."""
    reference = np.asarray(reference, dtype=float)
    if _norm(reference) == 0.0:
        raise ValueError("sign reference must be nonzero")
    if float(est.unit @ reference) < 0.0:
        return replace(est, raw=-est.raw, unit=-est.unit)
    return est


#: One row of the method table. run(data, alpha1, tol=, max_iter=, rng=)
#: calls the method's est_* function by its name in this module, so a
#: wrapper put there sees every call; alpha1 reaches only MOM, the
#: fixed-point settings only JADE3 and PP. constant(alpha1, tau, p) is the
#: limiting constant of n Var[t' unit] under identity covariance.
Method = namedtuple("Method", "run needs_alpha1 needs_labels constant",
                    defaults=(False, False, None))


def _c0(alpha1, tau, p):
    return c0_constant(alpha1, tau)


#: The method table, keyed by tag in the order methods are listed.
METHODS = {
    MOM: Method(lambda data, alpha1, **fit: est_mom(data, alpha1), needs_alpha1=True),
    SKEWVEC: Method(lambda data, alpha1, **fit: est_skewvec(data), constant=c_skewvec),
    TOBI: Method(lambda data, alpha1, **fit: est_tobi(data), constant=_c0),
    JADE3: Method(lambda data, alpha1, **fit: est_jade3(data, **fit), constant=_c0),
    LDA: Method(lambda data, alpha1, **fit: est_lda(data), needs_labels=True,
                constant=lambda alpha1, tau, p: c_lda(alpha1, tau)),
    PP: Method(lambda data, alpha1, **fit: est_pp(data, **fit), constant=_c0),
}
