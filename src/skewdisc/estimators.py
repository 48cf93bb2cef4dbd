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

Every method reads the record of its DataSet (Whitening), whose stages run
on first use for every member of a stacked DataSet at once: the whitening,
centring and third moments of whiten(data), the cached T (tk) and TOBI pair
(tobi) that JADE3 starts from, MOM's centred moments and LDA's class moments.
The est_* functions, the fixed-point loop JADE3 and PP share and the reports
stay per member. JADE3 and PP step on T: PP's step mean((u'z)^2 z) = T(., u, u)
is the coefficient vector of JADE3's. METHODS, the one method table, is what
the CLI and simulations dispatch through. Every method works on the data times
2^-e, e = linalg._exponent(x) (of x - mean for MOM), so unit is the same bits
at any power-of-two scale of the data.
"""

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from . import moments as mom
from .asymptotics import c0_constant, c_lda, c_skewvec
from .errors import DegenerateSkewnessError, Error, NonFiniteError, SupervisionRequiredError
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


class Whitening:
    """The record of one DataSet x, kept on it: named stages, each computed
    on first use for every member of a stacked DataSet by one call of the
    layer functions. A stage that raises is run again member by member, each
    member a stack of one, so every member keeps its own values or its own
    error, which is raised again on every later use; a member's values have
    the same bits in any stack. The stages, each on y = x 2^-exponent:

    whiten  exponent; whitener = C2^{-1/2} of the sample covariance of y
            (divisor n); the whitened rows z_i = whitener @ (y_i - mean(y)),
            p-major; c3 = third_moment(z) (only MOM takes the raw data's);
            whether ||c3|| is below skewness_floor(p) (affine invariant, as
            the whitened covariance trace is p)
    tk      the T_k slices of z as one (p, p, p) array per member
    tobi    tobi_unit(tk)
    mom     MOM's centred moments: its e + f; c2 and c3 of the data centred
            and scaled by 2^-(e + f); whether ||c3|| is below
            skewness_floor(trace c2)
    lda     LDA's exponent and direction

    exponent, whitener, whitened, c3, symmetric, tk and tobi are the values
    of the whole DataSet, a stack axis leading; they raise the error of the
    first member that has one."""

    def __init__(self, data):
        self._stacked = data.observations.ndim == 3
        self._blocks = {None: [(0, len(data.observations) if self._stacked else 1,
                                (data.observations, data.labels))]}
        self._members = {}

    def _run(self, name):
        # Fills _blocks[name], [(lo, hi, values of members lo..hi-1 or one
        # member's error)], split into single members only where one raised,
        # and _members[name], each member's values or error.
        source, compute = _STAGES[name]
        if source not in self._blocks:
            self._run(source)
        blocks = self._blocks[name] = [block for lo, hi, value in self._blocks[source]
                                       for block in _computed(compute, lo, hi, value)]
        self._members[name] = [
            value if isinstance(value, Exception) or not self._stacked
            else tuple(v[i] for v in value)
            for lo, hi, value in blocks for i in range(hi - lo)]

    def member(self, name, b):
        """Stage name's values of member b of a stacked DataSet (b None for an
        unstacked one); raises the member's error."""
        if (b is None) == self._stacked:
            raise ValueError("a stacked DataSet needs a member index, an unstacked one none")
        if name not in self._members:
            self._run(name)
        value = self._members[name][b or 0]
        if isinstance(value, Exception):
            raise value
        return value

    def _whole(self, name):
        # Stage name's values of the whole DataSet; raises the first member's error.
        if name not in self._members:
            self._run(name)
        for value in self._members[name]:
            if isinstance(value, Exception):
                raise value
        return self._blocks[name][0][2]

    exponent = property(lambda self: self._whole("whiten")[0])
    whitener = property(lambda self: self._whole("whiten")[1])
    whitened = property(lambda self: self._whole("whiten")[2])
    c3 = property(lambda self: self._whole("whiten")[3])
    symmetric = property(lambda self: self._whole("whiten")[4])
    tk = property(lambda self: self._whole("tk")[0])
    tobi = property(lambda self: self._whole("tobi"))


def _computed(compute, lo, hi, value):
    # The blocks of compute(*value) for members lo..hi-1, one per member
    # where it raises for several.
    if isinstance(value, Exception):
        return [(lo, hi, value)]
    try:
        return [(lo, hi, compute(*value))]
    except (Error, ValueError) as exc:  # LinAlgError is a ValueError
        if hi - lo == 1:
            return [(lo, hi, exc)]
    return [block for b in range(lo, hi) for block in _computed(
        compute, b, b + 1, tuple(None if v is None else v[b - lo:b - lo + 1] for v in value))]


def _record(data):
    if data.whitening is None:
        object.__setattr__(data, "whitening", Whitening(data))
    return data.whitening


def _estimate(raw, e, method, converged=True, iterations=0, notes=()):
    # raw is 2^e times the data's direction; its norm times 2^-e must be a normal double.
    e = int(e)
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


def whiten(data, member=None):
    """Center and whiten a dataset, scaled as Whitening states, by the
    inverse square root of its sample covariance (divisor n), and take the
    third moments of the whitened rows, for every member of a stack at once.
    Returns the record of data, which is built once per DataSet and kept on
    it; its observations must not change afterwards.

    Raises
    ------
    NearSingularError
        If the sample covariance of member (of any member, for member
        None) is numerically singular.
    """
    record = _record(data)
    if member is None:
        record._whole("whiten")
    else:
        record.member("whiten", member)
    return record


def _whitening(x):
    # The whiten stage of Whitening, for x of shape (..., n, p).
    e = _exponent(x, (-2, -1))
    y = np.ldexp(x, -e[..., None, None])
    mean, c2 = mom.sample_moments(y)
    whitener = inv_sqrt(c2)
    y -= mean[..., None, :]
    z = (whitener @ y.swapaxes(-1, -2)).swapaxes(-1, -2)
    del y  # before third_moment's n x p temporary
    c3 = mom.third_moment(z)
    return e, whitener, z, c3, np.sqrt((c3 * c3).sum(axis=-1)) < skewness_floor(x.shape[-1])


def _centred_moments(x):
    # The mom stage: scaled before centring, so the mean cannot overflow;
    # e + f is the exponent of x - mean.
    e = _exponent(x, (-2, -1))
    xc = np.ldexp(x, -e[..., None, None])
    xc -= xc.mean(axis=-2)[..., None, :]
    f = _exponent(xc, (-2, -1))
    np.ldexp(xc, -f[..., None, None], out=xc)
    c2, c3 = mom.second_moment(xc), mom.third_moment(xc)
    trace = np.trace(c2, axis1=-2, axis2=-1)
    return e + f, c2, c3, np.sqrt((c3 * c3).sum(axis=-1)) < skewness_floor(trace)


def _class_direction(x, labels):
    # The lda stage: with the class indicators as rows of a 0/1 matrix, one
    # product gives the class sums of y = x 2^-e and one more per coordinate
    # each row's class mean (exactly: its other term is 0), so y is centred in
    # place, a coordinate at a time to keep temporaries small, for the pooled
    # within-class covariance.
    e = _exponent(x, (-2, -1))
    y = np.ldexp(x, -e[..., None, None])
    classes = np.stack((labels == -1, labels == 1), axis=-2).astype(float)
    counts = classes.sum(axis=-1)
    if (counts < 2).any():
        raise ValueError("each class must occupy at least 2 rows")
    means = y.swapaxes(-1, -2) @ classes.swapaxes(-1, -2) / counts[..., None, :]
    for j, row in enumerate(np.moveaxis(y, -1, 0)):
        row -= (means[..., j, None, :] @ classes)[..., 0, :]
    root = inv_sqrt(mom.second_moment(y))
    return e, (root @ (root @ (means[..., 1] - means[..., 0])[..., None]))[..., 0]


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
    nc3 = float(_norm(c3))  # a Python float: the same powers, at less call overhead
    inner = c2 - beta ** (1 / 3) * gamma ** (-2 / 3) * nc3 ** (-4 / 3) * (c3[:, None] * c3)
    rhs = beta ** (-1 / 3) * gamma ** (-1 / 3) * nc3 ** (-2 / 3) * c3
    return np.linalg.solve(inner, rhs)


def est_mom(data, alpha1, member=None):
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
    e, c2, c3, symmetric = _record(data).member("mom", member)
    if symmetric:
        raise DegenerateSkewnessError(
            "sample third moment is numerically zero; the sample looks symmetric"
        )
    return _estimate(mom_direction(c2, c3, alpha1), e, MOM)


def skewvec_direction(whitener, c3_whitened):
    """Skewness-vector direction: the whitener applied to the
    third-moment vector of the whitened data."""
    return np.asarray(whitener) @ np.asarray(c3_whitened, dtype=float)


def _skewed(c3, symmetric):
    if symmetric:
        raise DegenerateSkewnessError(
            "whitened third moment is numerically zero; the sample looks symmetric")
    return c3


def est_skewvec(data, member=None):
    """Skewness-vector estimate.

    Raises
    ------
    DegenerateSkewnessError
        If the whitened third moment is below the degeneracy floor.
    """
    e, whitener, _, c3, symmetric = whiten(data, member).member("whiten", member)
    return _estimate(skewvec_direction(whitener, _skewed(c3, symmetric)), e, SKEWVEC)


def tobi_unit(tk):
    """Leading unit eigenvector of sum_k T_k^2 in whitened coordinates;
    tk is the (..., p, p, p) array of slices. Raises DegenerateSkewnessError
    when the trace of that sum, ||T||_F^2, is below skewness_floor(p)^2
    (for any member of a stack).

    Returns
    -------
    (u, ambiguous) : (ndarray (..., p), bool ndarray (...))
        ambiguous flags a leading eigenvalue gap within 1e-10 relative,
        in which case the returned eigenvector is arbitrary within the
        tied subspace.
    """
    squares = mom.tobi_matrix(tk)
    if (np.trace(squares, axis1=-2, axis2=-1) < skewness_floor(tk.shape[-1]) ** 2).any():
        raise DegenerateSkewnessError(
            "whitened third-moment tensor is numerically zero; the sample looks symmetric")
    values, vectors = sym_eigen(squares)
    gap = values[..., 0] - (values[..., 1] if values.shape[-1] > 1 else -np.inf)
    return vectors[..., 0], gap <= 1e-10 * np.maximum(np.abs(values[..., 0]), _UNDERFLOW)


def est_tobi(data, member=None):
    """Third-order blind identification estimate: whitener times the
    leading eigenvector of the squared-slice sum; raises as tobi_unit
    does. A tied leading eigenvalue is reported through notes, not raised."""
    wh = whiten(data, member)
    e, whitener = wh.member("whiten", member)[:2]
    u, ambiguous = wh.member("tobi", member)
    notes = ("ambiguous leading eigenvalue",) if ambiguous else ()
    return _estimate(whitener @ u, e, TOBI, notes=notes)


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


def est_jade3(data, tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER, rng=None, member=None):
    """3-JADE estimate, started from the TOBI eigenvector of the same
    whitened slices (so it raises where TOBI does); restarts draw from rng."""
    wh = whiten(data, member)
    e, whitener = wh.member("whiten", member)[:2]
    init, ambiguous = wh.member("tobi", member)
    notes = ("ambiguous leading eigenvalue in init",) if ambiguous else ()
    u, converged, iterations, jade_notes = jade3_unit(
        wh.member("tk", member)[0], init, tol=tol, max_iter=max_iter, rng=rng)
    return _estimate(whitener @ u, e, JADE3, converged=converged,
                     iterations=iterations, notes=notes + jade_notes)


def est_lda(data, member=None):
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
    e, raw = _record(data).member("lda", member)
    return _estimate(raw, e, LDA)


def est_pp(data, tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER, rng=None, member=None):
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
    wh = whiten(data, member)
    e, whitener, _, c3, symmetric = wh.member("whiten", member)
    u, converged, iterations, notes = _fixed_point(
        wh.member("tk", member)[0], lambda tu, coef: (coef, None), _skewed(c3, symmetric),
        tol, max_iter, rng)
    return _estimate(whitener @ u, e, PP, converged=converged,
                     iterations=iterations, notes=notes)


def align_sign(est, reference):
    """Resolve the sign ambiguity of an estimate against a reference
    vector: flip when unit' reference < 0, leave the orthogonal case
    untouched."""
    reference = np.asarray(reference, dtype=float)
    if _norm(reference) == 0.0:
        raise ValueError("sign reference must be nonzero")
    if float(est.unit @ reference) < 0.0:
        return DirectionEstimate(raw=-est.raw, unit=-est.unit, method=est.method,
                                 converged=est.converged, iterations=est.iterations,
                                 notes=est.notes, raw_norm=est.raw_norm)
    return est


#: One row of the method table. run(data, alpha1, member=, tol=, max_iter=,
#: rng=) calls the method's est_* function by its name in this module, so a
#: wrapper put there sees every call; member (None for an unstacked DataSet)
#: picks the member of a stack, alpha1 reaches only MOM, the fixed-point
#: settings only JADE3 and PP. constant(alpha1, tau, p) is the
#: limiting constant of n Var[t' unit] under identity covariance.
Method = namedtuple("Method", "run needs_alpha1 needs_labels constant",
                    defaults=(False, False, None))


def _c0(alpha1, tau, p):
    return c0_constant(alpha1, tau)


#: The method table, keyed by tag in the order methods are listed.
METHODS = {
    MOM: Method(lambda data, alpha1, member=None, **fit: est_mom(data, alpha1, member),
                needs_alpha1=True),
    SKEWVEC: Method(lambda data, alpha1, member=None, **fit: est_skewvec(data, member),
                    constant=c_skewvec),
    TOBI: Method(lambda data, alpha1, member=None, **fit: est_tobi(data, member), constant=_c0),
    JADE3: Method(lambda data, alpha1, member=None, **fit: est_jade3(data, member=member, **fit),
                  constant=_c0),
    LDA: Method(lambda data, alpha1, member=None, **fit: est_lda(data, member),
                needs_labels=True, constant=lambda alpha1, tau, p: c_lda(alpha1, tau)),
    PP: Method(lambda data, alpha1, member=None, **fit: est_pp(data, member=member, **fit),
               constant=_c0),
}

#: The stages of Whitening: name -> (the stage whose values it takes, None
#: for the observations and labels, and the function of them that computes it).
_STAGES = {
    "whiten": (None, lambda x, labels: _whitening(x)),
    "tk": ("whiten", lambda e, whitener, z, c3, symmetric: (mom.tk_slices(z),)),
    "tobi": ("tk", lambda tk: tobi_unit(tk)),
    "mom": (None, lambda x, labels: _centred_moments(x)),
    "lda": (None, lambda x, labels: _class_direction(x, labels)),
}
