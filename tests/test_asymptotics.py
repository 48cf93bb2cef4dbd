"""Limiting constants and covariance matrices.

The frozen literals below were computed independently from the scalar
formulas (see the recomputation tests alongside) before being asserted
against the module."""

import numpy as np
import pytest

from skewdisc.asymptotics import (WEIGHT_MARGIN, avar_ae, avar_mom, c0_constant,
                                  c_lda, c_skewvec)
from skewdisc.errors import NearSingularError, WeightDivergenceError
from skewdisc.linalg import projector_pair
from skewdisc.model import MixtureParams, derive


def reference_params(tau=4.0):
    h1 = np.sqrt(tau)
    return MixtureParams(alpha1=0.7,
                         mu1=np.array([-0.3 * h1, 0.0, 0.0]),
                         mu2=np.array([0.7 * h1, 0.0, 0.0]),
                         sigma=np.eye(3))


def generic_params():
    sigma = np.array([[2.0, 0.4, 0.0],
                      [0.4, 1.2, -0.3],
                      [0.0, -0.3, 0.8]])
    return MixtureParams(alpha1=0.75,
                         mu1=np.array([0.2, -0.5, 1.0]),
                         mu2=np.array([1.8, 0.7, 0.4]),
                         sigma=sigma)


class TestScalarConstants:
    def test_c0_frozen(self):
        assert c0_constant(0.7, 4.0) == pytest.approx(42.37528344671205,
                                                      rel=1e-12)
        assert c0_constant(0.7, 12.0) == pytest.approx(13.672629545645426,
                                                       rel=1e-12)

    def test_c0_recomputed_from_scalars(self):
        beta = 0.7 * 0.3
        bt = beta * 4.0
        want = (1.0 + bt) * (bt * 4.0 + 6.0 * bt + 2.0) / (
            beta ** 2 * (1.0 - 4.0 * beta) * 64.0)
        assert c0_constant(0.7, 4.0) == pytest.approx(want, rel=1e-14)

    def test_c_skewvec_frozen(self):
        assert c_skewvec(0.7, 4.0, 3) == pytest.approx(245.43451247165544,
                                                       rel=1e-12)

    def test_c_lda_frozen(self):
        assert c_lda(0.7, 4.0) == pytest.approx(2.1904761904761902, rel=1e-12)
        # (1 + 0.84) / 0.84 exactly
        assert c_lda(0.7, 4.0) == pytest.approx(1.84 / 0.84, rel=1e-14)

    def test_skewvec_penalty_linear_in_p(self):
        base = c0_constant(0.7, 4.0)
        gap3 = c_skewvec(0.7, 4.0, 3) - base
        gap10 = c_skewvec(0.7, 4.0, 10) - base
        assert gap10 / gap3 == pytest.approx(11.0 / 4.0, rel=1e-12)

    def test_ordering_on_grid(self):
        for alpha1 in (0.55, 0.7, 0.9):
            for tau in (1.0, 4.0, 16.0):
                lda = c_lda(alpha1, tau)
                c0 = c0_constant(alpha1, tau)
                assert lda < c0 < c_skewvec(alpha1, tau, 2)
                assert c_skewvec(alpha1, tau, 2) < c_skewvec(alpha1, tau, 5)

    def test_c0_large_tau_limit(self):
        beta = 0.7 * 0.3
        assert c0_constant(0.7, 1e9) == pytest.approx(1.0 / (1.0 - 4.0 * beta),
                                                      rel=1e-6)

    @pytest.mark.parametrize("alpha1", [0.5, 0.5 + 1e-7, 1.0, 1.0 - 1e-7])
    def test_boundary_weights_refused(self, alpha1):
        with pytest.raises(WeightDivergenceError):
            c0_constant(alpha1, 4.0)
        with pytest.raises(WeightDivergenceError):
            c_lda(alpha1, 4.0)
        with pytest.raises(WeightDivergenceError):
            c_skewvec(alpha1, 4.0, 3)

    def test_divergence_message_cites_symmetric_case(self):
        with pytest.raises(WeightDivergenceError) as excinfo:
            c0_constant(0.5, 4.0)
        assert "0.5" in str(excinfo.value)

    def test_just_inside_margin_accepted(self):
        assert c0_constant(0.5 + 2 * WEIGHT_MARGIN, 4.0) > 0
        assert c0_constant(1.0 - 2 * WEIGHT_MARGIN, 4.0) > 0

    @pytest.mark.parametrize("tau", [0.0, -1.0, 1e308, 1e-300, float("nan")])
    def test_bad_tau_refused(self, tau):
        with pytest.raises(ValueError):
            c0_constant(0.7, tau)
        with pytest.raises(ValueError):
            c_lda(0.7, tau)

    def test_skewvec_needs_two_dimensions(self):
        with pytest.raises(ValueError):
            c_skewvec(0.7, 4.0, 1)


class TestAvarAe:
    def test_reference_matrix(self):
        cov = avar_ae(c0_constant(0.7, 4.0), reference_params())
        want = 42.37528344671205 * np.diag([0.0, 1.0, 1.0])
        np.testing.assert_allclose(cov, want, atol=1e-10)

    def test_shape_for_generic_sigma(self):
        params = generic_params()
        d = derive(params)
        c = c0_constant(params.alpha1, d.tau)
        cov = avar_ae(c, params)
        _, q = projector_pair(d.theta)
        sigma_inv = np.linalg.inv(params.sigma)
        want = c * (d.tau / float(d.theta @ d.theta)) * (q @ sigma_inv @ q)
        np.testing.assert_allclose(cov, (want + want.T) / 2.0,
                                   atol=1e-10)

    def test_annihilates_direction(self):
        params = generic_params()
        d = derive(params)
        cov = avar_ae(3.0, params)
        np.testing.assert_allclose(cov @ d.theta, np.zeros(3),
                                   atol=1e-10)
        np.testing.assert_allclose(d.theta @ cov, np.zeros(3),
                                   atol=1e-10)

    def test_positive_semidefinite(self):
        cov = avar_ae(5.0, generic_params())
        np.testing.assert_array_equal(cov, cov.T)
        assert np.linalg.eigvalsh(cov).min() >= -1e-12

    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_rejects_nonpositive_constant(self, bad):
        with pytest.raises(ValueError):
            avar_ae(bad, reference_params())


class TestAvarMom:
    def test_reference_diagonal_frozen(self):
        cov = avar_mom(reference_params())
        want = np.diag([0.0, 102.3526077097506, 102.3526077097506])
        np.testing.assert_allclose(cov, want, atol=1e-9)

    def test_reference_diagonal_recomputed(self):
        beta, tau, h_sq, theta_sq = 0.21, 4.0, 4.0, 4.0
        w1 = (1.0 + beta * tau) ** 2 / (
            h_sq ** 2 * beta ** 2 * (1.0 - 4.0 * beta) * theta_sq)
        w2 = (2.0 * 3.0 + 4.0 * beta * 4.0
              + beta * (1.0 - 4.0 * beta) * h_sq ** 2)
        diag = (w1 * w2 - tau * (1.0 + beta * tau) / theta_sq) + 4.0 * w1
        assert diag == pytest.approx(102.3526077097506, rel=1e-12)
        assert w1 == pytest.approx(7.497165532879817, rel=1e-12)
        assert w2 == pytest.approx(9.8976, rel=1e-12)

    def test_tau_eight_frozen(self):
        cov = avar_mom(reference_params(tau=8.0))
        assert cov[1, 1] == pytest.approx(34.83648667800455,
                                                      rel=1e-10)

    def test_annihilates_direction(self):
        params = generic_params()
        d = derive(params)
        cov = avar_mom(params)
        np.testing.assert_allclose(cov @ d.theta, np.zeros(3),
                                   atol=1e-9)

    def test_spherical_sigma_is_proportional_to_ae_shape(self):
        params = reference_params()
        d = derive(params)
        _, q = projector_pair(d.theta)
        cov = avar_mom(params)
        np.testing.assert_allclose(cov, cov[1, 1] * q, atol=1e-9)

    def test_not_proportional_to_ae_shape(self):
        # for generic Sigma the two-term covariance leaves the
        # Q Sigma^{-1} Q ray
        params = generic_params()
        d = derive(params)
        _, q = projector_pair(d.theta)
        shape = q @ np.linalg.inv(params.sigma) @ q
        cov = avar_mom(params)
        ratio = cov[1, 1] / shape[1, 1]
        assert np.abs(cov - ratio * shape).max() > 1e-3

    def test_positive_semidefinite(self):
        for params in (reference_params(), generic_params()):
            vals = np.linalg.eigvalsh(avar_mom(params))
            assert vals.min() >= -1e-9

    def test_boundary_weight_refused(self):
        with pytest.raises(WeightDivergenceError):
            avar_mom(MixtureParams(alpha1=0.5 + 1e-9,
                                   mu1=np.zeros(2), mu2=np.ones(2),
                                   sigma=np.eye(2)))


def test_near_singular_sigma_refused_where_it_is_inverted():
    # derive only solves for theta; the limiting covariances invert Sigma and
    # refuse one that inv_sqrt would refuse, while MixtureParams accepts it
    params = MixtureParams(alpha1=0.7, mu1=np.zeros(2), mu2=np.array([1.0, 0.0]),
                           sigma=np.diag([1.0, 1e-300]))
    assert derive(params).tau == 1.0
    with pytest.raises(NearSingularError):
        avar_ae(c0_constant(0.7, 1.0), params)
    with pytest.raises(NearSingularError):
        avar_mom(params)
