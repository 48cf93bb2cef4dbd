"""Linear algebra helpers: known values and randomized identities."""

import numpy as np
import pytest

from skewdisc import estimators
from skewdisc.errors import NearSingularError, NonFiniteError
from skewdisc.linalg import (_norm, commutation_matrix, inv_sqrt, kron_sum_inverse,
                             projector_pair, sym_eigen)
from skewdisc.model import MixtureParams, derive, sample, whitened_mixture


def same_bits(got, want):
    return type(got) is type(want) and np.float64(got).tobytes() == np.float64(want).tobytes()


class TestNorm:
    """_norm is np.linalg.norm without its argument handling: the same
    value, bit for bit, and the same type."""

    def test_random_vectors_and_views(self):
        rng = np.random.default_rng(6)
        for p in list(range(1, 40)) + [64, 257]:
            m = rng.standard_normal((p, p + 1)) * 10.0 ** rng.integers(-8, 8)
            for v in (m[0], m[:, 0], m[::-1, 1], m[0, ::2]):
                assert same_bits(_norm(v), np.linalg.norm(v)), p

    @pytest.mark.parametrize("v", [
        np.full(5, 1e200),                   # the sum of squares overflows
        np.array([1e-200, 0.0, -3e-200]),    # the sum of squares underflows
        np.array([5e-324, -2.2e-308, 1e-310]),
        np.zeros(4),
    ], ids=["1e200", "1e-200", "subnormal", "zero"])
    def test_extreme_vectors(self, v):
        with np.errstate(over="ignore"):
            assert same_bits(_norm(v), np.linalg.norm(v))

    @pytest.mark.parametrize("p", [2, 3, 10, 30])
    def test_frobenius(self, p):
        m = np.random.default_rng(p).standard_normal((p, p))
        for a in (m, m - m.T, m.T, np.asfortranarray(m), m[:, ::-1]):
            assert same_bits(_norm(a), np.linalg.norm(a))


class TestSymEigen:
    def test_diagonal(self):
        values, vectors = sym_eigen(np.diag([4.0, 9.0]))
        np.testing.assert_allclose(values, [9.0, 4.0])
        np.testing.assert_allclose(np.abs(vectors[:, 0]), [0.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(np.abs(vectors[:, 1]), [1.0, 0.0], atol=1e-12)

    def test_two_by_two_hand_values(self):
        values, vectors = sym_eigen(np.array([[2.0, 1.0], [1.0, 2.0]]))
        np.testing.assert_allclose(values, [3.0, 1.0])
        s = 1.0 / np.sqrt(2.0)
        np.testing.assert_allclose(vectors[:, 0], [s, s], atol=1e-12)
        np.testing.assert_allclose(vectors[:, 1], [s, -s], atol=1e-12)

    def test_identity(self):
        values, vectors = sym_eigen(np.eye(3))
        np.testing.assert_allclose(values, [1.0, 1.0, 1.0])
        np.testing.assert_allclose(vectors.T @ vectors, np.eye(3), atol=1e-12)

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            p = int(rng.integers(2, 8))
            a = rng.standard_normal((p, p))
            m = a + a.T
            values, vectors = sym_eigen(m)
            assert all(values[i] >= values[i + 1] for i in range(p - 1))
            recon = (vectors * values) @ vectors.T
            np.testing.assert_allclose(recon, m,
                                       atol=1e-10 * np.linalg.norm(m))
            np.testing.assert_allclose(vectors.T @ vectors, np.eye(p), atol=1e-10)

    def test_sign_convention_is_stable(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((5, 5))
        m = a @ a.T
        _, first = sym_eigen(m)
        _, second = sym_eigen(m.copy())
        np.testing.assert_array_equal(first, second)
        for u in first.T:
            assert u[np.argmax(np.abs(u))] >= 0.0


class TestInvSqrt:
    def test_diagonal(self):
        r = inv_sqrt(np.diag([4.0, 9.0]))
        np.testing.assert_allclose(np.asarray(r), np.diag([0.5, 1.0 / 3.0]),
                                   atol=1e-14)

    def test_whitening_value(self):
        r = inv_sqrt(np.diag([1.84, 1.0, 1.0]))
        assert np.asarray(r)[0, 0] == pytest.approx(0.737210, abs=1e-6)

    def test_identity(self):
        np.testing.assert_allclose(np.asarray(inv_sqrt(np.eye(4))), np.eye(4),
                                   atol=1e-14)

    def test_defining_property_random(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            p = int(rng.integers(2, 11))
            a = rng.standard_normal((p, p))
            m = a @ a.T + 0.1 * np.eye(p)
            r = np.asarray(inv_sqrt(m))
            np.testing.assert_allclose(r @ m @ r, np.eye(p), atol=1e-10)
            np.testing.assert_allclose(r, r.T, atol=1e-12)

    def test_near_singular_raises(self):
        m = np.diag([1.0, 1e-13])
        with pytest.raises(NearSingularError):
            inv_sqrt(m)


@pytest.mark.parametrize("fn", [sym_eigen, inv_sqrt])
@pytest.mark.parametrize("m", [
    np.full((2, 2), np.nan),
    np.array([[1.0, np.nan], [np.nan, 1.0]]),
    np.array([[np.inf, 0.0], [0.0, 1.0]]),
    np.array([[1.0, -np.inf], [-np.inf, 1.0]]),
], ids=["all-nan", "nan-off-diagonal", "inf-diagonal", "inf-off-diagonal"])
def test_non_finite_entries_rejected(fn, m):
    # eigh returns nan eigenvalues for these without raising
    with pytest.raises(NonFiniteError):
        fn(m)


class TestCallersMeetPrecondition:
    """sym_eigen and inv_sqrt do not check symmetry: every caller in the
    package hands np.linalg.eigh a finite matrix that is symmetric to the
    last bit."""

    def test_eigh_inputs_finite_and_exactly_symmetric(self, monkeypatch):
        seen = []
        eigh = np.linalg.eigh

        def spy(m, *args, **kwargs):
            seen.append(np.array(m))
            return eigh(m, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", spy)
        rng = np.random.default_rng(8)
        draws = 0
        for p in (2, 3, 10):
            for scale in (1e-100, 1.0, 1e100):
                a = rng.standard_normal((p, p))
                h = rng.standard_normal(p)
                params = MixtureParams(alpha1=0.7, mu1=-0.3 * scale * h,
                                       mu2=0.7 * scale * h, sigma=a @ a.T * scale ** 2)
                derive(params)
                whitened_mixture(params)
                data = sample(params, 400, rng)
                for method in estimators.METHODS.values():
                    method.run(data, 0.7)
                draws += 1
        # per draw: whitened_mixture's C2 root, then the whitening, TOBI's
        # eigensolve and LDA's pooled covariance root; derive takes none
        assert len(seen) == 4 * draws
        for m in seen:
            assert np.isfinite(m).all() and np.array_equal(m, m.T)


class TestProjectorPair:
    def test_axis_vector(self):
        p, q = projector_pair(np.array([1.0, 0.0]))
        np.testing.assert_allclose(p, np.diag([1.0, 0.0]), atol=1e-15)
        np.testing.assert_allclose(q, np.diag([0.0, 1.0]), atol=1e-15)

    def test_scale_invariance(self):
        p1, q1 = projector_pair(np.array([2.0, 0.0, 0.0]))
        p2, q2 = projector_pair(np.array([1.0, 0.0, 0.0]))
        np.testing.assert_allclose(p1, p2, atol=1e-15)
        np.testing.assert_allclose(q1, q2, atol=1e-15)

    def test_diagonal_direction(self):
        p, _ = projector_pair(np.array([1.0, 1.0]) / np.sqrt(2.0))
        np.testing.assert_allclose(p, 0.5 * np.ones((2, 2)), atol=1e-14)

    def test_idempotence_and_annihilation(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            v = rng.standard_normal(int(rng.integers(2, 9)))
            p, q = projector_pair(v)
            np.testing.assert_allclose(p @ p, p, atol=1e-12)
            np.testing.assert_allclose(q @ q, q, atol=1e-12)
            np.testing.assert_allclose(p @ q, np.zeros_like(p), atol=1e-12)
            np.testing.assert_allclose(p + q, np.eye(len(v)), atol=1e-15)
            np.testing.assert_allclose(p @ v, v, atol=1e-10 * np.linalg.norm(v))
            np.testing.assert_allclose(q @ v, np.zeros_like(v),
                                       atol=1e-10 * np.linalg.norm(v))

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            projector_pair(np.zeros(3))

    @pytest.mark.parametrize("v", [[1e-170, 0.0], [1e-160, -1e-160, 0.0], [5e-324]])
    def test_underflowing_square_is_typed(self, v):
        # a nonzero v whose squared norm underflows is a numeric failure,
        # not the zero-vector ValueError
        with pytest.raises(NonFiniteError, match="underflows"):
            projector_pair(np.array(v))


class TestCommutationMatrix:
    def test_scalar_case(self):
        np.testing.assert_array_equal(commutation_matrix(1), [[1.0]])

    def test_two_by_two_definition(self):
        k = commutation_matrix(2)
        np.testing.assert_allclose(k @ np.array([1.0, 3.0, 2.0, 4.0]),
                                   [1.0, 2.0, 3.0, 4.0], atol=1e-15)

    def test_transposes_vec(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            p = int(rng.integers(1, 7))
            a = rng.standard_normal((p, p))
            k = commutation_matrix(p)
            np.testing.assert_allclose(k @ a.reshape(-1, order="F"),
                                       a.T.reshape(-1, order="F"), atol=1e-15)

    def test_involution_orthogonal_symmetric(self):
        for p in (1, 2, 3, 5):
            k = commutation_matrix(p)
            np.testing.assert_allclose(k @ k, np.eye(p * p), atol=1e-15)
            np.testing.assert_allclose(k, k.T, atol=1e-15)


class TestKronSumInverse:
    def test_alpha_zero(self):
        u = np.array([0.0, 1.0])
        np.testing.assert_allclose(kron_sum_inverse(0.0, u), 0.5 * np.eye(4),
                                   atol=1e-14)

    def test_scalar_case(self):
        out = kron_sum_inverse(2.0, np.array([1.0]))
        np.testing.assert_allclose(out, [[1.0 / 6.0]], atol=1e-14)

    def test_matches_numeric_inverse(self):
        u = np.array([1.0, 0.0])
        direct = np.linalg.inv(
            np.kron(np.eye(2), np.eye(2) + np.outer(u, u))
            + np.kron(np.eye(2) + np.outer(u, u), np.eye(2)))
        np.testing.assert_allclose(kron_sum_inverse(1.0, u), direct, atol=1e-12)

    def test_defining_identity_random(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            p = int(rng.integers(1, 7))
            alpha = float(rng.uniform(0.0, 100.0))
            u = rng.standard_normal(p)
            u /= np.linalg.norm(u)
            bump = np.eye(p) + alpha * np.outer(u, u)
            ksum = np.kron(np.eye(p), bump) + np.kron(bump, np.eye(p))
            np.testing.assert_allclose(kron_sum_inverse(alpha, u) @ ksum,
                                       np.eye(p * p), atol=1e-10)

    def test_rejects_non_unit(self):
        with pytest.raises(ValueError):
            kron_sum_inverse(1.0, np.array([1.0, 1.0]))

    def test_rejects_negative_alpha(self):
        with pytest.raises(ValueError):
            kron_sum_inverse(-0.5, np.array([1.0, 0.0]))
