import numpy as np
import pytest

from spopo import (CavityConfig, ModePairTransform, ValidationError,
                   check_symplectic, comb_io, squeezing_spectrum,
                   threshold_gain)

from oracles import output_covariance


def random_block(rng) -> ModePairTransform:
    g = rng.uniform(0.0, 2.0)
    phi_c, phi_s = rng.uniform(-np.pi, np.pi, size=2)
    return ModePairTransform(c=np.cosh(g) * np.exp(1j * phi_c),
                             s=np.sinh(g) * np.exp(1j * phi_s))


class TestCheckSymplectic:
    def test_identity(self):
        assert check_symplectic(ModePairTransform(1.0, 0.0), 1e-12)

    def test_hyperbolic_pair(self):
        g = 0.3
        assert check_symplectic(ModePairTransform(np.cosh(g), np.sinh(g)), 1e-12)

    def test_unit_coefficients_rejected(self):
        assert not check_symplectic(ModePairTransform(1.0, 1.0), 1e-12)

    def test_tolerance_must_be_positive(self):
        for tol in (0.0, float("nan")):
            with pytest.raises(ValidationError):
                check_symplectic(ModePairTransform(1.0, 0.0), tol)


class TestOutputCovariance:
    def test_vacuum_through_identity(self):
        assert output_covariance(ModePairTransform(1.0, 0.0)) == (0.5, 0.5, 0.0)

    def test_single_mode_squeezer(self):
        g = 0.3
        t = ModePairTransform(np.cosh(g), np.sinh(g))
        var_x, var_p, cov = output_covariance(t)
        assert var_p == pytest.approx(0.5 * np.exp(-2 * g), rel=1e-12)
        assert var_x == pytest.approx(0.5 * np.exp(2 * g), rel=1e-12)
        assert cov == pytest.approx(0.0, abs=1e-15)
        assert t.c - t.s == pytest.approx(np.exp(-g), rel=1e-12)

    def test_uncertainty_product_preserved(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            var_x, var_p, cov = output_covariance(random_block(rng))
            # a symplectic block keeps the vacuum's covariance determinant
            assert var_x * var_p - cov**2 == pytest.approx(0.25, rel=1e-10)

    def test_quadrature_matrix_det_is_one(self):
        # the block acts on (x, p) as the real matrix of output_covariance's
        # docstring; its determinant is |c|^2 - |s|^2 = 1 and the output
        # covariance is (1/2) m m^T
        rng = np.random.default_rng(3)
        for _ in range(100):
            t = random_block(rng)
            c, s = t.c, t.s
            m = np.array([[np.real(c + s), -np.imag(c - s)],
                          [np.imag(c + s), np.real(c - s)]])
            assert np.linalg.det(m) == pytest.approx(1.0, rel=1e-10)
            var_x, var_p, cov = output_covariance(t)
            np.testing.assert_allclose([[var_x, cov], [cov, var_p]],
                                       0.5 * m @ m.T, rtol=1e-12, atol=1e-15)
        # an array of blocks gives each block's covariance
        blocks = [random_block(rng) for _ in range(2)]
        var_x, var_p, cov = output_covariance(ModePairTransform(
            np.array([b.c for b in blocks]), np.array([b.s for b in blocks])))
        for k, (c, s) in enumerate(blocks):
            m = np.array([[np.real(c + s), -np.imag(c - s)],
                          [np.imag(c + s), np.real(c - s)]])
            np.testing.assert_allclose([[var_x[k], cov[k]], [cov[k], var_p[k]]],
                                       0.5 * m @ m.T, rtol=1e-12, atol=1e-15)

    def test_minimum_variance_over_angles(self):
        # squeezing_spectrum's theta = 0 var_p is the smallest variance over
        # all homodyne angles: the smaller eigenvalue of the 2x2 covariance
        rng = np.random.default_rng(5)
        for _ in range(20):
            r, delta_rt = rng.uniform(0.3, 0.97), rng.uniform(-0.7, 0.7)
            cavity = CavityConfig(r=r, phase=delta_rt + rng.uniform(-0.5, 0.5))
            g = rng.uniform(0.1, 0.9) * threshold_gain(cavity).gain
            var_x, var_p, cov = output_covariance(comb_io(g, 0.0, cavity))
            smallest = np.linalg.eigvalsh([[var_x, cov], [cov, var_p]])[0]
            expected = squeezing_spectrum([g], cavity, [0.0]).var_p[0, 0]
            assert smallest == pytest.approx(expected, rel=1e-9)
            # never above the lab-frame p variance
            assert expected <= var_p * (1 + 1e-12)
