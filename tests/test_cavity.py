import numpy as np
import pytest

from spopo import (AtThresholdError, CavityConfig, NoFiniteThresholdError,
                   ValidationError, check_symplectic, comb_io, epr_pair_check,
                   output_covariance, pair_covariance, resonant_r,
                   squeezing_spectrum, threshold_gain)

from conftest import below_threshold_draws


def raw_block(gain, theta, r, phase):
    """Independent evaluation of (e^{i theta} T - r)(1 - r e^{i theta} T)^-1,
    allowing negative r (branch-symmetry oracle)."""
    ch, sh = np.cosh(gain), np.sinh(gain)
    t_block = np.array([[np.exp(1j * phase) * ch, np.exp(1j * phase) * sh],
                        [np.exp(-1j * phase) * sh, np.exp(-1j * phase) * ch]])
    a = np.exp(1j * theta) * t_block
    return (a - r * np.eye(2)) @ np.linalg.inv(np.eye(2) - r * a)


class TestCavityConfig:
    def test_r_t_constraint(self):
        cavity = CavityConfig(r=0.6)
        assert cavity.r**2 + cavity.t**2 == pytest.approx(1.0, abs=1e-15)

    def test_from_finesse(self):
        cavity = CavityConfig.from_finesse(30.0)
        assert cavity.t**2 == pytest.approx(2 * np.pi / 30.0, rel=1e-12)
        assert cavity.finesse == pytest.approx(30.0, rel=1e-12)

    def test_invalid_reflectivity(self):
        with pytest.raises(ValidationError):
            CavityConfig(r=1.0)


class TestResonantR:
    @pytest.mark.parametrize("delta_rt, ceo_half, sign", [
        (0.0, 0.0, 1.0), (np.pi, 0.0, -1.0), (0.0, np.pi, -1.0),
        (-np.pi, 0.0, -1.0), (2.0 * np.pi, 0.0, 1.0), (1.0, np.pi - 1.0, -1.0),
        (np.pi + 5e-13, 0.0, -1.0), (np.pi - 5e-13, 0.0, -1.0),
        (2.0 * np.pi - 5e-13, 0.0, 1.0), (0.0, -5e-13, 1.0),
        (3.0 * np.pi, 0.0, -1.0), (-4.0 * np.pi, 0.0, 1.0)])
    def test_signed_amplitude(self, delta_rt, ceo_half, sign):
        assert resonant_r(CavityConfig(r=0.8894, delta_rt=delta_rt),
                          ceo_half) == sign * 0.8894

    @pytest.mark.parametrize("phase", [1e-11, -1e-11, np.pi + 1e-11,
                                       np.pi / 2, 0.3])
    def test_off_resonant_phase_refused(self, phase):
        with pytest.raises(ValidationError, match="resonant"):
            resonant_r(CavityConfig(r=0.8894, delta_rt=phase), 0.0)


class TestThresholdGain:
    def test_resonant_value(self):
        result = threshold_gain(CavityConfig(r=0.9), 0.0)
        assert result.gain == pytest.approx(-np.log(0.9), abs=1e-14)
        assert result.branch_theta == 0.0

    def test_perfect_cavity_limit(self):
        assert threshold_gain(CavityConfig(r=1 - 1e-9), 0.0).gain < 1e-4

    def test_pi_branch(self):
        even = threshold_gain(CavityConfig(r=0.9), 0.0)
        odd = threshold_gain(CavityConfig(r=0.9, delta_rt=np.pi), 0.0)
        assert odd.branch_theta == pytest.approx(np.pi)
        assert odd.gain == pytest.approx(even.gain, rel=1e-12)

    def test_branch_from_total_phase(self):
        result = threshold_gain(CavityConfig(r=0.8, delta_rt=2.0), 1.5)
        assert result.branch_theta == pytest.approx(np.pi)  # cos(3.5) < 0

    def test_no_finite_threshold(self):
        with pytest.raises(NoFiniteThresholdError):
            threshold_gain(CavityConfig(r=0.8, delta_rt=np.pi / 2), 0.0)


class TestCombIO:
    def test_empty_cavity_reflects_coherently(self):
        block = comb_io(0.0, 0.0, CavityConfig(r=0.7), 0.0)
        assert block.c == pytest.approx(1.0, abs=1e-14)
        assert block.s == pytest.approx(0.0, abs=1e-14)

    def test_no_cavity_single_pass(self):
        g, theta, phase = 0.3, 0.5, 0.2
        block = comb_io(g, theta, CavityConfig(r=0.0, delta_rt=phase), 0.0)
        assert block.c == pytest.approx(
            np.exp(1j * (theta + phase)) * np.cosh(g), rel=1e-12)
        assert block.s == pytest.approx(
            np.exp(1j * (theta + phase)) * np.sinh(g), rel=1e-12)

    def test_resonant_squeezing_variance(self):
        r, g = 0.9, 0.05
        block = comb_io(g, 0.0, CavityConfig(r=r), 0.0)
        _, var_p, _ = output_covariance(block)
        expected = 0.5 * ((r - np.exp(-g)) / (1 - r * np.exp(-g))) ** 2
        assert var_p == pytest.approx(expected, rel=1e-10)

    def test_symplectic_sweep(self):
        rng = np.random.default_rng(8)
        for gain, r in below_threshold_draws(rng, 200):
            theta = rng.uniform(-np.pi, np.pi)
            ceo = rng.uniform(-0.5, 0.5)
            block = comb_io(gain, theta, CavityConfig(r=r), ceo)
            assert check_symplectic(block, 1e-10)

    def test_at_threshold_raises(self):
        r = 0.9
        gth = threshold_gain(CavityConfig(r=r), 0.0).gain
        with pytest.raises(AtThresholdError):
            comb_io(gth, 0.0, CavityConfig(r=r), 0.0)

    def test_pi_branch_singular_at_theta_pi(self):
        cavity = CavityConfig(r=0.9, delta_rt=np.pi)
        result = threshold_gain(cavity, 0.0)
        assert result.branch_theta == pytest.approx(np.pi)
        with pytest.raises(AtThresholdError) as excinfo:
            comb_io(result.gain, np.pi, cavity, 0.0)
        assert excinfo.value.theta == pytest.approx(np.pi)
        # the zero-shift block stays regular on this branch
        block = comb_io(result.gain, 0.0, cavity, 0.0)
        assert check_symplectic(block, 1e-10)

    def test_overflowing_gain_rejected(self):
        with pytest.raises(ValidationError, match="overflow"):
            comb_io(800.0, 0.0, CavityConfig(r=0.5), 0.0)

    def test_inverse_map_identity(self):
        # R(T) R(T^-1) = 1 on the 2x2 blocks
        rng = np.random.default_rng(9)
        for _ in range(100):
            r = rng.uniform(0.3, 0.95)
            g = rng.uniform(0.0, 0.5) * -np.log(r)
            theta = rng.uniform(-np.pi, np.pi)
            phase = rng.uniform(-0.4, 0.4)
            ch, sh = np.cosh(g), np.sinh(g)
            t_block = np.array([
                [np.exp(1j * phase) * ch, np.exp(1j * phase) * sh],
                [np.exp(-1j * phase) * sh, np.exp(-1j * phase) * ch]])
            a = np.exp(1j * theta) * t_block

            def io_map(x):
                return (x - r * np.eye(2)) @ np.linalg.inv(np.eye(2) - r * x)

            product = io_map(a) @ io_map(np.linalg.inv(a))
            assert np.abs(product - np.eye(2)).max() \
                <= 1e-10 * max(1.0, np.abs(io_map(a)).max())

    def test_branch_symmetry_r_to_minus_r(self):
        # pi-detuned cavity equals the resonant map with r -> -r
        g, r = 0.08, 0.85
        for theta in (0.0, 0.3, 1.2):
            flipped = comb_io(g, theta, CavityConfig(r=r, delta_rt=np.pi), 0.0)
            oracle = raw_block(g, theta, -r, 0.0)
            assert abs(flipped.c) == pytest.approx(abs(oracle[0, 0]), rel=1e-12)
            assert abs(flipped.s) == pytest.approx(abs(oracle[0, 1]), rel=1e-12)
            # variances agree, global sign is unobservable
            var = output_covariance(flipped)
            m = (np.abs(oracle[0, 0]), np.abs(oracle[0, 1]))
            assert var[1] + var[0] == pytest.approx(
                0.5 * ((m[0] + m[1]) ** 2 + (m[0] - m[1]) ** 2), rel=1e-10)


class TestPairEntanglement:
    def test_vacuum_epr_is_one(self):
        assert epr_pair_check(0.0, 0.4, CavityConfig(r=0.8), 0.0) \
            == pytest.approx(1.0, abs=1e-12)

    def test_entangled_near_resonance(self):
        cavity = CavityConfig(r=0.889)
        gth = threshold_gain(cavity, 0.0).gain
        value = epr_pair_check(0.8 * gth, cavity.t**2 / 10, cavity, 0.0)
        assert value < 1.0

    def test_approaches_one_toward_pi(self):
        cavity = CavityConfig(r=0.889)
        gth = threshold_gain(cavity, 0.0).gain
        values = [epr_pair_check(0.5 * gth, th, cavity, 0.0)
                  for th in (0.5, 1.5, 2.5, 3.0)]
        assert all(v < 1.0 for v in values)
        assert values == sorted(values)
        assert values[-1] > 0.99

    def test_pair_covariance_reduced_state_thermal(self):
        cavity = CavityConfig(r=0.889)
        gth = threshold_gain(cavity, 0.0).gain
        cov = pair_covariance(0.8 * gth, 0.05, cavity, 0.0)
        # single-comb marginals: isotropic, hotter than vacuum
        for k in (0, 2):
            assert cov[k, k] == pytest.approx(cov[k + 1, k + 1], rel=1e-12)
            assert cov[k, k] > 0.5
            assert cov[k, k + 1] == pytest.approx(0.0, abs=1e-12)

    def test_pair_covariance_minimum_eigenvalue(self):
        # smallest eigenvalue of the 4x4 pair covariance is the squeezed
        # joint-quadrature variance (|C| - |S|)^2 / 2
        cavity = CavityConfig(r=0.88)
        gth = threshold_gain(cavity, 0.0).gain
        for theta in (0.02, 0.3, 1.0):
            cov = pair_covariance(0.7 * gth, theta, cavity, 0.0)
            block = comb_io(0.7 * gth, theta, cavity, 0.0)
            expected = 0.5 * (abs(block.c) - abs(block.s)) ** 2
            assert np.linalg.eigvalsh(cov)[0] == pytest.approx(expected,
                                                               rel=1e-10)

    def test_epr_matches_pair_covariance(self):
        cavity = CavityConfig(r=0.85)
        g, theta = 0.05, 0.3
        cov = pair_covariance(g, theta, cavity, 0.0)
        # minimized EPR sum = 2 (v_thermal - |K|)
        k_abs = np.hypot(cov[0, 2], cov[0, 3])
        expected = 2 * (cov[0, 0] - k_abs)
        assert epr_pair_check(g, theta, cavity, 0.0) \
            == pytest.approx(expected, rel=1e-12)


class TestSqueezingSpectrum:
    def test_vacuum_gains_flat(self, default_cavity):
        thetas = np.linspace(-np.pi, np.pi, 41)
        spec = squeezing_spectrum([0.0, 0.0], default_cavity, 0.0, thetas)
        np.testing.assert_allclose(spec.var_x, 0.5, atol=1e-12)
        np.testing.assert_allclose(spec.var_p, 0.5, atol=1e-12)

    def test_squeezing_deepest_on_resonance(self, default_cavity):
        gth = threshold_gain(default_cavity, 0.0).gain
        thetas = np.linspace(-np.pi, np.pi, 201)
        spec = squeezing_spectrum([0.9 * gth], default_cavity, 0.0, thetas)
        center = np.argmin(np.abs(thetas))
        assert thetas[center] == pytest.approx(0.0, abs=1e-12)
        assert np.argmin(spec.var_p[0]) == center
        assert np.all(spec.var_p[0, np.arange(201) != center]
                      > spec.var_p[0, center])

    def test_bandwidth_of_squeezing_dip(self, default_cavity):
        # depth halves at |theta| of order t^2 / 2
        gth = threshold_gain(default_cavity, 0.0).gain
        thetas = np.linspace(-0.8, 0.8, 1601)
        spec = squeezing_spectrum([0.9 * gth], default_cavity, 0.0, thetas)
        depth = 0.5 - spec.var_p[0]
        half = np.abs(thetas)[depth >= 0.5 * depth.max()].max()
        scale = default_cavity.t**2 / 2
        assert scale / 4 < half < 4 * scale

    def test_variance_blows_up_at_threshold(self, default_cavity):
        gth = threshold_gain(default_cavity, 0.0).gain
        block = comb_io(gth * (1 - 1e-8), 0.0, default_cavity, 0.0)
        var_x, _, _ = output_covariance(block)
        assert var_x > 1e6

    def test_above_threshold_rejected(self, default_cavity):
        gth = threshold_gain(default_cavity, 0.0).gain
        with pytest.raises(AtThresholdError):
            squeezing_spectrum([1.01 * gth], default_cavity, 0.0, [0.0])

    def test_matches_explicit_solve_off_resonance(self):
        # every grid point against the 2x2 inverse, away from resonance
        cavity, ceo = CavityConfig(r=0.8894, delta_rt=0.3), -0.2
        gth = threshold_gain(cavity, ceo).gain
        gains = gth * np.array([0.0, 0.3, 0.6, 0.9])
        thetas = np.linspace(-np.pi, np.pi, 41)
        spec = squeezing_spectrum(gains, cavity, ceo, thetas)
        for i, g in enumerate(gains):
            for j, th in enumerate(thetas):
                plus = raw_block(g, th, cavity.r, 0.1)
                minus = raw_block(g, -th, cavity.r, 0.1)
                ac, as_ = abs(plus[0, 0]), abs(plus[0, 1])
                assert spec.var_x[i, j] == pytest.approx(
                    0.5 * (ac + as_) ** 2, rel=1e-12, abs=0)
                assert spec.var_p[i, j] == pytest.approx(
                    0.5 * (ac - as_) ** 2, rel=1e-12, abs=0)
                if th == 0.0:
                    assert np.isnan(spec.epr[i, j])
                else:
                    epr = 1 + 2 * as_**2 - 2 * abs(plus[0, 0] * minus[0, 1])
                    assert spec.epr[i, j] == pytest.approx(epr, rel=1e-12, abs=0)
