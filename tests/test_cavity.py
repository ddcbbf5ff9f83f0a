import math

import numpy as np
import pytest

from spopo import (AtThresholdError, CavityConfig, NoFiniteThresholdError,
                   ValidationError, check_symplectic, comb_io, resonant_r,
                   squeezing_spectrum, threshold_gain)
from spopo import cavity as cavity_module

from conftest import below_threshold_draws
from oracles import output_covariance


def raw_block(gain, theta, r, phase):
    """Independent evaluation of (e^{i theta} T - r)(1 - r e^{i theta} T)^-1,
    allowing negative r (branch-symmetry oracle)."""
    ch, sh = np.cosh(gain), np.sinh(gain)
    t_block = np.array([[np.exp(1j * phase) * ch, np.exp(1j * phase) * sh],
                        [np.exp(-1j * phase) * sh, np.exp(-1j * phase) * ch]])
    a = np.exp(1j * theta) * t_block
    return (a - r * np.eye(2)) @ np.linalg.inv(np.eye(2) - r * a)


def pair_covariance(gain, theta, cavity):
    """4x4 vacuum-input covariance of the comb pair (+theta, -theta) in the
    basis (x+, p+, x-, p-), from the ``raw_block`` inverses at +-theta.

    b(+-theta) = C a(+-theta) + S a^dag(-+theta) with a = (x + i p)/sqrt2
    gives sqrt2 b = C (x + i p) + S (x' - i p'); its real and imaginary
    coefficient rows are the output quadratures' rows of M, and the
    covariance is M M^T / 2.
    """
    rows = []
    for sign in (1.0, -1.0):
        block = raw_block(gain, sign * theta, cavity.r, cavity.phase)
        c, s = block[0, 0], block[0, 1]
        own = [[c.real, -c.imag], [c.imag, c.real]]
        partner = [[s.real, s.imag], [s.imag, -s.real]]
        rows.append(np.hstack([own, partner] if sign > 0 else [partner, own]))
    m = np.vstack(rows)
    return 0.5 * m @ m.T


def assert_pair_matches_spectrum(gain, theta, cavity, rel):
    """The pair covariance against ``squeezing_spectrum`` at one point:
    thermal single-comb marginals of one temperature, the correlator
    K = <b(theta) b(-theta)> = C(theta) S(-theta) in the cross block, smallest
    eigenvalue var_p, and EPR variance 2 (v_thermal - |K|)."""
    cov = pair_covariance(gain, theta, cavity)
    spec = squeezing_spectrum([gain], cavity, [theta])
    v_th = cov[0, 0]
    assert v_th > 0.5
    for k in (0, 2):
        assert abs(cov[k, k] - v_th) <= rel * v_th
        assert abs(cov[k + 1, k + 1] - v_th) <= rel * v_th
        assert abs(cov[k, k + 1]) <= rel * v_th
    # the cross block is [[Re K, Im K], [Im K, -Re K]]
    k = raw_block(gain, theta, cavity.r, cavity.phase)[0, 0] \
        * raw_block(gain, -theta, cavity.r, cavity.phase)[0, 1]
    assert complex(cov[0, 2], cov[0, 3]) == pytest.approx(k, rel=rel)
    assert abs(cov[1, 2] - cov[0, 3]) <= rel * v_th
    assert abs(cov[1, 3] + cov[0, 2]) <= rel * v_th
    assert np.linalg.eigvalsh(cov)[0] == pytest.approx(spec.var_p[0, 0],
                                                      rel=rel)
    k_abs = np.hypot(cov[0, 2], cov[0, 3])
    assert spec.epr[0, 0] == pytest.approx(2 * (v_th - k_abs), rel=rel)


def random_detuned_cavity(rng, branch):
    """Cavity with random r and a round-trip phase within 1.2 rad of
    ``branch`` (0 or pi)."""
    phase = branch + rng.uniform(-1.2, 1.2)
    return CavityConfig(r=rng.uniform(0.3, 0.97), phase=phase)


def extended_pair(gain, theta, cavity):
    """|C(theta)|, |S(theta)|, |S(-theta)| of the closed form of ``comb_io``
    in np.clongdouble, broadcast over gain and theta.

    The float64 phase arguments theta +- phi are formed exactly as ``comb_io``
    forms them: their rounding is an input error, not the solve's.
    """
    ld = np.longdouble
    g, r = np.asarray(gain, dtype=ld), ld(cavity.r)
    sh, h = np.sinh(g), 2 * np.sinh(g / 2) ** 2
    i = np.clongdouble(1j)

    def block(th):
        up = np.exp(i * (th + cavity.phase).astype(ld))
        dn = np.exp(i * (th - cavity.phase).astype(ld))
        det = (1 - r * up) * (1 - r * dn) - r * h * (up + dn)
        c = ((up - r) * (1 - r * dn) + h * (up + r**2 * dn)) / det
        return np.abs(c), np.abs((1 - r**2) * up * sh / det)

    theta = np.asarray(theta, dtype=float)
    c_plus, s_plus = block(theta)
    return c_plus, s_plus, block(-theta)[1]


def assert_relative_below(value, reference, bound):
    error = np.abs(np.asarray(value, dtype=np.longdouble) / reference - 1)
    np.testing.assert_array_less(error.astype(float),
                                 np.broadcast_to(bound, error.shape))


needs_longdouble = pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= np.finfo(float).eps,
    reason="np.longdouble is no wider than float64 on this platform")


class TestCavityConfig:
    def test_r_t_constraint(self):
        cavity = CavityConfig(r=0.6)
        assert cavity.r**2 + cavity.t**2 == pytest.approx(1.0, abs=1e-15)

    def test_from_finesse(self):
        cavity = CavityConfig.from_finesse(30.0)
        assert cavity.t**2 == pytest.approx(2 * np.pi / 30.0, rel=1e-12)
        assert 2 * np.pi / cavity.t**2 == pytest.approx(30.0, rel=1e-12)

    def test_invalid_reflectivity(self):
        with pytest.raises(ValidationError):
            CavityConfig(r=1.0)


class TestResonantR:
    @pytest.mark.parametrize("delta_rt, delta0, sign", [
        (0.0, 0.0, 1.0), (np.pi, 0.0, -1.0), (0.0, np.pi, -1.0),
        (-np.pi, 0.0, -1.0), (2.0 * np.pi, 0.0, 1.0), (1.0, np.pi - 1.0, -1.0),
        (np.pi + 5e-13, 0.0, -1.0), (np.pi - 5e-13, 0.0, -1.0),
        (2.0 * np.pi - 5e-13, 0.0, 1.0), (0.0, -5e-13, 1.0),
        (3.0 * np.pi, 0.0, -1.0), (-4.0 * np.pi, 0.0, 1.0)])
    def test_signed_amplitude(self, delta_rt, delta0, sign):
        # the config's two phases reach the cavity as their sum
        assert resonant_r(CavityConfig(r=0.8894, phase=delta_rt + delta0)) \
            == sign * 0.8894

    @pytest.mark.parametrize("phase", [1e-11, -1e-11, np.pi + 1e-11,
                                       np.pi / 2, 0.3])
    def test_off_resonant_phase_refused(self, phase):
        with pytest.raises(ValidationError, match="resonant"):
            resonant_r(CavityConfig(r=0.8894, phase=phase))


class TestThresholdGain:
    def test_resonant_value(self):
        result = threshold_gain(CavityConfig(r=0.9))
        assert result.gain == pytest.approx(-np.log(0.9), abs=1e-14)
        assert result.branch_theta == 0.0

    def test_perfect_cavity_limit(self):
        assert threshold_gain(CavityConfig(r=1 - 1e-9)).gain < 1e-4

    def test_pi_branch(self):
        even = threshold_gain(CavityConfig(r=0.9))
        odd = threshold_gain(CavityConfig(r=0.9, phase=np.pi))
        assert odd.branch_theta == pytest.approx(np.pi)
        assert odd.gain == pytest.approx(even.gain, rel=1e-12)

    def test_branch_from_total_phase(self):
        result = threshold_gain(CavityConfig(r=0.8, phase=2.0 + 1.5))
        assert result.branch_theta == pytest.approx(np.pi)  # cos(3.5) < 0

    def test_no_finite_threshold(self):
        with pytest.raises(NoFiniteThresholdError):
            threshold_gain(CavityConfig(r=0.8, phase=np.pi / 2))
        with pytest.raises(NoFiniteThresholdError, match="r = 0"):
            threshold_gain(CavityConfig(r=0.0))


class TestCombIO:
    def test_empty_cavity_reflects_coherently(self):
        block = comb_io(0.0, 0.0, CavityConfig(r=0.7))
        assert block.c == pytest.approx(1.0, abs=1e-14)
        assert block.s == pytest.approx(0.0, abs=1e-14)

    def test_no_cavity_single_pass(self):
        g, theta, phase = 0.3, 0.5, 0.2
        block = comb_io(g, theta, CavityConfig(r=0.0, phase=phase))
        assert block.c == pytest.approx(
            np.exp(1j * (theta + phase)) * np.cosh(g), rel=1e-12)
        assert block.s == pytest.approx(
            np.exp(1j * (theta + phase)) * np.sinh(g), rel=1e-12)

    def test_resonant_squeezing_variance(self):
        r, g = 0.9, 0.05
        block = comb_io(g, 0.0, CavityConfig(r=r))
        _, var_p, _ = output_covariance(block)
        expected = 0.5 * ((r - np.exp(-g)) / (1 - r * np.exp(-g))) ** 2
        assert var_p == pytest.approx(expected, rel=1e-10)

    def test_symplectic_sweep(self):
        rng = np.random.default_rng(8)
        for gain, r in below_threshold_draws(rng, 200):
            theta = rng.uniform(-np.pi, np.pi)
            phase = rng.uniform(-0.5, 0.5)
            block = comb_io(gain, theta, CavityConfig(r=r, phase=phase))
            assert check_symplectic(block, 1e-10)

    @pytest.mark.parametrize("branch", [0.0, np.pi])
    def test_grid_matches_scalar_calls(self, branch):
        # one call on a gains x theta grid gives each point's scalar block;
        # numpy's array and scalar loops round apart, so not bit for bit
        rng = np.random.default_rng(12 if branch else 11)
        for _ in range(10):
            cavity = random_detuned_cavity(rng, branch)
            gains = rng.uniform(0.0, 0.999, 6) * threshold_gain(cavity).gain
            thetas = rng.uniform(-np.pi, np.pi, 15)
            grid = comb_io(gains[:, None], thetas, cavity)
            assert grid.c.shape == grid.s.shape == (6, 15)
            assert check_symplectic(grid, 1e-10)
            spec = squeezing_spectrum(gains, cavity, thetas)
            assert np.array_equal(
                spec.var_p, 0.5 / (np.abs(grid.c) + np.abs(grid.s)) ** 2)
            for i, g in enumerate(gains):
                for j, th in enumerate(thetas):
                    c, s = comb_io(float(g), float(th), cavity)
                    assert abs(grid.c[i, j] / c - 1) <= 4e-15
                    assert abs(grid.s[i, j] / s - 1) <= 4e-15

    def test_at_threshold_raises(self):
        r = 0.9
        gth = threshold_gain(CavityConfig(r=r)).gain
        with pytest.raises(AtThresholdError):
            comb_io(gth, 0.0, CavityConfig(r=r))

    def test_pi_branch_singular_at_theta_pi(self):
        cavity = CavityConfig(r=0.9, phase=np.pi)
        result = threshold_gain(cavity)
        assert result.branch_theta == pytest.approx(np.pi)
        with pytest.raises(AtThresholdError) as excinfo:
            comb_io(result.gain, np.pi, cavity)
        assert excinfo.value.theta == pytest.approx(np.pi)
        # the zero-shift block stays regular on this branch
        block = comb_io(result.gain, 0.0, cavity)
        assert check_symplectic(block, 1e-10)

    def test_overflowing_gain_rejected(self):
        with pytest.raises(ValidationError, match="overflow"):
            comb_io(800.0, 0.0, CavityConfig(r=0.5))

    @pytest.mark.parametrize("gain", [np.nan, [0.1, np.nan]])
    def test_nan_gain_refused(self, gain):
        # a NaN gain is no gain, not an overflowing one
        with pytest.raises(ValidationError, match="gain must be >= 0"):
            comb_io(gain, 0.0, CavityConfig(r=0.5))

    @pytest.mark.parametrize("theta", [np.nan, np.inf,
                                       np.array([0.1, np.nan])])
    def test_non_finite_theta_refused(self, theta):
        # refused before numpy divides by a NaN determinant
        with pytest.raises(ValidationError, match="theta must be finite"):
            comb_io(0.1, theta, CavityConfig(r=0.8894))

    def test_spectrum_refuses_non_finite_theta(self):
        with pytest.raises(ValidationError, match="theta must be finite"):
            squeezing_spectrum([0.1], CavityConfig(r=0.8894), [np.nan, 0.0])

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
            flipped = comb_io(g, theta, CavityConfig(r=r, phase=np.pi))
            oracle = raw_block(g, theta, -r, 0.0)
            assert abs(flipped.c) == pytest.approx(abs(oracle[0, 0]), rel=1e-12)
            assert abs(flipped.s) == pytest.approx(abs(oracle[0, 1]), rel=1e-12)
            # variances agree, global sign is unobservable
            var = output_covariance(flipped)
            m = (np.abs(oracle[0, 0]), np.abs(oracle[0, 1]))
            assert var[1] + var[0] == pytest.approx(
                0.5 * ((m[0] + m[1]) ** 2 + (m[0] - m[1]) ** 2), rel=1e-10)


class TestPairEntanglement:
    """The (+theta, -theta) pair physics of ``squeezing_spectrum``."""

    def test_vacuum_epr_is_one(self):
        spec = squeezing_spectrum([0.0], CavityConfig(r=0.8), [0.4])
        assert spec.epr[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_entangled_near_resonance(self):
        cavity = CavityConfig(r=0.889)
        gth = threshold_gain(cavity).gain
        spec = squeezing_spectrum([0.8 * gth], cavity, [cavity.t**2 / 10])
        assert spec.epr[0, 0] < 1.0

    def test_approaches_one_toward_pi(self):
        cavity = CavityConfig(r=0.889)
        gth = threshold_gain(cavity).gain
        values = list(squeezing_spectrum([0.5 * gth], cavity,
                                         [0.5, 1.5, 2.5, 3.0]).epr[0])
        assert all(v < 1.0 for v in values)
        assert values == sorted(values)
        assert values[-1] > 0.99

    def test_pair_covariance_reduced_state_thermal(self):
        cavity = CavityConfig(r=0.889)
        g = 0.8 * threshold_gain(cavity).gain
        cov = pair_covariance(g, 0.05, cavity)
        # single-comb marginals: isotropic, hotter than vacuum, at
        # (1 + 2|S|^2) / 2
        s_abs = abs(raw_block(g, 0.05, cavity.r, 0.0)[0, 1])
        for k in (0, 2):
            assert cov[k, k] == pytest.approx(cov[k + 1, k + 1], rel=1e-12)
            assert cov[k, k] == pytest.approx(0.5 + s_abs**2, rel=1e-12)
            assert cov[k, k + 1] == pytest.approx(0.0, abs=1e-12)

    def test_pair_covariance_minimum_eigenvalue(self):
        # smallest eigenvalue of the 4x4 pair covariance is the squeezed
        # joint-quadrature variance var_p = (|C| - |S|)^2 / 2
        cavity = CavityConfig(r=0.88)
        gth = threshold_gain(cavity).gain
        for theta in (0.02, 0.3, 1.0):
            assert_pair_matches_spectrum(0.7 * gth, theta, cavity, rel=1e-10)

    @pytest.mark.parametrize("branch", [0.0, np.pi])
    def test_pair_covariance_detuned(self, branch):
        # a round-trip phase away from 0 and pi, on both branches
        rng = np.random.default_rng(31 if branch else 30)
        for _ in range(20):
            cavity = random_detuned_cavity(rng, branch)
            g = rng.uniform(0.1, 0.95) * threshold_gain(cavity).gain
            theta = branch + rng.uniform(-1.0, 1.0)
            assert_pair_matches_spectrum(g, theta, cavity, rel=1e-9)

    def test_epr_matches_pair_covariance(self):
        assert_pair_matches_spectrum(0.05, 0.3, CavityConfig(r=0.85),
                                     rel=1e-12)


class TestSqueezingSpectrum:
    def test_vacuum_gains_flat(self, default_cavity):
        thetas = np.linspace(-np.pi, np.pi, 41)
        spec = squeezing_spectrum([0.0, 0.0], default_cavity, thetas)
        np.testing.assert_allclose(spec.var_x, 0.5, atol=1e-12)
        np.testing.assert_allclose(spec.var_p, 0.5, atol=1e-12)

    def test_squeezing_deepest_on_resonance(self, default_cavity):
        gth = threshold_gain(default_cavity).gain
        thetas = np.linspace(-np.pi, np.pi, 201)
        spec = squeezing_spectrum([0.9 * gth], default_cavity, thetas)
        center = np.argmin(np.abs(thetas))
        assert thetas[center] == pytest.approx(0.0, abs=1e-12)
        assert np.argmin(spec.var_p[0]) == center
        assert np.all(spec.var_p[0, np.arange(201) != center]
                      > spec.var_p[0, center])

    def test_bandwidth_of_squeezing_dip(self, default_cavity):
        # depth halves at |theta| of order t^2 / 2
        gth = threshold_gain(default_cavity).gain
        thetas = np.linspace(-0.8, 0.8, 1601)
        spec = squeezing_spectrum([0.9 * gth], default_cavity, thetas)
        depth = 0.5 - spec.var_p[0]
        half = np.abs(thetas)[depth >= 0.5 * depth.max()].max()
        scale = default_cavity.t**2 / 2
        assert scale / 4 < half < 4 * scale

    def test_large_phase_reduced_once(self):
        # phi = 2 pi 1e17 swamps theta +- phi unless it is reduced mod 2 pi
        phase = 2.0 * np.pi * 1e17
        reduced = -math.remainder(-phase, 2.0 * math.pi)
        big = CavityConfig(r=0.8894, phase=phase)
        small = CavityConfig(r=0.8894, phase=reduced)
        assert big.phase == reduced
        thetas = np.linspace(-0.6, 0.6, 121)
        gains = [0.8 * threshold_gain(small).gain]
        spectra = [squeezing_spectrum(gains, cavity, thetas)
                   for cavity in (big, small)]
        for name in ("var_x", "var_p", "epr"):
            assert getattr(spectra[0], name).tobytes() \
                == getattr(spectra[1], name).tobytes(), name

    def test_variance_blows_up_at_threshold(self, default_cavity):
        gth = threshold_gain(default_cavity).gain
        block = comb_io(gth * (1 - 1e-8), 0.0, default_cavity)
        var_x, _, _ = output_covariance(block)
        assert var_x > 1e6

    def test_above_threshold_rejected(self, default_cavity):
        gth = threshold_gain(default_cavity).gain
        with pytest.raises(AtThresholdError):
            squeezing_spectrum([1.01 * gth], default_cavity, [0.0])

    def test_matches_explicit_solve_off_resonance(self):
        # every grid point against the 2x2 inverse, away from resonance
        cavity = CavityConfig(r=0.8894, phase=0.1)
        gth = threshold_gain(cavity).gain
        gains = gth * np.array([0.0, 0.3, 0.6, 0.9])
        thetas = np.linspace(-np.pi, np.pi, 41)
        spec = squeezing_spectrum(gains, cavity, thetas)
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


class TestNearThreshold:
    """float64 spectra against an extended-precision evaluation of the same
    closed form up to 0.99999 of threshold, where |C| and |S| agree to about
    ten digits and their difference would lose them."""

    RATIOS = np.array([0.99, 0.999, 0.9999, 0.99999])
    OFFSETS = np.array([0.0, 1e-4, -1e-4, 1e-3, -1e-3, 0.3])

    def draws(self, branch):
        rng = np.random.default_rng(41 if branch else 40)
        for _ in range(12):
            cavity = random_detuned_cavity(rng, branch)
            gains = self.RATIOS * threshold_gain(cavity).gain
            yield cavity, gains, branch + self.OFFSETS

    def bound(self):
        # rounding of the O(1) terms of D, amplified by 1/|D| ~ 1/(1 - g/g_th)
        return 16 * np.finfo(float).eps / (1 - self.RATIOS[:, None])

    @needs_longdouble
    @pytest.mark.parametrize("branch", [0.0, np.pi])
    def test_squeezing_spectrum_matches_extended(self, branch):
        for cavity, gains, thetas in self.draws(branch):
            spec = squeezing_spectrum(gains, cavity, thetas)
            ac, as_, as_minus = extended_pair(gains[:, None], thetas, cavity)
            var_x = (ac + as_) ** 2 / 2
            var_p = 1 / (2 * (ac + as_) ** 2)
            # |C|^2 - |S|^2 = 1 turns the EPR sum 1 + 2|S|^2 - 2|C S(-theta)|
            # into 1 / (|C| + |S(-theta)|)^2
            epr = 1 / (ac + as_minus) ** 2
            assert_relative_below(spec.var_x, var_x, self.bound())
            assert_relative_below(spec.var_p, var_p, self.bound())
            shifted = thetas != 0.0
            assert np.all(np.isnan(spec.epr[:, ~shifted]))
            assert_relative_below(spec.epr[:, shifted], epr[:, shifted],
                                  self.bound())

    def test_one_block_evaluation(self, monkeypatch, default_cavity):
        calls, blocks = [], cavity_module.comb_io

        def counted(*args, **kwargs):
            calls.append(args)
            return blocks(*args, **kwargs)

        monkeypatch.setattr(cavity_module, "comb_io", counted)
        gth = threshold_gain(default_cavity).gain
        squeezing_spectrum([0.5 * gth, 0.9 * gth], default_cavity,
                           np.linspace(-1.0, 1.0, 11))
        assert len(calls) == 1
