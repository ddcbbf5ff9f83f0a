import math

import numpy as np
import pytest

import spopo.pulses
from spopo import (AtThresholdError, NumericalError, ValidationError,
                   covariance, duan_sum, min_variance_transcendental,
                   sigma2_limit)
from spopo.pulses import _variance_at_angle, min_variance_curve

from conftest import below_threshold_draws
from oracles import (io_series_coefficients, min_variance_direct,
                     ppt_min_symplectic_eigenvalue, pulse_pair_covariance,
                     series_covariance_entry)


class TestSeriesCoefficients:
    def test_zero_gain_lossless(self):
        r = 0.8
        t = np.sqrt(1 - r * r)
        cx, cp = io_series_coefficients(0.0, r)
        np.testing.assert_allclose(cx, cp)
        assert cx[0] == -r
        assert cx[1] == pytest.approx(t**2)
        assert cx[2] == pytest.approx(t**2 * r)
        assert np.sum(cx**2) == pytest.approx(1.0, abs=1e-12)

    def test_no_cavity_single_pass(self):
        cx, cp = io_series_coefficients(0.4, 0.0, s_max=3)
        np.testing.assert_allclose(cx[2:], 0.0, atol=1e-15)
        assert cx[1] == pytest.approx(np.exp(0.4))
        assert cp[1] == pytest.approx(np.exp(-0.4))

    def test_sum_matches_diagonal_variance(self):
        g, r = 0.08, 0.9
        cx, cp = io_series_coefficients(g, r)
        cov = covariance(g, r, 1)
        assert 0.5 * np.sum(cp**2) == pytest.approx(cov.v_minus[0, 0], abs=1e-12)
        assert 0.5 * np.sum(cx**2) == pytest.approx(cov.v_plus[0, 0], abs=1e-10)

    def test_above_threshold_rejected(self):
        for r in (0.9, -0.9):
            with pytest.raises(AtThresholdError):
                io_series_coefficients(0.2, r)

    def test_negative_r_alternates(self):
        cx, cp = io_series_coefficients(0.1, 0.8)
        flipped = io_series_coefficients(0.1, -0.8)
        signs = -(-1.0) ** np.arange(cx.size)
        for even, odd in zip((cx, cp), flipped):
            # a power of a negative base may round differently by one ulp
            np.testing.assert_allclose(odd, signs * even, rtol=1e-15, atol=0)


class TestCovariance:
    def test_vacuum(self):
        cov = covariance(0.0, 0.7, 5)
        np.testing.assert_allclose(cov.v_plus, 0.5 * np.eye(5), atol=1e-15)
        np.testing.assert_allclose(cov.v_minus, 0.5 * np.eye(5), atol=1e-15)

    def test_threshold_diagonal(self):
        for r in (0.5, 0.8, 0.9, 0.99):
            cov = covariance(-np.log(r), r, 2)
            assert cov.v_minus[0, 0] / 0.5 == pytest.approx(
                2 * r**2 / (1 + r**2), abs=1e-12)

    def test_toeplitz_and_signs(self):
        g, r = 0.1, 0.85
        cov = covariance(g, r, 8)
        for mat in (cov.v_plus, cov.v_minus):
            first = mat[0]
            for j in range(8):
                np.testing.assert_allclose(mat[j, j:], first[:8 - j], rtol=1e-13)
        off = ~np.eye(8, dtype=bool)
        assert np.all(cov.v_plus[off] > 0)
        assert np.all(cov.v_minus[off] < 0)
        assert cov.v_minus[0, 0] < 0.5 < cov.v_plus[0, 0]

    def test_correlation_decay_rate(self):
        g, r = 0.07, 0.8
        cov = covariance(g, r, 8)
        ratios_plus = cov.v_plus[0, 2:] / cov.v_plus[0, 1:-1]
        ratios_minus = cov.v_minus[0, 2:] / cov.v_minus[0, 1:-1]
        np.testing.assert_allclose(ratios_plus, r * np.exp(g), rtol=1e-12)
        np.testing.assert_allclose(ratios_minus, r * np.exp(-g), rtol=1e-12)

    def test_closed_form_matches_series(self):
        g, r = 0.12, 0.75
        cov = covariance(g, r, 7)
        for sep in range(7):
            assert cov.v_plus[0, sep] == pytest.approx(
                series_covariance_entry(g, r, sep, +1), abs=1e-12)
            assert cov.v_minus[0, sep] == pytest.approx(
                series_covariance_entry(g, r, sep, -1), abs=1e-12)

    def test_purity_defect(self):
        rng = np.random.default_rng(17)
        for gain, r in below_threshold_draws(rng, 50):
            cov = covariance(gain, r, 1)
            assert cov.v_plus[0, 0] * cov.v_minus[0, 0] > 0.25

    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["even", "odd"])
    def test_toeplitz_expansion_of_separation_entries(self, sign):
        # V_(j,k) is the separation entry V(|j - k|) to the last bit, on
        # draws below threshold and at g = -ln |r|, where V+ diverges
        rng = np.random.default_rng(31)
        draws = below_threshold_draws(rng, 300, r_range=(0.01, 0.99),
                                      ratio_range=(0.0, 0.999))
        draws += [(-np.log(r), r) for r in (0.3, 0.8894, 0.99)]
        for gain, r in draws:
            r *= sign
            n = int(rng.integers(2, 65))
            cov = covariance(gain, r, n)
            idx = np.arange(n)
            sep = np.abs(idx[:, None] - idx[None, :])
            entries = spopo.pulses._toeplitz_entries(gain, r, idx)
            for mat, entry in zip((cov.v_plus, cov.v_minus), entries):
                assert mat.tobytes() == entry[sep].tobytes()

    @pytest.mark.parametrize("n", [2.5, 0, -3, np.nan, np.inf],
                             ids=["fraction", "zero", "negative", "nan", "inf"])
    def test_pulse_count_must_be_whole(self, n):
        with pytest.raises(ValidationError, match="whole numbers >= 1"):
            covariance(0.1, 0.5, n)
        with pytest.raises(ValidationError, match="whole numbers >= 1"):
            min_variance_curve(0.1, 0.5, n)
        with pytest.raises(ValidationError, match="whole numbers >= 1"):
            min_variance_transcendental(0.1, 0.5, n)
        with pytest.raises(ValidationError, match="whole numbers >= 1"):
            min_variance_curve(0.1, 0.5, np.array([1, 2, n]))

    def test_whole_float_pulse_count_accepted(self):
        assert np.array_equal(covariance(0.1, 0.5, 3.0).v_minus,
                              covariance(0.1, 0.5, 3).v_minus)
        for whole, integer in zip(min_variance_curve(0.1, 0.5, 3.0),
                                  min_variance_curve(0.1, 0.5, 3)):
            assert whole.tobytes() == integer.tobytes()

    def test_odd_branch_is_sign_flip_similarity(self):
        g, r, n = 0.09, 0.8, 6
        even = covariance(g, r, n)
        odd = covariance(g, -r, n)
        signs = np.diag((-1.0) ** np.arange(n))
        np.testing.assert_allclose(odd.v_minus, signs @ even.v_minus @ signs,
                                   rtol=1e-13)


class TestMinVariance:
    @pytest.mark.parametrize("n, ratio", [
        pytest.param(n, None, id=str(n)) for n in (2, 3, 5, 8, 16, 32, 64)
    ] + [
        # near threshold, where the root sits deep in a bracket of width pi/N
        (200, 0.8), (740, 0.95)])
    def test_transcendental_matches_dense(self, n, ratio):
        if ratio is None:
            gain, r = below_threshold_draws(np.random.default_rng(n), 1)[0]
        else:
            r = 0.8894
            gain = ratio * -np.log(r)
        cov = covariance(gain, r, n)
        dense = min_variance_direct(cov)
        semi = min_variance_transcendental(gain, r, n)
        assert semi.sigma2 == pytest.approx(dense.sigma2, rel=1e-12, abs=0)
        assert abs(np.dot(semi.eigvec, dense.eigvec)) > 1 - 1e-10
        residual = cov.v_minus @ semi.eigvec - semi.sigma2 * semi.eigvec
        assert np.abs(residual).max() < 1e-8

    def test_angle_in_range(self):
        for n in (2, 5, 40):
            sol = min_variance_transcendental(0.1, 0.8, n)
            assert 0.0 < n * sol.theta_sol < np.pi

    def test_eigvec_symmetric(self):
        sol = min_variance_transcendental(0.1, 0.8, 9)
        np.testing.assert_allclose(sol.eigvec, sol.eigvec[::-1], rtol=1e-12)

    def test_single_pulse(self):
        g, r = 0.1, 0.8
        sol = min_variance_transcendental(g, r, 1)
        assert sol.sigma2 == pytest.approx(covariance(g, r, 1).v_minus[0, 0],
                                           rel=1e-14, abs=0)
        assert sol.theta_sol == pytest.approx(np.arccos(r * np.exp(-g)),
                                              rel=1e-15, abs=0)
        np.testing.assert_allclose(sol.eigvec, [1.0])

    def test_degenerate_vacuum_tie_break(self):
        sol = min_variance_direct(covariance(0.0, 0.8, 4))
        assert sol.sigma2 == pytest.approx(0.5)
        np.testing.assert_allclose(sol.eigvec, np.eye(4)[:, 0], atol=1e-14)

    def test_sigma2_nonincreasing_in_n(self):
        g, r = 0.08, 0.85
        values = [min_variance_transcendental(g, r, n).sigma2
                  for n in range(1, 80)]
        assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))
        assert values[-1] > sigma2_limit(g, r)

    def test_odd_branch_matches_dense(self):
        g, r, n = 0.06, 0.8, 12
        cov = covariance(g, -r, n)
        dense = min_variance_direct(cov)
        semi = min_variance_transcendental(g, -r, n)
        assert semi.sigma2 == pytest.approx(dense.sigma2, abs=1e-10)
        assert abs(np.dot(semi.eigvec, dense.eigvec)) > 1 - 1e-10


needs_longdouble = pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= np.finfo(float).eps,
    reason="np.longdouble is no wider than float64 on this platform")


def reference_angle(q, n_pulses):
    """Root in (0, pi/N) of f(theta) = cos(theta (N+1)/2) - q cos(theta (N-1)/2),
    the defining form of the quantization, by bisection in np.longdouble for
    the float64 q the solver forms."""
    ld = np.longdouble
    n = np.asarray(n_pulses, dtype=ld)
    q = ld(q)
    lo, hi = np.zeros(n.shape, dtype=ld), 4 * np.arctan(ld(1)) / n
    for _ in range(96):
        mid = (lo + hi) / 2
        above = np.cos(mid * (n + 1) / 2) > q * np.cos(mid * (n - 1) / 2)
        lo, hi = np.where(above, mid, lo), np.where(above, hi, mid)
    return (lo + hi) / 2


def ulp_distance(value, reference):
    """|value - reference| in units of the float64 spacing at the reference."""
    spacing = np.spacing(np.abs(reference.astype(float)))
    return (np.abs(np.asarray(value, dtype=np.longdouble) - reference)
            / spacing.astype(np.longdouble)).astype(float)


class TestQuantizedAngle:
    N_VALUES = np.array([1, 2, 3, 10, 100, 10**4, 10**6, 2 * 10**7])
    RATIOS = (0.0, 0.5, 0.9, 0.99, 0.999, 0.99999)

    @needs_longdouble
    @pytest.mark.parametrize("r", [0.0, 0.5, 0.8894, 0.97])
    def test_matches_extended_precision_reference(self, r):
        ld = np.longdouble
        pi = 4 * np.arctan(ld(1))
        for ratio in self.RATIOS:
            # r = 0 has no threshold, and its root does not depend on g
            gain = ratio * -np.log(r) if r > 0 else ratio
            q = r * math.exp(-gain)
            ref = reference_angle(q, self.N_VALUES)
            # the reference meets the two closed-form roots
            assert abs(ref[0] / np.arccos(ld(q)) - 1) < 1e-17
            if r == 0:
                np.testing.assert_array_less(
                    np.abs(ref * (self.N_VALUES + 1) / pi - 1), 1e-17)
            sigma2, theta = min_variance_curve(gain, r, self.N_VALUES)
            assert ulp_distance(theta, ref).max() <= 2.0, ratio
            # the solver adds < 1e-14 to the closed form at the exact angle
            exact = _variance_at_angle(gain, r, ref.astype(float))
            np.testing.assert_allclose(sigma2, exact, rtol=1e-14, atol=0)

    @needs_longdouble
    def test_slowest_start_converges(self):
        # |r| e^-g the largest float below 1: kappa = 2^-54, the seed sits
        # about 2^26 below the N = 1 root and Newton needs 32 of its passes
        r = np.nextafter(1.0, 0.0)
        theta = min_variance_curve(0.0, r, np.array([1, 2, 10**6]))[1]
        assert ulp_distance(theta[:1], np.arccos(np.longdouble(r)))[0] <= 2.0
        assert np.all(np.diff(theta) < 0)

    @pytest.mark.parametrize("r, ratio", [
        (0.0, 0.0), (0.5, 0.3), (0.8894, 0.8), (0.8894, 0.99999), (0.97, 0.95)])
    def test_batch_independent(self, r, ratio):
        gain = ratio * -np.log(r) if r > 0 else 0.0
        n_max = 3000
        sigma2, theta = min_variance_curve(gain, r, np.arange(1, n_max + 1))
        for n in (1, 2, 3, 17, 640, n_max):
            alone = min_variance_curve(gain, r, n)
            sol = min_variance_transcendental(gain, r, n)
            for value in (alone[1], sol.theta_sol):
                assert np.float64(value).tobytes() == theta[n - 1].tobytes(), n
            for value in (alone[0], sol.sigma2):
                assert np.float64(value).tobytes() == sigma2[n - 1].tobytes(), n

    def test_paper_cavity_converges_within_eight_passes(self, monkeypatch):
        # 6-7 passes here; one more leaves room for a platform's last-bit
        # trigonometry
        monkeypatch.setattr(spopo.pulses, "NEWTON_CAP", 8)
        r = 0.8894
        for ratio in self.RATIOS:
            min_variance_curve(ratio * -np.log(r), r, np.arange(1, 10**4 + 1))

    def test_unconverged_angle_raises(self, monkeypatch):
        monkeypatch.setattr(spopo.pulses, "NEWTON_CAP", 3)
        with pytest.raises(NumericalError):
            min_variance_curve(0.0, 0.999, np.arange(1, 5))


class TestDuanSum:
    def test_vacuum_is_exactly_two(self):
        for sep in range(1, 6):
            assert duan_sum(0.0, 0.7, sep) == pytest.approx(2.0, abs=1e-14)

    def test_matches_explicit_marginals(self):
        g, r = 0.11, 0.82
        cov = covariance(g, r, 6)
        j, k = 1, 4
        var_x = cov.v_plus[j, j] + cov.v_plus[k, k] - 2 * cov.v_plus[j, k]
        var_p = cov.v_minus[j, j] + cov.v_minus[k, k] + 2 * cov.v_minus[j, k]
        assert duan_sum(g, r, k - j) == pytest.approx(var_x + var_p, rel=1e-14)

    def test_monotone_toward_uncorrelated_value(self):
        g, r = 0.15, 0.4
        cov = covariance(g, r, 12)
        values = duan_sum(g, r, np.arange(1, 12))
        assert np.all(np.diff(values) >= 0)
        limit = 2 * (cov.v_plus[0, 0] + cov.v_minus[0, 0])
        assert values[-1] < limit
        # correlations decay like (r e^g)^d: essentially gone by d = 11
        assert values[-1] == pytest.approx(limit, rel=1e-3)

    def test_adjacent_pulses_beat_separability_bound(self):
        # at small gain adjacent pulses break the Duan bound:
        # duan = 2 - 4 r g + O(g^2).  The expansion fails at larger g, where
        # the sum can exceed 2 while the pair stays entangled (acceptance
        # suite notes, criterion 06)
        g, r = 0.005, 0.8
        value = duan_sum(g, r, 1)
        assert value < 2.0
        assert value == pytest.approx(2 - 4 * r * g, abs=20 * g**2)

    @pytest.mark.parametrize("separations", [
        0, -1, 1.5, np.nan, np.inf, [1, 0], np.array([2.0, 2.5]), "1",
    ], ids=["zero", "negative", "fraction", "nan", "inf", "list-with-zero",
            "array-with-fraction", "string"])
    def test_separation_validation(self, separations):
        with pytest.raises(ValidationError, match="whole numbers >= 1"):
            duan_sum(0.1, 0.8, separations)

    def test_threshold_refused_before_separation(self):
        with pytest.raises(AtThresholdError):
            duan_sum(0.3, 0.9, 0)

    def test_number_in_number_out_array_in_array_out(self):
        g, r = 0.1, -0.8
        assert type(duan_sum(g, r, 3)) is float
        assert duan_sum(g, r, 3.0) == duan_sum(g, r, np.int64(3))
        grid = np.array([[1, 2, 3], [4, 5, 6]])
        values = duan_sum(g, r, grid)
        assert values.shape == grid.shape
        assert values[1, 2] == duan_sum(g, r, 6)

    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["even", "odd"])
    def test_matches_matrix_form_bit_for_bit(self, sign):
        """Every pulse pair j < k of covariance(g, r, n): the matrix form
        (V+_jj + V+_kk - 2 V+_jk) + (V-_jj + V-_kk + 2 V-_jk) is
        duan_sum(g, r, k - j) to the last bit, scalar or broadcast."""
        rng = np.random.default_rng(30)
        for gain, r in below_threshold_draws(rng, 300, r_range=(0.01, 0.99),
                                             ratio_range=(0.0, 0.999)):
            r *= sign
            n = int(rng.integers(2, 65))
            cov = covariance(gain, r, n)
            vp, vm = cov.v_plus, cov.v_minus
            j, k = np.triu_indices(n, 1)
            matrix = (vp[j, j] + vp[k, k] - 2.0 * vp[j, k]) \
                + (vm[j, j] + vm[k, k] + 2.0 * vm[j, k])
            assert duan_sum(gain, r, k - j).tobytes() == matrix.tobytes()
            s = int(rng.integers(1, n))
            assert np.float64(duan_sum(gain, r, s)).tobytes() \
                == matrix[np.argmax(k - j == s)].tobytes()


class TestPartialTransposeOracle:
    def test_vacuum_pair_on_the_bound(self):
        sigma = pulse_pair_covariance(0.5, 0.0, 0.5, 0.0)
        assert ppt_min_symplectic_eigenvalue(sigma) == pytest.approx(
            0.5, rel=1e-15)

    def test_product_of_squeezed_states_on_the_bound(self):
        sigma = 0.5 * np.diag(np.exp([-1.0, 1.0, 0.6, -0.6]))
        assert ppt_min_symplectic_eigenvalue(sigma) == pytest.approx(
            0.5, rel=1e-14)

    @pytest.mark.parametrize("squeeze", [0.1, 0.5, 1.0, 2.0])
    def test_two_mode_squeezed_vacuum(self, squeeze):
        c, s = np.cosh(2 * squeeze) / 2, np.sinh(2 * squeeze) / 2
        sigma = pulse_pair_covariance(c, s, c, -s)
        assert ppt_min_symplectic_eigenvalue(sigma) == pytest.approx(
            np.exp(-2 * squeeze) / 2, rel=1e-12, abs=0)


class TestCombIntegralOracle:
    def test_covariance_from_comb_blocks(self):
        """Cross-module consistency: the pulse covariance entries are the
        comb-shift Fourier coefficients of the cavity block spectra,

            V_(j,k)^(-) = (1/2pi) int dtheta e^{i(j-k)theta}
                          [ |C|^2 + |S|^2 - 2 Re C(theta) S(-theta) ] / 2

        (+ branch with the opposite correlator sign)."""
        from spopo import CavityConfig, comb_io

        g, r, n = 0.08, 0.9, 4
        cavity = CavityConfig(r=r)
        m = 2048
        thetas = (np.arange(m) + 0.5) * 2 * np.pi / m - np.pi
        c_arr = np.empty(m, complex)
        s_arr = np.empty(m, complex)
        s_neg = np.empty(m, complex)
        for i, th in enumerate(thetas):
            block = comb_io(g, th, cavity)
            c_arr[i], s_arr[i] = block.c, block.s
            s_neg[i] = comb_io(g, -th, cavity).s
        base = np.abs(c_arr) ** 2 + np.abs(s_arr) ** 2
        cross = 2 * np.real(c_arr * s_neg)
        cov = covariance(g, r, n)
        for sep in range(n):
            phase = np.exp(1j * sep * thetas)
            v_minus = np.mean(phase * (base - cross)).real / 2
            v_plus = np.mean(phase * (base + cross)).real / 2
            assert v_minus == pytest.approx(cov.v_minus[0, sep], abs=1e-12)
            assert v_plus == pytest.approx(cov.v_plus[0, sep], abs=1e-12)


class TestThresholdGuards:
    def test_above_threshold_covariance(self):
        for r in (0.9, -0.9):
            with pytest.raises(AtThresholdError):
                covariance(0.3, r, 4)

    @pytest.mark.parametrize("r", [1.0, -1.0, np.nan])
    def test_unit_or_nan_r_refused(self, r):
        with pytest.raises(ValidationError):
            covariance(0.0, r, 4)

    @pytest.mark.parametrize("call, args", [
        (io_series_coefficients, ()), (covariance, (4,)), (sigma2_limit, ()),
        (min_variance_curve, (np.arange(1, 4),)),
        (min_variance_transcendental, (4,)), (duan_sum, (1,))],
        ids=lambda value: getattr(value, "__name__", ""))
    def test_nan_gain_refused(self, call, args):
        with pytest.raises(ValidationError, match="gain must be >= 0"):
            call(np.nan, 0.5, *args)

    def test_sigma2_depends_on_abs_r(self):
        g, r = 0.09, 0.87
        assert sigma2_limit(g, -r) == sigma2_limit(g, r)

    def test_sigma2_limit_matches_closed_form(self):
        g, r = 0.09, 0.87
        expected = 0.5 * ((r - np.exp(-g)) / (1 - r * np.exp(-g))) ** 2
        assert sigma2_limit(g, r) == pytest.approx(expected, rel=1e-14)
