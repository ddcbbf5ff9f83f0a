import math

import numpy as np
import pytest

from spopo import (CavityConfig, FrequencyGrid, ValidationError,
                   build_kernel, covariance, cramer_rao, fisher_information,
                   improvement_curve, min_variance_direct,
                   min_variance_transcendental, optimal_probe,
                   schmidt_decompose, sigma2_limit, threshold_gain)
from spopo.metrology import ASYMPTOTE_FRACTION, _first_n_at_asymptote
from spopo.pulses import min_variance_curve

from conftest import OMEGA0, T0


def fock_variance_of_x(squeeze: float, displacement: complex,
                       cutoff: int = 220) -> float:
    """First-principles Var(x) of D(beta) S |0> built by operator exponentials
    acting on the Fock-space state vector.

    The squeeze direction is chosen so that p is the squeezed quadrature
    (x anti-squeezed), matching the pulse covariance convention.
    """
    from scipy.sparse import diags
    from scipy.sparse.linalg import expm_multiply

    a = diags(np.sqrt(np.arange(1, cutoff)), 1, format="csc")
    adag = a.conj().T
    vacuum = np.zeros(cutoff, dtype=complex)
    vacuum[0] = 1.0
    state = expm_multiply(0.5 * squeeze * (adag @ adag - a @ a), vacuum)
    state = expm_multiply(displacement * adag - np.conj(displacement) * a,
                          state)
    x_op = ((a + adag) / np.sqrt(2)).toarray()
    mean = np.vdot(state, x_op @ state).real
    second = np.vdot(state, x_op @ (x_op @ state)).real
    return second - mean**2


class TestFisherInformation:
    def test_coherent_input(self):
        alpha = np.array([[1.5, -0.5, 2.0]])
        v = 0.5 * np.eye(3)
        assert fisher_information(alpha, [v]) \
            == pytest.approx(np.sum(alpha**2), rel=1e-12)

    def test_probe_aligned_with_minimum_eigenvector(self):
        g, r, n = 0.09, 0.85, 12
        sol = min_variance_transcendental(g, r, n)
        amplitude = 3.7
        cov = covariance(g, r, n)
        value = fisher_information(amplitude * sol.eigvec[None, :],
                                   [cov.v_minus])
        assert value == pytest.approx(0.5 * amplitude**2 / sol.sigma2, rel=1e-8)

    def test_rejects_non_positive_definite(self):
        with pytest.raises(ValidationError):
            fisher_information(np.ones((1, 2)), [-np.eye(2)])

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_gaussian_qfi_oracle(self, seed):
        # pure displaced squeezed state: QFI = 4 Var(generator); with the
        # generator normalization of the implemented quadratic form,
        # F = 2 alpha'^2 Var_fock(x)
        rng = np.random.default_rng(seed)
        g = rng.uniform(0.05, 0.8)
        beta = rng.uniform(-1.5, 1.5) + 1j * rng.uniform(-1.5, 1.5)
        alpha = rng.uniform(0.5, 3.0)
        v_minus = np.array([[0.5 * np.exp(-2 * g)]])
        implemented = fisher_information(np.array([[alpha]]), [v_minus])
        oracle = 2.0 * alpha**2 * fock_variance_of_x(g, beta)
        assert implemented == pytest.approx(oracle, rel=1e-9)


class TestOptimalProbe:
    def test_single_pulse_weights(self, default_basis, default_cavity):
        probe = optimal_probe(default_basis, OMEGA0, default_cavity.r,
                              n_pulses=1, n_bar0=1e6, gain0=0.05)
        assert probe.alpha_prime.shape == (default_basis.n_kept, 1)
        assert probe.alpha_prime[0, 0] == pytest.approx(probe.amplitude)
        assert not np.any(probe.alpha_prime[1:])

    def test_spectral_round_trip(self, default_basis, default_cavity):
        probe = optimal_probe(default_basis, OMEGA0, default_cavity.r,
                              n_pulses=4, n_bar0=1e6, gain0=0.05)
        recovered = probe.pulse_freq * (OMEGA0 + default_basis.grid.omegas)
        target = default_basis.modes_freq[:, 0]
        err = np.linalg.norm(recovered - target) / np.linalg.norm(target)
        assert err < 1e-12

    def test_photon_number_normalization(self, default_basis, default_cavity):
        n_pulses, n_bar0 = 6, 2.5e5
        probe = optimal_probe(default_basis, OMEGA0, default_cavity.r,
                              n_pulses=n_pulses, n_bar0=n_bar0, gain0=0.08)
        total = probe.total_photons(default_basis.dt)
        assert total == pytest.approx(n_pulses * n_bar0, rel=1e-8)

    @staticmethod
    def _off_comb_probe(factor, grid, pump, crystal, cavity):
        """The basis on ``grid`` with its spacing scaled by ``factor``, and
        its 8-pulse probe at 0.8 g_th."""
        grid = FrequencyGrid(n_points=grid.n_points,
                             omega_max=factor * grid.omega_max)
        basis = schmidt_decompose(build_kernel(grid, pump, crystal),
                                  rep_period=T0, n_modes=4)
        gain0 = 0.8 * threshold_gain(cavity, 0.0).gain
        return basis, optimal_probe(basis, OMEGA0, cavity.r, 8, 1e6,
                                    gain0=gain0)

    def test_photon_number_on_a_finer_grid(self, default_grid, default_pump,
                                           default_crystal, default_cavity):
        # the sum over the time grid is 1 - 2.2e-7 of N n_bar0 at 0.97
        basis, probe = self._off_comb_probe(0.97, default_grid, default_pump,
                                            default_crystal, default_cavity)
        assert probe.total_photons(basis.dt) == pytest.approx(8e6, rel=1e-6)

    def test_coarser_grid_is_refused(self, default_grid, default_pump,
                                     default_crystal, default_cavity):
        # its pulse would repeat within T0: 1.0056 N n_bar0 photons at 1.1
        with pytest.raises(ValidationError, match="coarser"):
            self._off_comb_probe(1.1, default_grid, default_pump,
                                 default_crystal, default_cavity)

    def test_spread_much_smaller_than_carrier(self, default_basis,
                                              default_cavity):
        # second moment about the carrier: tiny against omega0^2, may be
        # slightly negative (1/(omega0+w)^2 weighting pulls the mean down)
        probe = optimal_probe(default_basis, OMEGA0, default_cavity.r,
                              n_pulses=2, n_bar0=1e6, gain0=0.05)
        assert abs(probe.spectral_spread_sq) < (0.1 * OMEGA0) ** 2
        assert OMEGA0**2 + probe.spectral_spread_sq > 0


class TestCramerRao:
    def test_coherent_limit(self):
        result = cramer_rao(0.5, 10, 1e6, OMEGA0, 1e26)
        assert result.improvement == pytest.approx(1.0, rel=1e-12)
        assert result.delta_tau == pytest.approx(result.delta_tau_sql)

    def test_quarter_variance(self):
        result = cramer_rao(0.25, 10, 1e6, OMEGA0, 1e26)
        assert result.improvement == pytest.approx(np.sqrt(2.0), rel=1e-12)

    def test_fisher_is_inverse_variance(self):
        result = cramer_rao(0.3, 4, 1e5, OMEGA0, 0.0)
        assert result.fisher == pytest.approx(result.delta_tau**-2, rel=1e-12)

    def test_chain_identity_transcendental_vs_dense(self):
        g, r, n = 0.07, 0.82, 24
        semi = min_variance_transcendental(g, r, n)
        dense = min_variance_direct(covariance(g, r, n))
        a = cramer_rao(semi.sigma2, n, 1e6, OMEGA0, 1e26)
        b = cramer_rao(dense.sigma2, n, 1e6, OMEGA0, 1e26)
        assert a.improvement == pytest.approx(b.improvement, abs=1e-8)

    def test_input_validation(self):
        with pytest.raises(ValidationError):
            cramer_rao(-0.1, 10, 1e6, OMEGA0, 0.0)


class TestImprovementCurve:
    def test_zero_ratio_is_flat_unity(self, default_cavity):
        curve = improvement_curve(default_cavity, [0.0], 20)
        np.testing.assert_allclose(curve.improvement[0], 1.0, atol=1e-14)
        assert curve.asymptote[0] == 1.0
        assert curve.min_pulses_to_asymptote[0] == 1

    def test_monotone_and_above_unity(self, default_cavity):
        curve = improvement_curve(default_cavity, [0.5, 0.8], 60)
        assert np.all(curve.improvement >= 1.0 - 1e-12)
        assert np.all(np.diff(curve.improvement, axis=1) >= -1e-12)

    def test_asymptote_value(self, default_cavity):
        gth = threshold_gain(default_cavity, 0.0).gain
        curve = improvement_curve(default_cavity, [0.8], 10)
        expected = 1.0 / np.sqrt(2.0 * sigma2_limit(0.8 * gth, default_cavity.r))
        assert curve.asymptote[0] == pytest.approx(expected, rel=1e-12)

    def test_min_pulses_reach_99_percent(self, default_cavity):
        curve = improvement_curve(default_cavity, [0.5], 10)
        n_star = int(curve.min_pulses_to_asymptote[0])
        gth = threshold_gain(default_cavity, 0.0).gain
        g = 0.5 * gth
        at = 1.0 / np.sqrt(
            2.0 * min_variance_transcendental(g, default_cavity.r, n_star).sigma2)
        below = 1.0 / np.sqrt(
            2.0 * min_variance_transcendental(g, default_cavity.r,
                                              n_star - 1).sigma2)
        assert at >= 0.99 * curve.asymptote[0] > below

    def test_rejects_ratio_at_threshold(self, default_cavity):
        with pytest.raises(ValidationError):
            improvement_curve(default_cavity, [1.0], 10)

    def test_odd_branch_equals_even(self, default_cavity):
        odd = CavityConfig(r=default_cavity.r, delta_rt=np.pi)
        even = improvement_curve(default_cavity, [0.5, 0.8], 30)
        for curve in (improvement_curve(odd, [0.5, 0.8], 30),
                      improvement_curve(default_cavity, [0.5, 0.8], 30, np.pi)):
            np.testing.assert_array_equal(curve.sigma2, even.sigma2)
            np.testing.assert_array_equal(curve.min_pulses_to_asymptote,
                                          even.min_pulses_to_asymptote)

    def test_off_resonant_phase_refused(self, default_cavity):
        with pytest.raises(ValidationError, match="resonant"):
            improvement_curve(default_cavity, [0.5], 10, 0.3)


def first_n_by_search(gain: float, r: float, asymptote: float) -> int:
    """Smallest N reaching ASYMPTOTE_FRACTION of the asymptote, by passes of
    1024 N over (lo, hi] up to N = 1e7 (improvement is nondecreasing in N)."""
    target = ASYMPTOTE_FRACTION * asymptote
    lo, hi = 0, 10**7
    while hi - lo > 1:
        ns = np.unique(np.ceil(np.linspace(lo, hi, 1025)[1:])).astype(int)
        sigma2 = min_variance_curve(gain, r, ns)[0]
        reached = 1.0 / np.sqrt(2.0 * sigma2) >= target
        assert reached[-1], "asymptote not reached below N = 1e7"
        k = int(np.argmax(reached))
        lo, hi = (int(ns[k - 1]) if k else lo), int(ns[k])
    return hi


class TestClosedFormPulseCount:
    @pytest.mark.parametrize("r", [0.5, 0.8894])
    def test_matches_search(self, r):
        # pump ratios 0, 0.01 ... 0.99, 0.995, 0.999 and 0.9999 of the
        # threshold -ln r; the last needs N ~ 10^6, where theta* from acos
        # near 1 would miss the count by more than the settling step
        for ratio in np.r_[0.0, np.arange(1, 100) / 100, 0.995, 0.999, 0.9999]:
            gain = -ratio * math.log(r)
            asymptote = 1.0 / math.sqrt(2.0 * sigma2_limit(gain, r))
            assert _first_n_at_asymptote(gain, r, asymptote) \
                == first_n_by_search(gain, r, asymptote), ratio

    def test_count_beyond_search_range(self, default_cavity):
        # N ~ 1.9e7 lies past the search's 1e7 cap; the rule itself decides
        curve = improvement_curve(default_cavity, [0.99999], 1)
        n_star = int(curve.min_pulses_to_asymptote[0])
        gain = 0.99999 * threshold_gain(default_cavity, 0.0).gain
        sigma2 = min_variance_curve(gain, default_cavity.r,
                                    np.array([n_star - 1, n_star]))[0]
        reached = 1.0 / np.sqrt(2.0 * sigma2) \
            >= ASYMPTOTE_FRACTION * curve.asymptote[0]
        assert n_star > 10**7
        assert list(reached) == [False, True]


class TestImprovementInvariantSweep:
    def test_hundred_random_configs(self):
        # improvement >= 1 and non-decreasing in N for random operating points
        rng = np.random.default_rng(100)
        checkpoints = (1, 2, 5, 13, 34)
        for _ in range(100):
            r = rng.uniform(0.3, 0.97)
            cavity = CavityConfig(r=r)
            ratio = rng.uniform(0.0, 0.98)
            g = ratio * threshold_gain(cavity, 0.0).gain
            values = []
            for n in checkpoints:
                if n == 1:
                    sigma2 = covariance(g, r, 1).v_minus[0, 0]
                else:
                    sigma2 = min_variance_transcendental(g, r, n).sigma2
                values.append(cramer_rao(sigma2, n, 1e6, OMEGA0, 0.0).improvement)
            assert all(v >= 1.0 - 1e-9 for v in values)
            assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


class TestFisherConsistencyWithProbe:
    def test_optimal_probe_fisher_identity(self, default_basis, default_cavity):
        # F from the quadratic form equals (1/2) amplitude^2 / sigma2_min
        n_pulses, n_bar0, g0 = 8, 1e6, 0.06
        probe = optimal_probe(default_basis, OMEGA0, default_cavity.r,
                              n_pulses=n_pulses, n_bar0=n_bar0, gain0=g0)
        families = [covariance(g0, default_cavity.r, n_pulses).v_minus]
        for _ in range(default_basis.n_kept - 1):
            families.append(0.5 * np.eye(n_pulses))
        value = fisher_information(probe, families)
        sigma2 = min_variance_transcendental(g0, default_cavity.r,
                                             n_pulses).sigma2
        assert value == pytest.approx(0.5 * probe.amplitude**2 / sigma2,
                                      rel=1e-8)
