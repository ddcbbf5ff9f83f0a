import math

import numpy as np
import pytest

from spopo import (CavityConfig, ValidationError, covariance,
                   fisher_information, improvement_curve,
                   min_variance_transcendental, optimal_probe, sigma2_limit,
                   threshold_gain)
from spopo.metrology import ASYMPTOTE_FRACTION, _first_n_at_asymptote
from spopo.pulses import min_variance_curve

from conftest import OMEGA0


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
        # F = 2 alpha'^T V^-1 alpha' at V = I/2 is 4 sum alpha'^2
        alpha = np.array([[1.5, -0.5, 2.0]])
        v = 0.5 * np.eye(3)
        assert fisher_information(alpha, [v]) \
            == pytest.approx(4.0 * np.sum(alpha**2), rel=1e-12)

    def test_probe_aligned_with_minimum_eigenvector(self):
        g, r, n = 0.09, 0.85, 12
        sol = min_variance_transcendental(g, r, n)
        amplitude = 3.7
        cov = covariance(g, r, n)
        value = fisher_information(amplitude * sol.eigvec[None, :],
                                   [cov.v_minus])
        # a unit eigenvector of V^- at sigma^2: F = 2 A^2 / sigma^2
        assert value == pytest.approx(2.0 * amplitude**2 / sol.sigma2, rel=1e-8)

    def test_rejects_non_positive_definite(self):
        with pytest.raises(ValidationError):
            fisher_information(np.ones((1, 2)), [-np.eye(2)])

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_gaussian_qfi_oracle(self, seed):
        # pure displaced squeezed state: a p shift of sqrt 2 alpha' per unit
        # delay is generated by G = sqrt 2 alpha' x, and QFI = 4 Var(G)
        # = 8 alpha'^2 Var_fock(x)
        rng = np.random.default_rng(seed)
        g = rng.uniform(0.05, 0.8)
        beta = rng.uniform(-1.5, 1.5) + 1j * rng.uniform(-1.5, 1.5)
        alpha = rng.uniform(0.5, 3.0)
        v_minus = np.array([[0.5 * np.exp(-2 * g)]])
        implemented = fisher_information(np.array([[alpha]]), [v_minus])
        oracle = 8.0 * alpha**2 * fock_variance_of_x(g, beta)
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

    def test_carrier_inside_grid_refused(self, default_basis, default_cavity):
        # omega0 + omega reaches 0 at the grid's lower edge
        with pytest.raises(ValidationError, match="must stay positive"):
            optimal_probe(default_basis, default_basis.grid.omega_max,
                          default_cavity.r, n_pulses=2, n_bar0=1e6,
                          gain0=0.05)

    def test_photon_number_normalization(self, default_basis, default_cavity):
        n_pulses, n_bar0 = 6, 2.5e5
        probe = optimal_probe(default_basis, OMEGA0, default_cavity.r,
                              n_pulses=n_pulses, n_bar0=n_bar0, gain0=0.08)
        total = probe.total_photons(default_basis.dt)
        assert total == pytest.approx(n_pulses * n_bar0, rel=1e-8)

    def test_spread_much_smaller_than_carrier(self, default_basis,
                                              default_cavity):
        # omega_eff^2 lies within (0.1 omega0)^2 of omega0^2; the
        # 1/(omega0+w)^2 weighting pulls it just below
        probe = optimal_probe(default_basis, OMEGA0, default_cavity.r,
                              n_pulses=2, n_bar0=1e6, gain0=0.05)
        assert probe.omega_eff_sq > 0
        assert abs(probe.omega_eff_sq - OMEGA0**2) < (0.1 * OMEGA0) ** 2

    def test_coherent_state_limit(self, default_basis, default_cavity):
        # a coherent probe (every V^- = I/2) reaches F = 4 N n_bar0 omega_eff^2
        # = 1/dtau_SQL^2, with omega_eff^2 the second moment of omega0 + w
        # over the probe spectrum psi0(w)/(omega0 + w)
        n_pulses, n_bar0 = 8, 1e6
        probe = optimal_probe(default_basis, OMEGA0, default_cavity.r,
                              n_pulses=n_pulses, n_bar0=n_bar0, gain0=0.06)
        shifted = OMEGA0 + default_basis.grid.omegas
        density = np.abs(default_basis.modes_freq[:, 0] / shifted) ** 2
        omega_eff_sq = np.sum(shifted**2 * density) / np.sum(density)
        vacuum = [0.5 * np.eye(n_pulses)] * default_basis.n_kept
        assert fisher_information(probe.alpha_prime, vacuum) == pytest.approx(
            4.0 * n_pulses * n_bar0 * omega_eff_sq, rel=1e-12)


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
        gth = threshold_gain(default_cavity).gain
        curve = improvement_curve(default_cavity, [0.8], 10)
        expected = 1.0 / np.sqrt(2.0 * sigma2_limit(0.8 * gth, default_cavity.r))
        assert curve.asymptote[0] == pytest.approx(expected, rel=1e-12)

    def test_min_pulses_reach_99_percent(self, default_cavity):
        curve = improvement_curve(default_cavity, [0.5], 10)
        n_star = int(curve.min_pulses_to_asymptote[0])
        gth = threshold_gain(default_cavity).gain
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
        odd = improvement_curve(CavityConfig(r=default_cavity.r, phase=np.pi),
                                [0.5, 0.8], 30)
        even = improvement_curve(default_cavity, [0.5, 0.8], 30)
        np.testing.assert_array_equal(odd.sigma2, even.sigma2)
        np.testing.assert_array_equal(odd.min_pulses_to_asymptote,
                                      even.min_pulses_to_asymptote)

    def test_off_resonant_phase_refused(self, default_cavity):
        with pytest.raises(ValidationError, match="resonant"):
            improvement_curve(CavityConfig(r=default_cavity.r, phase=0.3),
                              [0.5], 10)


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
        gain = 0.99999 * threshold_gain(default_cavity).gain
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
            g = ratio * threshold_gain(cavity).gain
            values = []
            for n in checkpoints:
                if n == 1:
                    sigma2 = covariance(g, r, 1).v_minus[0, 0]
                else:
                    sigma2 = min_variance_transcendental(g, r, n).sigma2
                values.append(1.0 / math.sqrt(2.0 * sigma2))
            assert all(v >= 1.0 - 1e-9 for v in values)
            assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


class TestFisherConsistencyWithProbe:
    def test_optimal_probe_fisher_identity(self, default_basis, default_cavity):
        # F from the quadratic form equals 2 amplitude^2 / sigma2_min
        n_pulses, n_bar0, g0 = 8, 1e6, 0.06
        probe = optimal_probe(default_basis, OMEGA0, default_cavity.r,
                              n_pulses=n_pulses, n_bar0=n_bar0, gain0=g0)
        families = [covariance(g0, default_cavity.r, n_pulses).v_minus]
        for _ in range(default_basis.n_kept - 1):
            families.append(0.5 * np.eye(n_pulses))
        value = fisher_information(probe.alpha_prime, families)
        sigma2 = min_variance_transcendental(g0, default_cavity.r,
                                             n_pulses).sigma2
        assert value == pytest.approx(2.0 * probe.amplitude**2 / sigma2,
                                      rel=1e-8)
