import math

import numpy as np
import pytest

from spopo import (FrequencyGrid, SpectralLeakageError, ValidationError,
                   build_kernel, chi0, phase_matching)
from spopo.supermodes import takagi

from conftest import T0, make_crystal, make_pump

# hand evaluation with CODATA eps0, c for omega0 = 2.36e15 rad/s,
# n0 = 1.8, A_eff = 1e-9 m^2, d_eff = 2e-12 m/V:
#   chi0 = sqrt(2 w0^2 / (eps0 n0^3 c^3 A)) d = sqrt(8.0061853e24) * 2e-12
CHI0_HAND_VALUE = 5.6590407


class TestChi0:
    def test_zero_nonlinearity(self):
        assert chi0(make_crystal(d_eff=0.0)) == 0.0

    def test_scaling_laws(self):
        base = chi0(make_crystal())
        assert chi0(make_crystal(d_eff=4e-12)) == pytest.approx(2 * base, rel=1e-14)
        assert chi0(make_crystal(a_eff=4e-9)) == pytest.approx(base / 2, rel=1e-14)

    def test_hand_computed_value(self):
        crystal = make_crystal(omega0=2.36e15)
        assert chi0(crystal) == pytest.approx(CHI0_HAND_VALUE, rel=1e-7)

    def test_invalid_parameters(self):
        with pytest.raises(ValidationError):
            make_crystal(a_eff=0.0)
        with pytest.raises(ValidationError):
            make_crystal(n0=0.5)


class TestPhaseMatching:
    def test_matched_carrier(self):
        assert phase_matching(make_crystal(), 0.0, 0.0) == pytest.approx(1.0)

    def test_zero_at_pi(self):
        # flat dispersion tuned so dphi(0,0) = pi exactly
        crystal = make_crystal(signal_dispersion=(0.0, 0.0, 0.0, 0.0),
                               pump_dispersion=(-2 * np.pi / 5e-4, 0.0, 0.0, 0.0))
        assert phase_matching(crystal, 0.0, 0.0) == pytest.approx(0.0, abs=1e-15)

    def test_symmetry(self):
        crystal = make_crystal()
        rng = np.random.default_rng(12)
        w = rng.uniform(-1e14, 1e14, size=(100, 2))
        a = phase_matching(crystal, w[:, 0], w[:, 1])
        b = phase_matching(crystal, w[:, 1], w[:, 0])
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-15)


class TestPumpEnvelope:
    def test_time_normalization(self):
        pump = make_pump()
        t = np.linspace(-T0 / 2, T0 / 2, 4001)
        norm = np.trapezoid(np.abs(pump.envelope_time(t)) ** 2, t)
        assert norm == pytest.approx(1.0, abs=1e-10)

    def test_parseval(self):
        pump = make_pump()
        w = np.linspace(-8e14, 8e14, 8001)
        norm = np.trapezoid(np.abs(pump.envelope_spectrum(w)) ** 2, w) / (2 * np.pi)
        assert norm == pytest.approx(1.0, abs=1e-10)

    def test_pulse_much_shorter_than_period(self):
        with pytest.raises(ValidationError):
            make_pump(tau_p=T0 / 10)


class TestGrid:
    def test_spacing_identity(self):
        grid = FrequencyGrid(n_points=101, omega_max=1e14)
        assert grid.delta_omega == pytest.approx(2e14 / 100)
        assert grid.omegas[50] == 0.0

    def test_odd_required(self):
        with pytest.raises(ValidationError):
            FrequencyGrid(n_points=100, omega_max=1e14)

    def test_comb_aligned_spacing(self):
        grid = FrequencyGrid.comb_aligned(171, T0)
        assert grid.delta_omega == pytest.approx(2 * np.pi / T0, rel=1e-12)


class TestBuildKernel:
    def test_zero_energy_gives_zero_matrix(self, default_grid, default_crystal):
        kernel = build_kernel(default_grid, make_pump(pulse_energy=0.0),
                              default_crystal)
        assert not np.any(kernel.matrix)

    def test_symmetric(self, default_kernel):
        m = default_kernel.matrix
        assert m.dtype == np.float64
        assert np.array_equal(m, m.T)

    def test_matrix_read_only(self, default_kernel):
        # validated once on construction; decompositions rely on that
        assert not default_kernel.matrix.flags.writeable
        with pytest.raises(ValueError):
            default_kernel.matrix[0, 0] = 1.0

    @pytest.mark.parametrize("n_points", [171, 1361])
    def test_matches_meshgrid_reference(self, n_points, default_pump,
                                        default_crystal):
        # the broadcast build is bit-identical to the full-meshgrid formula
        grid = FrequencyGrid.comb_aligned(n_points, T0)
        kernel = build_kernel(grid, default_pump, default_crystal)
        w1, w2 = np.meshgrid(grid.omegas, grid.omegas, indexing="ij")
        prefactor = chi0(default_crystal) * default_crystal.length \
            * math.sqrt(default_pump.pulse_energy)
        reference = grid.weight * prefactor \
            * default_pump.envelope_spectrum(w1 + w2) \
            * phase_matching(default_crystal, w1, w2)
        assert kernel.matrix.dtype == np.float64
        assert np.array_equal(kernel.matrix, reference)
        assert np.array_equal(kernel.matrix, kernel.matrix.T)

    def test_window_too_small_refused(self, default_crystal):
        small = FrequencyGrid(n_points=41, omega_max=2e13)
        with pytest.raises(SpectralLeakageError, match="leaks"):
            build_kernel(small, make_pump(), default_crystal)

    def test_gaussian_ridge_structure(self, default_grid):
        # flat phase matching: kernel depends on omega + omega' only
        crystal = make_crystal(signal_dispersion=(0.0, 0.0, 0.0, 0.0),
                               pump_dispersion=(0.0, 0.0, 0.0, 0.0))
        kernel = build_kernel(default_grid, make_pump(), crystal)
        m = kernel.matrix.real
        n = default_grid.n_points
        i, j = n // 2, n // 2 - 8
        assert m[i, j] == pytest.approx(m[i - 3, j + 3], rel=1e-12)
        assert m[i, j] == pytest.approx(m[j, i], rel=1e-12)

    def test_grid_refinement_converges(self, default_grid, default_pump,
                                       default_crystal):
        coarse = build_kernel(default_grid, default_pump, default_crystal)
        fine_grid = FrequencyGrid(n_points=2 * default_grid.n_points - 1,
                                  omega_max=default_grid.omega_max)
        fine = build_kernel(fine_grid, default_pump, default_crystal)
        g0_coarse = takagi(coarse.matrix)[0][0]
        g0_fine = takagi(fine.matrix)[0][0]
        assert abs(g0_coarse - g0_fine) / g0_fine < 1e-3
