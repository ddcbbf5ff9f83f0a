import dataclasses
import math

import numpy as np
import pytest

from spopo import (FrequencyGrid, SpectralLeakageError, ValidationError,
                   build_kernel, chi0, phase_matching)
from spopo.supermodes import takagi

from conftest import N_POINTS, T0, make_crystal, make_pump

needs_long_double = pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= np.finfo(float).eps,
    reason="np.longdouble is no wider than float64 on this platform")


def meshgrid_kernel(grid, pump, crystal):
    """The kernel formula evaluated at all n^2 grid points in float64."""
    w1, w2 = np.meshgrid(grid.omegas, grid.omegas, indexing="ij")
    prefactor = chi0(crystal) * crystal.length * math.sqrt(pump.pulse_energy)
    return grid.weight * prefactor * pump.envelope_spectrum(w1 + w2) \
        * phase_matching(crystal, w1, w2)


def long_double_kernel(grid, pump, crystal):
    """The kernel formula (module docstring of spopo.kernel) in np.longdouble
    on the exact uniform grid w_i = -omega_max + i d_omega.

    The build reads w_i + w_j from linspace(-2 omega_max, 2 omega_max,
    2n - 1), so its reference grid is the uniform one; the float64
    ``grid.omegas`` deviate from it by up to about 0.1 rad/s at 1361
    points, which the group-velocity mismatch turns into 2e-14 rad of
    phase.
    """
    ld = np.longdouble
    n = grid.n_points
    w = -ld(grid.omega_max) + np.arange(n).astype(ld) \
        * (2 * ld(grid.omega_max) / (n - 1))
    total = w[:, None] + w[None, :]
    s = ld(pump.sigma_t)
    envelope = (4 * ld(np.pi) * s**2) ** ld(0.25) * np.exp(-(s * total) ** 2 / 2)

    def poly(coeffs, x):
        c = [ld(v) for v in coeffs]
        return c[0] + x * (c[1] + x * (c[2] + x * c[3]))

    k_s = poly(crystal.signal_dispersion, w)
    dphi = ld(crystal.length) / 2 * (k_s[:, None] + k_s[None, :]
                                     - poly(crystal.pump_dispersion, total))
    dphi[dphi == 0] = np.finfo(ld).eps
    prefactor = ld(grid.weight) * ld(chi0(crystal)) * ld(crystal.length) \
        * np.sqrt(ld(pump.pulse_energy))
    return prefactor * envelope * np.sin(dphi) / dphi


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
        grid = FrequencyGrid(n_points=101, rep_period=T0)
        assert grid.delta_omega == pytest.approx(2 * np.pi / T0, rel=1e-12)
        assert grid.omegas[50] == 0.0

    def test_odd_required(self):
        with pytest.raises(ValidationError):
            FrequencyGrid(n_points=100, rep_period=T0)

    @pytest.mark.parametrize("rep_period", [0.0, -T0, math.inf])
    def test_rep_period_positive_and_finite(self, rep_period):
        with pytest.raises(ValidationError, match="rep_period"):
            FrequencyGrid(n_points=171, rep_period=rep_period)

    @pytest.mark.parametrize("rep_period", [4e-12, 3.3e-12])
    @pytest.mark.parametrize("n_points", [5, 41, 171, 1361])
    def test_derived_from_comb_period(self, n_points, rep_period):
        # the grid stores (n_points, T0) and derives the rest with the
        # expressions of the grid that stored omega_max: the same bits
        grid = FrequencyGrid(n_points, rep_period)
        assert dataclasses.astuple(grid) == (n_points, rep_period)
        omega_max = (n_points - 1) // 2 * (2.0 * np.pi / rep_period)
        delta_omega = 2.0 * omega_max / (n_points - 1)
        assert grid.omega_max == omega_max
        assert grid.delta_omega == delta_omega
        assert grid.weight == delta_omega / (2.0 * np.pi)
        omegas = np.linspace(-omega_max, omega_max, n_points)
        assert grid.omegas.tobytes() == omegas.tobytes()


class TestBuildKernel:
    def test_zero_energy_gives_zero_matrix(self, default_crystal):
        kernel = build_kernel(N_POINTS, make_pump(pulse_energy=0.0),
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
        # the factorised build against the n^2-point formula, whose own
        # rounding error is 5e-13 max|K| (the ~3.5e3 rad k_0 terms cancel in
        # its phase); the build is exactly symmetric
        kernel = build_kernel(n_points, default_pump, default_crystal)
        grid = kernel.grid
        reference = meshgrid_kernel(grid, default_pump, default_crystal)
        assert kernel.matrix.dtype == np.float64
        assert np.abs(kernel.matrix - reference).max() \
            <= 1e-12 * np.abs(reference).max()
        assert np.array_equal(kernel.matrix, kernel.matrix.T)

    @needs_long_double
    @pytest.mark.parametrize("n_points", [171, 1361])
    def test_matches_extended_precision_reference(self, n_points,
                                                  default_pump,
                                                  default_crystal):
        kernel = build_kernel(n_points, default_pump, default_crystal)
        grid = kernel.grid
        reference = long_double_kernel(grid, default_pump, default_crystal)
        scale = np.abs(reference).max()
        assert np.abs(kernel.matrix - reference).max() <= 1e-14 * scale

    @needs_long_double
    @pytest.mark.parametrize("n_points", [171, 1361])
    def test_top_mode_no_farther_from_reference(self, n_points, default_pump,
                                                default_crystal):
        # psi_0 of the build against psi_0 of the correctly rounded
        # reference kernel, next to psi_0 of the n^2-point formula
        kernel = build_kernel(n_points, default_pump, default_crystal)
        grid = kernel.grid
        meshgrid = meshgrid_kernel(grid, default_pump, default_crystal)
        rounded = long_double_kernel(grid, default_pump,
                                     default_crystal).astype(float)
        psi_ref = takagi(rounded, 1)[1][:, 0]
        psi_build = takagi(kernel, 1)[1][:, 0]
        psi_meshgrid = takagi(meshgrid, 1)[1][:, 0]
        assert np.abs(psi_build - psi_ref).max() \
            <= np.abs(psi_meshgrid - psi_ref).max()

    def test_window_too_small_refused(self, default_crystal):
        with pytest.raises(SpectralLeakageError, match="leaks"):
            build_kernel(41, make_pump(), default_crystal)

    def test_gaussian_ridge_structure(self):
        # flat phase matching: kernel depends on omega + omega' only
        crystal = make_crystal(signal_dispersion=(0.0, 0.0, 0.0, 0.0),
                               pump_dispersion=(0.0, 0.0, 0.0, 0.0))
        kernel = build_kernel(N_POINTS, make_pump(), crystal)
        m = kernel.matrix.real
        n = N_POINTS
        i, j = n // 2, n // 2 - 8
        assert m[i, j] == m[i - 3, j + 3]
        assert m[i, j] == m[j, i]

    def test_grid_refinement_converges(self, default_pump, default_crystal):
        # half the spacing on the same window: the comb of a pump at 2 T0
        coarse = build_kernel(N_POINTS, default_pump, default_crystal)
        fine = build_kernel(2 * N_POINTS - 1, make_pump(rep_period=2 * T0),
                            default_crystal)
        assert fine.grid.omega_max == coarse.grid.omega_max
        g0_coarse = takagi(coarse.matrix)[0][0]
        g0_fine = takagi(fine.matrix)[0][0]
        assert abs(g0_coarse - g0_fine) / g0_fine < 1e-3
