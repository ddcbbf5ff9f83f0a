"""Joint down-conversion kernel on a discrete frequency grid.

The kernel couples signal detunings omega, omega' around the carrier omega0:

    S(omega, omega') = chi0 * l_c * sqrt(E_p) * pump_spectrum(omega + omega')
                       * phase_matching(omega, omega')

Discretised with the quadrature weight d_omega/(2 pi) split symmetrically over
both indices, so the singular values of the matrix are directly the per-round-
trip parametric gains g_n and the singular vectors are l2-orthonormal samples
of the supermode spectra.  The pump spectrum and the pump wavevector depend
on omega + omega' alone, so ``build_kernel`` evaluates them on the 2n - 1
grid sums and reads them as Hankel matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import SpectralLeakageError, ValidationError

#: ratio of intensity-FWHM to the e^-1/2 width of a Gaussian field envelope
_FWHM_TO_SIGMA = 2.0 * math.sqrt(math.log(2.0))

#: pump amplitude tail allowed at the edge of the spectral window
SPECTRAL_TAIL = 1e-8


@dataclass(frozen=True)
class FrequencyGrid:
    """Uniform symmetric grid of signal detunings including omega = 0."""

    n_points: int
    omega_max: float

    def __post_init__(self):
        if self.n_points < 3 or self.n_points % 2 == 0:
            raise ValidationError("n_points must be odd and >= 3")
        if self.omega_max <= 0:
            raise ValidationError("omega_max must be positive")

    @property
    def delta_omega(self) -> float:
        return 2.0 * self.omega_max / (self.n_points - 1)

    @property
    def omegas(self) -> np.ndarray:
        return np.linspace(-self.omega_max, self.omega_max, self.n_points)

    @property
    def weight(self) -> float:
        """Quadrature weight d_omega / (2 pi) of the frequency measure."""
        return self.delta_omega / (2.0 * np.pi)

    @classmethod
    def comb_aligned(cls, n_points: int, rep_period: float) -> "FrequencyGrid":
        """Grid whose spacing is exactly the comb spacing 2 pi / T0.

        On such a grid the per-period time/frequency transforms are exactly
        unitary, which the comb synthesis and pulse projections rely on.
        """
        if rep_period <= 0:
            raise ValidationError("rep_period must be positive")
        spacing = 2.0 * np.pi / rep_period
        return cls(n_points=n_points, omega_max=(n_points - 1) // 2 * spacing)


@dataclass(frozen=True)
class PumpConfig:
    """Synchronous pump pulse train.

    ``tau_p`` is the intensity FWHM of the Gaussian envelope; ``ceo_half`` is
    half the pump carrier-envelope-offset phase (the signal comb inherits
    ceo_half +- theta).  The envelope is transform limited and normalized to
    unit L2 norm.
    """

    pulse_energy: float
    tau_p: float
    rep_period: float
    ceo_half: float = 0.0

    def __post_init__(self):
        if self.pulse_energy < 0:
            raise ValidationError("pulse_energy must be >= 0")
        if self.tau_p <= 0 or self.rep_period <= 0:
            raise ValidationError("tau_p and rep_period must be positive")
        if self.tau_p >= self.rep_period / 20.0:
            raise ValidationError(
                "tau_p must be << rep_period (enforced: tau_p < T0/20); "
                f"got tau_p={self.tau_p:g}, T0={self.rep_period:g}")

    @property
    def sigma_t(self) -> float:
        """Gaussian width: envelope ~ exp(-t^2 / (2 sigma_t^2))."""
        return self.tau_p / _FWHM_TO_SIGMA

    def envelope_time(self, t: np.ndarray) -> np.ndarray:
        """Normalized envelope alpha_p(t), unit integral of |alpha_p|^2."""
        s = self.sigma_t
        return (np.pi * s**2) ** (-0.25) * np.exp(-np.asarray(t) ** 2 / (2 * s**2))

    def envelope_spectrum(self, omega: np.ndarray) -> np.ndarray:
        """Fourier transform of the envelope, alpha(w) = int alpha(t) e^{-iwt} dt."""
        s = self.sigma_t
        return (4 * np.pi * s**2) ** 0.25 * np.exp(-(s * np.asarray(omega)) ** 2 / 2)


@dataclass(frozen=True)
class CrystalConfig:
    """Nonlinear crystal and carrier parameters, SI units.

    ``signal_dispersion``/``pump_dispersion`` are Taylor coefficients (orders
    0..3) of k_s(omega0 + w) around omega0 and of k_p(2 omega0 + w) around
    2 omega0, in units m^-1 (s/rad)^j.  Degenerate phase matching at the
    carrier means pump_dispersion[0] == 2 * signal_dispersion[0]; that is the
    sensible default but is not enforced.
    """

    length: float
    d_eff: float
    n0: float
    a_eff: float
    omega0: float
    signal_dispersion: tuple = field(default=(0.0, 0.0, 0.0, 0.0))
    pump_dispersion: tuple = field(default=(0.0, 0.0, 0.0, 0.0))

    def __post_init__(self):
        if self.length <= 0:
            raise ValidationError("crystal length must be positive")
        if self.a_eff <= 0:
            raise ValidationError("a_eff must be positive")
        if self.n0 < 1:
            raise ValidationError("n0 must be >= 1")
        if self.omega0 <= 0:
            raise ValidationError("omega0 must be positive")
        for name in ("signal_dispersion", "pump_dispersion"):
            coeffs = tuple(float(x) for x in getattr(self, name))
            if len(coeffs) != 4:
                raise ValidationError(f"{name} needs exactly 4 coefficients")
            object.__setattr__(self, name, coeffs)

    def k_signal(self, omega) -> np.ndarray:
        """Signal wavevector at carrier detuning omega."""
        return _poly3(self.signal_dispersion, omega)

    def k_pump(self, omega) -> np.ndarray:
        """Pump wavevector at detuning omega from 2 omega0."""
        return _poly3(self.pump_dispersion, omega)


def _poly3(c, x):
    x = np.asarray(x, dtype=float)
    return c[0] + x * (c[1] + x * (c[2] + x * c[3]))


def chi0(crystal: CrystalConfig) -> float:
    """Effective nonlinear coupling sqrt(2 w0^2 / (eps0 n0^3 c^3 A_eff)) d_eff."""
    num = 2.0 * crystal.omega0**2
    # vacuum permittivity (F/m) and speed of light (m/s), CODATA 2022
    den = 8.8541878188e-12 * crystal.n0**3 * 299792458.0**3 * crystal.a_eff
    return math.sqrt(num / den) * crystal.d_eff


def phase_matching(crystal: CrystalConfig, omega, omega_prime) -> np.ndarray:
    """sinc phase-matching factor sin(dphi)/dphi.

    dphi = l_c [k_s(w) + k_s(w') - k_p(w + w')] / 2, with the analytic limit
    1 at dphi = 0.
    """
    w, wp = np.asarray(omega, dtype=float), np.asarray(omega_prime, dtype=float)
    dphi = 0.5 * crystal.length * (
        crystal.k_signal(w) + crystal.k_signal(wp) - crystal.k_pump(w + wp))
    return np.sinc(dphi / np.pi)


def check_symmetric(m: np.ndarray, name: str) -> None:
    """Refuse (``ValidationError``) a square matrix with a non-finite entry
    or with |m - m^T| above 1e-12 max(1, max |m|) anywhere."""
    if not np.isfinite(m).all():
        raise ValidationError(f"{name} has non-finite entries")
    if not np.array_equal(m, m.T) and np.abs(m - m.T).max() \
            > 1e-12 * max(1.0, float(np.abs(m).max())):
        raise ValidationError(f"{name} must be symmetric")


@dataclass(frozen=True)
class JointKernel:
    """Discretised symmetric kernel with the quadrature weight folded in.

    ``matrix[i, j]`` = (d_omega / 2 pi) S(w_i, w_j); singular values of the
    matrix approximate the continuous gains g_n.  A real input stays real
    (float64); a complex one is stored as complex128.  The symmetry check
    runs on construction: ``matrix`` is a read-only view of the checked
    array (a caller must not keep writing to an array it passed in).
    """

    matrix: np.ndarray
    grid: FrequencyGrid

    def __post_init__(self):
        m = np.asarray(self.matrix,
                       dtype=complex if np.iscomplexobj(self.matrix) else float)
        if m.shape != (self.grid.n_points, self.grid.n_points):
            raise ValidationError("kernel matrix does not match the grid")
        check_symmetric(m, "kernel matrix")
        m = m.view()
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    def frobenius_norm(self) -> float:
        return float(np.linalg.norm(self.matrix))


# an overflowing phase mismatch leaves inf or NaN in the matrix, which
# JointKernel refuses; numpy need not warn on the way
@np.errstate(over="ignore", invalid="ignore")
def build_kernel(grid: FrequencyGrid, pump: PumpConfig,
                 crystal: CrystalConfig) -> JointKernel:
    """Assemble the joint kernel matrix from physical parameters.

    Refuses (``SpectralLeakageError``) when the pump spectrum has more than
    ``SPECTRAL_TAIL`` relative amplitude at the edge of the reachable sum
    window [-2 omega_max, 2 omega_max]: gains computed on such a window would
    be truncation artifacts.

    The matrix is exactly symmetric, and it lies within 1e-14 max|K| of the
    same formula evaluated in extended precision on the uniform grid (tested
    at 171 and 1361 points); evaluating the formula at all n^2 points in
    float64 instead loses up to 5e-13 max|K| where the k_0 terms cancel.
    """
    edge = pump.envelope_spectrum(2.0 * grid.omega_max)
    peak = pump.envelope_spectrum(0.0)
    if edge > SPECTRAL_TAIL * peak:
        raise SpectralLeakageError(
            "pump spectrum leaks outside the frequency window: relative "
            f"amplitude {edge / peak:.3e} at omega = 2*omega_max "
            f"(limit {SPECTRAL_TAIL:g}); enlarge omega_max or shorten tau_p")
    # the pump amplitude and the pump-side phase are evaluated on the 2n - 1
    # sums sigma_{i+j} and read through Hankel views, view[i, j] = v[i + j];
    # the signal-side phase on the n grid points.  The Taylor constants are
    # grouped first, so the ~3.5e3 rad k_0 terms cancel in one scalar
    # subtraction rather than at every entry:
    #   dphi_ij = S_i + S_j + P_{i+j}
    #   S = l_c/2 w^2 (k_s2 + w k_s3)
    #   P = l_c/2 [(2 k_s0 - k_p0) + sigma (k_s1 - k_p1)
    #              - sigma^2 (k_p2 + sigma k_p3)]
    # Every n x n term is a commutative sum or a Hankel read, so the matrix
    # is exactly symmetric.
    n = grid.n_points
    w = grid.omegas
    sigma = np.linspace(-2.0 * grid.omega_max, 2.0 * grid.omega_max, 2 * n - 1)
    half = 0.5 * crystal.length
    c, p = crystal.signal_dispersion, crystal.pump_dispersion
    signal = half * np.square(w) * (c[2] + w * c[3])
    pump_phase = half * ((2.0 * c[0] - p[0])
                         + sigma * ((c[1] - p[1]) - sigma * (p[2] + sigma * p[3])))
    prefactor = chi0(crystal) * crystal.length * math.sqrt(pump.pulse_energy)
    amplitude = grid.weight * prefactor * pump.envelope_spectrum(sigma)
    hankel = np.lib.stride_tricks.sliding_window_view
    dphi = np.add(signal[:, None], signal[None, :])
    np.add(dphi, hankel(pump_phase, n), out=dphi)
    # sin(y) / y with the analytic limit 1 at y = 0
    np.copyto(dphi, np.finfo(float).eps, where=dphi == 0)
    matrix = np.sin(dphi)
    np.divide(matrix, dphi, out=matrix)
    np.multiply(matrix, hankel(amplitude, n), out=matrix)
    return JointKernel(matrix=matrix, grid=grid)
