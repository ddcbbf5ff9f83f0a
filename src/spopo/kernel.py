"""Joint down-conversion kernel on a discrete frequency grid.

The kernel couples signal detunings omega, omega' around the carrier omega0:

    S(omega, omega') = chi0 * l_c * sqrt(E_p) * pump_spectrum(omega + omega')
                       * sin(dphi) / dphi,
    dphi = l_c [k_s(omega) + k_s(omega') - k_p(omega + omega')] / 2,

with k_s, k_p the crystal's cubic wavevector expansions and the analytic
limit 1 at dphi = 0.

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
    """The comb's signal detunings: ``n_points`` (odd) samples spaced by
    2 pi / ``rep_period`` (T0) about omega = 0, on which the per-period
    time/frequency transforms are exactly unitary."""

    n_points: int
    rep_period: float

    def __post_init__(self):
        if self.n_points < 3 or self.n_points % 2 == 0:
            raise ValidationError("n_points must be odd and >= 3")
        if not 0.0 < self.rep_period < math.inf:
            raise ValidationError("rep_period must be positive and finite")

    @property
    def omega_max(self) -> float:
        return (self.n_points - 1) // 2 * (2.0 * np.pi / self.rep_period)

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


@dataclass(frozen=True)
class PumpConfig:
    """Synchronous pump pulse train.

    ``tau_p`` is the intensity FWHM of the Gaussian envelope.  The envelope
    is transform limited and normalized to unit L2 norm.  Half the pump CEO
    phase, the config's delta0, does not shape the kernel: it is part of the
    cavity's round-trip phase (``CavityConfig.phase``).
    """

    pulse_energy: float
    tau_p: float
    rep_period: float

    def __post_init__(self):
        if not 0.0 <= self.pulse_energy < math.inf:
            raise ValidationError("pulse_energy must be >= 0 and finite")
        if not (0.0 < self.tau_p < math.inf
                and 0.0 < self.rep_period < math.inf):
            raise ValidationError(
                "tau_p and rep_period must be positive and finite")
        if self.tau_p >= self.rep_period / 20.0:
            raise ValidationError(
                "tau_p must be << rep_period (enforced: tau_p < T0/20); "
                f"got tau_p={self.tau_p:g}, T0={self.rep_period:g}")
        # envelope_spectrum's norm (4 pi sigma_t^2)^(1/4) must stay finite
        if not 4.0 * math.pi * self.sigma_t * self.sigma_t < math.inf:
            raise ValidationError(
                f"tau_p = {self.tau_p:g} s is too long: the spectrum norm "
                "(4 pi sigma_t^2)^(1/4) overflows")

    @property
    def sigma_t(self) -> float:
        """Gaussian width: envelope ~ exp(-t^2 / (2 sigma_t^2))."""
        return self.tau_p / _FWHM_TO_SIGMA

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
        if not 0.0 < self.length < math.inf:
            raise ValidationError("crystal length must be positive and finite")
        if not math.isfinite(self.d_eff):
            raise ValidationError("d_eff must be finite")
        if not 0.0 < self.a_eff < math.inf:
            raise ValidationError("a_eff must be positive and finite")
        if not 1.0 <= self.n0 < math.inf:
            raise ValidationError("n0 must be >= 1 and finite")
        if not 0.0 < self.omega0 < math.inf:
            raise ValidationError("omega0 must be positive and finite")
        for name in ("signal_dispersion", "pump_dispersion"):
            coeffs = tuple(float(x) for x in getattr(self, name))
            if len(coeffs) != 4:
                raise ValidationError(f"{name} needs exactly 4 coefficients")
            if not all(map(math.isfinite, coeffs)):
                raise ValidationError(f"{name} coefficients must be finite")
            object.__setattr__(self, name, coeffs)


def chi0(crystal: CrystalConfig) -> float:
    """Effective nonlinear coupling sqrt(2 w0^2 / (eps0 n0^3 c^3 A_eff)) d_eff;
    a w0^2 or n0^3 beyond the float range is a ``ValidationError``."""
    try:
        num = 2.0 * crystal.omega0**2
        # vacuum permittivity (F/m) and speed of light (m/s), CODATA 2022
        den = 8.8541878188e-12 * crystal.n0**3 * 299792458.0**3 * crystal.a_eff
    except OverflowError as exc:
        raise ValidationError(
            "chi0 overflows: omega0^2 or n0^3 is beyond the float range "
            f"(omega0 = {crystal.omega0:.6g}, n0 = {crystal.n0:.6g})") from exc
    return math.sqrt(num / den) * crystal.d_eff


# an amplitude that overflows, or a NaN one, makes a non-finite kernel, which
# JointKernel refuses; numpy need not warn when a config is parsed
@np.errstate(over="ignore", invalid="ignore")
def kernel_amplitude(sums, grid: FrequencyGrid, pump: PumpConfig,
                     crystal: CrystalConfig):
    """The kernel's amplitude before phase matching at the pump detunings
    ``sums`` = omega + omega': (d_omega / 2 pi) chi0 l_c sqrt(E_p) alpha(sums).

    ``build_kernel`` reads it on the grid sums; at ``sums`` = 0 it is the
    kernel's peak, which ``config.parse_scenario`` checks.
    """
    prefactor = chi0(crystal) * crystal.length * math.sqrt(pump.pulse_energy)
    return grid.weight * prefactor * pump.envelope_spectrum(sums)


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
    matrix approximate the continuous gains g_n.  The matrix is real
    (float64): a complex one is refused (``ValidationError``).  The symmetry
    check runs on construction: ``matrix`` is a read-only view of the checked
    array (a caller must not keep writing to an array it passed in).
    """

    matrix: np.ndarray
    grid: FrequencyGrid

    def __post_init__(self):
        if np.iscomplexobj(self.matrix):
            raise ValidationError("kernel matrix must be real")
        m = np.asarray(self.matrix, dtype=float)
        if m.shape != (self.grid.n_points, self.grid.n_points):
            raise ValidationError("kernel matrix does not match the grid")
        check_symmetric(m, "kernel matrix")
        m = m.view()
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)


# an edge far out in the envelope's tail overflows its exponent, and the
# envelope there is exp(-inf) = 0: no leak, and no warning
@np.errstate(over="ignore")
def comb_grid(n_points: int, pump: PumpConfig) -> FrequencyGrid:
    """The run's comb grid: ``n_points`` detunings spaced 2 pi / T0, with
    T0 the pump's ``rep_period``.

    Refuses (``SpectralLeakageError``) when the pump spectrum has more than
    ``SPECTRAL_TAIL`` relative amplitude at the edge of the reachable sum
    window [-2 omega_max, 2 omega_max]: gains computed on such a window would
    be truncation artifacts.  The answer needs two scalar envelope values and
    no kernel, so a config is refused when it is parsed.
    """
    grid = FrequencyGrid(n_points, pump.rep_period)
    edge = pump.envelope_spectrum(2.0 * grid.omega_max)
    peak = pump.envelope_spectrum(0.0)
    if edge > SPECTRAL_TAIL * peak:
        raise SpectralLeakageError(
            "pump spectrum leaks outside the frequency window: relative "
            f"amplitude {edge / peak:.3e} at its edge omega = "
            f"{2.0 * grid.omega_max:.6g} rad/s (limit {SPECTRAL_TAIL:g}); "
            "raise grid.n_points to widen it, or shorten tau_p")
    return grid


def _phase_constants(crystal: CrystalConfig):
    """The Taylor constants of the phase mismatch, grouped so that the
    ~3.5e3 rad k_0 terms cancel in one scalar subtraction rather than at
    every entry: half = l_c / 2, the signal's (k_s2, k_s3) and the pump
    side's (2 k_s0 - k_p0, k_s1 - k_p1, k_p2, k_p3)."""
    c, p = crystal.signal_dispersion, crystal.pump_dispersion
    return (0.5 * crystal.length, (c[2], c[3]),
            (2.0 * c[0] - p[0], c[1] - p[1], p[2], p[3]))


def phase_bound(grid: FrequencyGrid, crystal: CrystalConfig) -> float:
    """A float bound on every |dphi| that ``build_kernel`` computes on
    ``grid``, in O(1): 2 max|S| + max|P| from the same grouped constants,
    with each term at its magnitude and each frequency at the window's edge.

    Float rounding is monotone, so the bound, evaluated in the same order,
    is at least every computed |S_i + S_j + P_{i+j}|: when it is finite, so
    is every entry of a kernel whose peak amplitude is.  It may overflow
    where the largest phase mismatch is still a few times below the float
    range.
    """
    half, (s2, s3), (q0, q1, q2, q3) = _phase_constants(crystal)
    w = grid.omega_max
    sigma = 2.0 * w
    signal = half * (w * w) * (abs(s2) + w * abs(s3))
    pump = half * (abs(q0) + sigma * (abs(q1)
                                      + sigma * (abs(q2) + sigma * abs(q3))))
    return 2.0 * signal + pump


# an overflowing phase mismatch leaves inf or NaN in the matrix, which
# JointKernel refuses; numpy need not warn on the way
@np.errstate(over="ignore", invalid="ignore")
def build_kernel(n_points: int, pump: PumpConfig,
                 crystal: CrystalConfig) -> JointKernel:
    """Assemble the joint kernel matrix from physical parameters on the
    grid ``comb_grid(n_points, pump)``, which refuses a leaking window.

    The matrix is exactly symmetric, and it lies within 1e-14 max|K| of the
    same formula evaluated in extended precision on the uniform grid (tested
    at 171 and 1361 points); evaluating the formula at all n^2 points in
    float64 instead loses up to 5e-13 max|K| where the k_0 terms cancel.
    """
    grid = comb_grid(n_points, pump)
    # the pump amplitude and the pump-side phase are evaluated on the 2n - 1
    # sums sigma_{i+j} and read through Hankel views, view[i, j] = v[i + j];
    # the signal-side phase on the n grid points, from _phase_constants:
    #   dphi_ij = S_i + S_j + P_{i+j}
    #   S = l_c/2 w^2 (k_s2 + w k_s3)
    #   P = l_c/2 [(2 k_s0 - k_p0) + sigma (k_s1 - k_p1)
    #              - sigma^2 (k_p2 + sigma k_p3)]
    # Every n x n term is a commutative sum or a Hankel read, so the matrix
    # is exactly symmetric.
    n = grid.n_points
    w = grid.omegas
    sigma = np.linspace(-2.0 * grid.omega_max, 2.0 * grid.omega_max, 2 * n - 1)
    half, (s2, s3), (q0, q1, q2, q3) = _phase_constants(crystal)
    signal = half * np.square(w) * (s2 + w * s3)
    pump_phase = half * (q0 + sigma * (q1 - sigma * (q2 + sigma * q3)))
    amplitude = kernel_amplitude(sigma, grid, pump, crystal)
    hankel = np.lib.stride_tricks.sliding_window_view
    dphi = np.add(signal[:, None], signal[None, :])
    np.add(dphi, hankel(pump_phase, n), out=dphi)
    # sin(y) / y with the analytic limit 1 at y = 0
    np.copyto(dphi, np.finfo(float).eps, where=dphi == 0)
    matrix = np.sin(dphi)
    np.divide(matrix, dphi, out=matrix)
    np.multiply(matrix, hankel(amplitude, n), out=matrix)
    return JointKernel(matrix=matrix, grid=grid)
