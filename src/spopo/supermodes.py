"""Takagi decomposition of the joint kernel and the frequency-comb basis.

The symmetric kernel factorises as S = sum_n g_n psi_n psi_n^T with g_n >= 0
and orthonormal supermodes psi_n; each supermode extends to a continuous pulse
train (frequency comb)

    f_n(theta, t) = (2 pi)^{-1/2} sum_k psi_n(t - k T0) e^{i k (theta + ceo_half)}

whose spectrum is a comb shifted by theta / T0 from the down-conversion
centers.  Time-domain samples are produced by discrete Fourier synthesis on a
per-period grid; on a comb-aligned frequency grid (spacing exactly 2 pi / T0)
that synthesis is exactly unitary, so projections and reconstructions below
hold at machine precision.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ValidationError
from .kernel import FrequencyGrid, JointKernel, PumpConfig, check_symmetric

DEFAULT_GAIN_CUTOFF = 1e-6


def takagi(matrix: np.ndarray | JointKernel, n_modes: int | None = None
           ) -> tuple[np.ndarray, np.ndarray]:
    """Takagi factorisation M = U diag(vals) U^T of a complex symmetric matrix.

    Returns singular values in descending order and the unitary U whose
    columns are the symmetric-SVD modes, in a deterministic sign gauge: at
    each column's largest-|.| sample Re > 0, or Im > 0 when that sample is
    purely imaginary.  A real symmetric input is handled through its
    eigendecomposition (phases i absorb negative eigenvalues).  For complex
    M = B + iC, an eigenvector [x; y] of [[B, C], [C, -B]] with eigenvalue
    val gives the mode x + iy (Horn & Johnson, Matrix Analysis 4.4).

    ``n_modes = k`` returns the top k values and the first k columns of U.
    For real input they come from ``_top_eigenpairs`` (Lanczos, O(n^2 k))
    when it resolves them and from the full ``eigh`` otherwise; complex input
    is factorised in full and sliced.

    A ``JointKernel`` is factorised as its matrix, without repeating the
    finite-and-symmetric check it passed on construction; any other input
    is checked here.
    """
    checked = isinstance(matrix, JointKernel)
    m = matrix.matrix if checked else np.asarray(matrix)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError("takagi needs a square matrix")
    n = m.shape[0]
    if n_modes is not None and not 1 <= n_modes <= n:
        raise ValidationError(f"n_modes must lie in [1, {n}]")
    if not checked:
        check_symmetric(m, "takagi matrix")
    k = n if n_modes is None else n_modes
    if not np.any(m):
        return np.zeros(k), np.eye(n, k, dtype=complex)
    if np.isrealobj(m):
        top = None if n_modes is None else _top_eigenpairs(m, k)
        if top is None:
            lam, x = np.linalg.eigh(m)
            order = np.argsort(np.abs(lam))[::-1][:k]
            lam, x = lam[order], x[:, order]
        else:
            lam, x = top
        # the mode is x (lam >= 0) or i x, and either is gauged by x's sign
        sign = np.where(_sign_flips(x), -1.0, 1.0)
        positive = lam >= 0
        u = np.empty(x.shape, dtype=complex)
        np.multiply(x, np.where(positive, sign, 0.0), out=u.real)
        np.multiply(x, np.where(positive, 0.0, sign), out=u.imag)
        return np.abs(lam), u
    b, c = m.real, m.imag
    lam, vecs = np.linalg.eigh(np.block([[b, c], [c, -b]]))
    top = slice(None, n - 1, -1)
    # k zero values leave a 2k-dimensional null space, closed under u -> iu,
    # whose k picked columns need not be orthonormal; QR completes U and keeps
    # the val > 0 columns, once the phases of R's diagonal are put back
    q, r = np.linalg.qr(vecs[:n, top] + 1j * vecs[n:, top])
    u = q[:, :k] * np.exp(1j * np.angle(r.diagonal()[:k]))
    np.negative(u, out=u, where=_sign_flips(u))
    return np.maximum(lam[top][:k], 0.0), u


#: relative residual |M x - theta x| / |theta_0| a Lanczos pair must meet
_RESIDUAL_TOL = 1e-12
#: relative |theta| gap under which two leading Ritz values count as one gain
_DEGENERACY_TOL = 1e-10


def _top_eigenpairs(m: np.ndarray, k: int):
    """The k eigenpairs of largest |lam| of a real symmetric ``m``, ordered by
    |lam|, from Lanczos with full reorthogonalization (Golub & Van Loan,
    Matrix Computations 4th ed., 10.1-10.3); None when ``eigh`` must decide.

    Runs 32 + 2 max(k, 4) steps from the fixed ``_start_vector`` (reruns are
    bitwise identical; a parity-even start such as all ones would reach the
    odd modes of a parity-symmetric kernel through rounding noise alone),
    stopping early on an invariant Krylov space.  Returns None when that step count exceeds n / 2, when
    fewer than k + 1 Ritz values exist, when two of the k + 1 leading Ritz
    values theta lie within 1e-10 |theta_0| in magnitude (a degenerate gain,
    whose modes ``eigh`` picks), or when a residual |M x - theta x| exceeds
    1e-12 |theta_0|.
    """
    n = m.shape[0]
    steps = 32 + 2 * max(k, 4)
    if 2 * steps > n:
        return None
    basis = np.empty((steps, n))
    t = np.zeros((steps, steps))
    start = _start_vector(n)
    basis[0] = start / np.linalg.norm(start)
    size = steps
    for j in range(steps):
        w = m @ basis[j]
        # classical Gram-Schmidt twice against every Lanczos vector
        for _ in range(2):
            coeff = basis[:j + 1] @ w
            w -= coeff @ basis[:j + 1]
            t[j, j] += coeff[j]
        if j + 1 == steps:
            break
        beta = np.linalg.norm(w)
        if beta <= _RESIDUAL_TOL * np.abs(t[:j + 1, :j + 1]).max():
            # invariant to the residual tolerance: every Ritz pair is final
            size = j + 1
            break
        t[j, j + 1] = t[j + 1, j] = beta
        basis[j + 1] = w / beta
    if size <= k:
        return None
    ritz, s = np.linalg.eigh(t[:size, :size])
    order = np.argsort(np.abs(ritz))[::-1][:k + 1]
    ritz, s = ritz[order], s[:, order]
    scale = abs(ritz[0])
    if np.any(-np.diff(np.abs(ritz)) <= _DEGENERACY_TOL * scale):
        return None
    x = basis[:size].T @ s[:, :k]
    residual = np.linalg.norm(m @ x - x * ritz[:k], axis=0)
    if np.any(residual > _RESIDUAL_TOL * scale):
        return None
    return ritz[:k], x


def _start_vector(n: int) -> np.ndarray:
    """n pseudo-random samples, uniform on [-2^52, 2^52): the splitmix64
    mix of the indices 1..n, in exact integer arithmetic (the same on every
    platform) and without importing numpy.random (about 20 ms and 6 MB per
    process)."""
    x = np.arange(1, n + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    for shift, factor in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        x ^= x >> np.uint64(shift)
        x *= np.uint64(factor)
    x ^= x >> np.uint64(31)
    return (x >> np.uint64(11)).astype(float) - 2.0**52


def _sign_flips(modes: np.ndarray) -> np.ndarray:
    """Columns whose max-|.| sample has Re < 0, or Re = 0 (to 1e-12 of its
    magnitude) and Im < 0: the ones the gauge negates.  Only the sign may be
    touched: any other phase would break the symmetric factorisation."""
    z = modes[np.argmax(np.abs(modes), axis=0), np.arange(modes.shape[1])]
    return np.where(np.abs(z.real) > 1e-12 * np.abs(z), z.real < 0, z.imag < 0)


def takagi_values(matrix: np.ndarray) -> np.ndarray:
    """Takagi values of a symmetric matrix in descending order, without modes.

    The values ``takagi`` returns, to rounding, at the cost of an eigenvalue-
    only LAPACK call for real input and a singular-value-only one for complex
    input.  The symmetry check is the caller's: a ``JointKernel`` matrix has
    passed it on construction.
    """
    m = np.asarray(matrix)
    if np.isrealobj(m):
        return np.sort(np.abs(np.linalg.eigvalsh(m)))[::-1]
    return np.linalg.svd(m, compute_uv=False)


def kept_count(gains: np.ndarray, gain_cutoff: float = DEFAULT_GAIN_CUTOFF) -> int:
    """Number of descending ``gains`` with g_n >= gain_cutoff * g_0 (0 when
    g_0 is 0)."""
    if gains[0] > 0.0:
        return int(np.count_nonzero(gains >= gain_cutoff * gains[0]))
    return 0


@dataclass(frozen=True)
class SupermodeBasis:
    """Gains and supermode functions of one kernel decomposition.

    ``modes_freq[:, n]`` samples psi_n(omega) with unit L2 norm under the
    d_omega/2pi quadrature weight; ``modes_time[:, n]`` samples psi_n(t) on
    ``time_grid`` (one period, pulses centered at t = 0) with unit L2 norm
    under dt, synthesized on first access.  ``n_kept`` counts modes with
    g_n >= cutoff * g_0.  A basis truncated to the top k modes
    (``schmidt_decompose(..., n_modes=k)``) holds k gains and k modes, and
    counts ``n_kept`` among those k.
    """

    gains: np.ndarray
    modes_freq: np.ndarray
    grid: FrequencyGrid
    rep_period: float
    time_grid: np.ndarray
    n_kept: int
    kernel: JointKernel = field(repr=False)

    @property
    def dt(self) -> float:
        return float(self.time_grid[1] - self.time_grid[0])

    def time_samples(self, freq_samples: np.ndarray) -> np.ndarray:
        """Discrete Fourier synthesis sum_i e^{i w_i t} f(w_i) d_omega/2pi of
        samples on the frequency grid (first axis) onto ``time_grid``.

        On a comb-aligned grid (rep_period * delta_omega = 2 pi) the phase
        t_j w_i of the time grid that ``schmidt_decompose`` builds is
        2 pi (j - h)(i - h) / m with h = (m - 1) / 2, so the sum is
        an inverse DFT between two twiddles, evaluated by FFT with each
        twiddle phase reduced to an exact integer multiple of 2 pi / m.  Other
        grids take the direct O(m^2) sum.
        """
        grid = self.grid
        m = grid.n_points
        if abs(self.rep_period * grid.delta_omega - 2.0 * np.pi) \
                > 1e-12 * 2.0 * np.pi:
            synth = np.exp(1j * np.outer(self.time_grid, grid.omegas)) \
                * grid.weight
            return synth @ freq_samples
        h = (m - 1) // 2
        index = np.arange(m)
        # (j - h)(i - h) = j i - h i - h j + h^2; the j i term is the DFT's
        pre = np.exp(2j * np.pi / m * (-h * index % m))
        post = grid.weight * np.exp(2j * np.pi / m * ((h * h - h * index) % m))
        samples = np.asarray(freq_samples)
        column = (m,) + (1,) * (samples.ndim - 1)
        spectrum = pre.reshape(column) * samples
        return post.reshape(column) * np.fft.ifft(spectrum, axis=0,
                                                  norm="forward")

    @cached_property
    def modes_time(self) -> np.ndarray:
        return self.time_samples(self.modes_freq)

    def reconstruction_residual(self) -> float:
        """Relative Frobenius residual of sum_n g_n psi_n psi_n^T over the
        basis's modes: every mode of a full basis, a rank-k approximation's
        residual for a truncated one."""
        weight = self.grid.weight
        phi = self.modes_freq * np.sqrt(weight)
        rec = (phi * self.gains) @ phi.T
        denom = self.kernel.frobenius_norm()
        if denom == 0.0:
            return float(np.linalg.norm(rec))
        return float(np.linalg.norm(rec - self.kernel.matrix) / denom)

    def gram_defect(self, n_modes: int | None = None) -> float:
        """Max deviation of the kept-mode Gram matrix from identity."""
        n = self.n_kept if n_modes is None else n_modes
        phi = self.modes_freq[:, :n] * np.sqrt(self.grid.weight)
        return float(np.abs(phi.conj().T @ phi - np.eye(n)).max())


def schmidt_decompose(kernel: JointKernel,
                      gain_cutoff: float = DEFAULT_GAIN_CUTOFF,
                      rep_period: float | None = None,
                      n_modes: int | None = None) -> SupermodeBasis:
    """Decompose a joint kernel into supermodes with gains.

    ``rep_period`` fixes the per-period time grid for the synthesized
    psi_n(t); when omitted it is inferred from the grid spacing as
    2 pi / delta_omega, which is exact for comb-aligned grids.  ``n_modes``
    truncates the basis to the top k modes (see ``takagi``).
    """
    if gain_cutoff < 0:
        raise ValidationError("gain_cutoff must be >= 0")
    grid = kernel.grid
    if rep_period is None:
        rep_period = 2.0 * np.pi / grid.delta_omega
    gains, modes_freq = takagi(kernel, n_modes)
    modes_freq *= 1.0 / np.sqrt(grid.weight)
    n = grid.n_points
    tau = (np.arange(n) + 0.5) * rep_period / n - rep_period / 2.0
    n_kept = kept_count(gains, gain_cutoff)
    return SupermodeBasis(gains=gains, modes_freq=modes_freq, grid=grid,
                          rep_period=float(rep_period), time_grid=tau,
                          n_kept=n_kept, kernel=kernel)


@dataclass(frozen=True)
class CombFunction:
    """Sampled frequency comb f_n(theta, t) over an integer number of periods.

    Quasi-periodic by construction: f(t + T0) = f(t) e^{i ceo} with
    ceo = theta + ceo_half.
    """

    mode_index: int
    theta: float
    ceo: float
    samples: np.ndarray
    times: np.ndarray
    rep_period: float
    n_periods: int

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])


def synthesize_comb(basis: SupermodeBasis, n: int, theta: float,
                    n_periods: int, pump: PumpConfig) -> CombFunction:
    """Build the pulse train f_n(theta, t) over ``n_periods`` periods."""
    if not 0 <= n < basis.n_kept:
        raise ValidationError(f"mode index {n} out of kept range {basis.n_kept}")
    if not -np.pi <= theta <= np.pi:
        raise ValidationError("theta must lie in [-pi, pi]")
    if n_periods < 1:
        raise ValidationError("n_periods must be >= 1")
    ceo = theta + pump.ceo_half
    pulse = basis.modes_time[:, n] / np.sqrt(2.0 * np.pi)
    phases = np.exp(1j * np.arange(n_periods) * ceo)
    samples = (phases[:, None] * pulse[None, :]).ravel()
    times = (np.arange(n_periods)[:, None] * basis.rep_period
             + basis.time_grid[None, :]).ravel()
    return CombFunction(mode_index=n, theta=float(theta), ceo=float(ceo),
                        samples=samples, times=times,
                        rep_period=basis.rep_period, n_periods=n_periods)


def comb_inner_product(f: CombFunction, g: CombFunction) -> complex:
    """Per-period normalized overlap (1/K) int f* g dt over the common window."""
    if f.n_periods != g.n_periods or f.samples.shape != g.samples.shape \
            or abs(f.dt - g.dt) > 1e-15 * f.dt:
        raise ValidationError("comb functions live on different grids")
    return complex(np.vdot(f.samples, g.samples) * f.dt / f.n_periods)


def project_pulse(field_samples: np.ndarray, basis: SupermodeBasis,
                  n: int, k: int) -> complex:
    """Overlap of period ``k`` of a sampled field with supermode ``n``.

    The field must be sampled on the basis time grid, consecutively from
    period 0; this is the classical-amplitude analogue of the pulse operator
    a_{n,k}.
    """
    m = basis.time_grid.size
    field = np.asarray(field_samples)
    if n < 0 or n >= basis.gains.size:
        raise ValidationError("mode index out of range")
    if k < 0 or field.size < (k + 1) * m:
        raise ValidationError(
            f"field has {field.size} samples; period {k} needs {(k + 1) * m}")
    segment = field[k * m:(k + 1) * m]
    return complex(np.vdot(basis.modes_time[:, n], segment) * basis.dt)


def pulse_train_from_coefficients(basis: SupermodeBasis,
                                  coefficients: np.ndarray) -> np.ndarray:
    """Synthesize a(t) = sum_{n,k} a_{n,k} psi_n(t - k T0) on the basis grid.

    ``coefficients[n, k]`` covers all decomposition modes (not just kept
    ones); the inverse of ``project_pulse``.
    """
    coeff = np.asarray(coefficients)
    if coeff.shape[0] != basis.gains.size:
        raise ValidationError("coefficient rows must cover all modes")
    return (basis.modes_time @ coeff).T.ravel()
