"""Takagi decomposition of the joint kernel and the frequency-comb basis.

The real symmetric kernel factorises as S = sum_n g_n psi_n psi_n^T with
g_n >= 0 and orthonormal supermodes psi_n, read off its eigendecomposition
(psi_n is an eigenvector, times i where its eigenvalue is negative); each
supermode extends to a continuous pulse train (frequency comb)

    f_n(theta, t) = (2 pi)^{-1/2} sum_k psi_n(t - k T0) e^{i k (theta + phi)}

whose spectrum is a comb shifted by theta / T0 from the down-conversion
centers; phi, the cavity's round-trip phase delta_rt + delta0, does not
shape psi_n.  The frequency grid is the comb's: a ``FrequencyGrid`` holds
T0 and spaces its points by 2 pi / T0, so the per-period time samples are
an exactly unitary inverse DFT of the frequency samples, and the
synthesized psi_n(t) stay orthonormal at machine precision.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .config import RUN_DEFAULTS
from .errors import ValidationError
from .kernel import FrequencyGrid, JointKernel, check_symmetric

DEFAULT_GAIN_CUTOFF = RUN_DEFAULTS["gain_cutoff"]


def takagi(matrix: np.ndarray | JointKernel, n_modes: int | None = None
           ) -> tuple[np.ndarray, np.ndarray]:
    """Takagi factorisation M = U diag(vals) U^T of a real symmetric matrix.

    M = X diag(lam) X^T is its eigendecomposition, so vals = |lam| in
    descending order and column n of the unitary U is x_n, or i x_n where
    lam_n < 0 (the phase i absorbs the sign).  Each x_n is in a
    deterministic sign gauge: its largest-|.| sample is positive.

    ``n_modes = k`` returns the top k values and the first k columns of U,
    from ``_top_eigenpairs`` (Lanczos, O(n^2 k)) when it resolves them and
    from the full ``eigh`` otherwise.

    A ``JointKernel`` is factorised as its matrix, without repeating the
    finite-and-symmetric check it passed on construction; any other input
    is checked here, and a complex one is refused (``ValidationError``).
    """
    checked = isinstance(matrix, JointKernel)
    m = matrix.matrix if checked else np.asarray(matrix)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError("takagi needs a square matrix")
    n = m.shape[0]
    if n_modes is not None and not 1 <= n_modes <= n:
        raise ValidationError(f"n_modes must lie in [1, {n}]")
    if not checked:
        if np.iscomplexobj(m):
            raise ValidationError("takagi needs a real matrix")
        check_symmetric(m, "takagi matrix")
    k = n if n_modes is None else n_modes
    if not np.any(m):
        return np.zeros(k), np.eye(n, k, dtype=complex)
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


#: relative residual |M x - theta x| / |theta_0| a Lanczos pair must meet
_RESIDUAL_TOL = 1e-12
#: relative |theta| gap under which two leading Ritz values count as one gain
_DEGENERACY_TOL = 1e-10


# a kernel near the float range overflows the squared norms; such a run
# returns None, and numpy need not warn on the way
@np.errstate(over="ignore", invalid="ignore")
def _top_eigenpairs(m: np.ndarray, k: int):
    """The k eigenpairs of largest |lam| of a real symmetric ``m``, ordered by
    |lam|, from Lanczos with full reorthogonalization (Golub & Van Loan,
    Matrix Computations 4th ed., 10.1-10.3); None when ``eigh`` must decide.

    Runs 32 + 2 max(k, 4) steps from the fixed ``_start_vector`` (reruns are
    bitwise identical; a parity-even start such as all ones would reach the
    odd modes of a parity-symmetric kernel through rounding noise alone),
    stopping early on an invariant Krylov space.  Returns None when that
    step count exceeds n / 2, when fewer than k + 1 Ritz values exist, when
    two of the k + 1 leading Ritz values theta lie within 1e-10 |theta_0| in
    magnitude (a degenerate gain, whose modes ``eigh`` picks), when a
    residual |M x - theta x| exceeds 1e-12 |theta_0|, or when a norm or a
    residual is not finite (a matrix near the float range, which ``eigh``
    scales).
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
        if not np.isfinite(beta):
            return None
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
    if not np.all(residual <= _RESIDUAL_TOL * scale):
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


def _sign_flips(x: np.ndarray) -> np.ndarray:
    """Columns of the real eigenvectors ``x`` whose max-|.| sample is
    negative: the ones the gauge negates.  Only the sign may be touched:
    any other phase would break the symmetric factorisation."""
    return x[np.argmax(np.abs(x), axis=0), np.arange(x.shape[1])] < 0


def takagi_values(matrix: np.ndarray) -> np.ndarray:
    """Takagi values of a real symmetric matrix in descending order, without
    modes: the values ``takagi`` returns, to rounding, at the cost of an
    eigenvalue-only LAPACK call.  A complex matrix is refused
    (``ValidationError``): ``eigvalsh`` would read it as Hermitian.  The
    symmetry check is the caller's: a ``JointKernel`` matrix has passed it
    on construction.
    """
    if np.iscomplexobj(matrix):
        raise ValidationError("takagi_values needs a real matrix")
    return np.sort(np.abs(np.linalg.eigvalsh(matrix)))[::-1]


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
    under dt, synthesized on first access; the period is the comb's, the
    grid's ``rep_period``.  ``n_kept`` counts modes with g_n >= cutoff * g_0.
    A basis truncated to the top k modes (``schmidt_decompose(...,
    n_modes=k)``) holds k gains and k modes, and counts ``n_kept`` among
    those k.  ``kernel`` is the decomposed kernel, or None for a basis
    rebuilt from stored gains and modes by ``from_modes``.
    """

    gains: np.ndarray
    modes_freq: np.ndarray
    grid: FrequencyGrid
    n_kept: int
    kernel: JointKernel | None = field(default=None, repr=False)

    @classmethod
    def from_modes(cls, gains: np.ndarray, modes_freq: np.ndarray,
                   grid: FrequencyGrid,
                   gain_cutoff: float = DEFAULT_GAIN_CUTOFF,
                   kernel: JointKernel | None = None) -> SupermodeBasis:
        """The basis of descending ``gains`` and mode samples ``modes_freq``
        on the comb grid ``grid``."""
        return cls(gains=gains, modes_freq=modes_freq, grid=grid,
                   n_kept=kept_count(gains, gain_cutoff), kernel=kernel)

    @cached_property
    def time_grid(self) -> np.ndarray:
        n, period = self.grid.n_points, self.grid.rep_period
        return (np.arange(n) + 0.5) * period / n - period / 2.0

    @property
    def dt(self) -> float:
        return float(self.time_grid[1] - self.time_grid[0])

    def time_samples(self, freq_samples: np.ndarray) -> np.ndarray:
        """Discrete Fourier synthesis sum_i e^{i w_i t} f(w_i) d_omega/2pi of
        samples on the frequency grid (first axis) onto ``time_grid``.

        The time grid spans one comb period 2 pi / delta_omega, so the phase
        t_j w_i is 2 pi (j - h)(i - h) / m with h = (m - 1) / 2: the sum is
        an inverse DFT between two twiddles, evaluated by FFT with each
        twiddle phase reduced to an exact integer multiple of 2 pi / m.
        """
        grid = self.grid
        m = grid.n_points
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
        residual for a truncated one.  A basis without its kernel has none."""
        if self.kernel is None:
            raise ValidationError("the basis carries no kernel to compare")
        weight = self.grid.weight
        phi = self.modes_freq * np.sqrt(weight)
        rec = (phi * self.gains) @ phi.T
        denom = self.kernel.frobenius_norm()
        if denom == 0.0:
            return float(np.linalg.norm(rec))
        return float(np.linalg.norm(rec - self.kernel.matrix) / denom)

    def gram_defect(self) -> float:
        """Max deviation of the kept-mode Gram matrix from identity; 0 when
        no mode is kept, as the empty Gram matrix is the empty identity."""
        n = self.n_kept
        phi = self.modes_freq[:, :n] * np.sqrt(self.grid.weight)
        return float(np.abs(phi.conj().T @ phi - np.eye(n)).max(initial=0.0))


def schmidt_decompose(kernel: JointKernel,
                      gain_cutoff: float = DEFAULT_GAIN_CUTOFF,
                      n_modes: int | None = None) -> SupermodeBasis:
    """Decompose a joint kernel into supermodes with gains.

    The time grid of the synthesized psi_n(t) spans one comb period, the
    ``rep_period`` of the kernel's grid.  ``n_modes`` truncates the
    basis to the top k modes (see ``takagi``).
    """
    if gain_cutoff < 0:
        raise ValidationError("gain_cutoff must be >= 0")
    grid = kernel.grid
    gains, modes_freq = takagi(kernel, n_modes)
    modes_freq *= 1.0 / np.sqrt(grid.weight)
    return SupermodeBasis.from_modes(gains, modes_freq, grid, gain_cutoff,
                                     kernel)
