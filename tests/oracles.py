"""Reference implementations the tests compare the library against.

None of these runs on the pipeline's path: each is an independent or
brute-force evaluation of something ``spopo`` computes in closed form, kept
here so the library holds only what the pipeline runs.  Tests import them
with ``from oracles import ...``.
"""

import math
from typing import NamedTuple

import numpy as np

from spopo import (AtThresholdError, CrystalConfig, FrequencyGrid,
                   JointKernel, ModePairTransform, PulseCovariance,
                   SupermodeBasis, ValidationError)
from spopo.pulses import _check_below_threshold


def _poly3(c, x):
    x = np.asarray(x, dtype=float)
    return c[0] + x * (c[1] + x * (c[2] + x * c[3]))


def phase_matching(crystal: CrystalConfig, omega, omega_prime) -> np.ndarray:
    """sinc phase-matching factor sin(dphi)/dphi.

    dphi = l_c [k_s(w) + k_s(w') - k_p(w + w')] / 2, with the analytic limit
    1 at dphi = 0; k_s and k_p are the crystal's cubic Taylor expansions
    ``signal_dispersion`` and ``pump_dispersion``.
    """
    w, wp = np.asarray(omega, dtype=float), np.asarray(omega_prime, dtype=float)
    k_s, k_p = crystal.signal_dispersion, crystal.pump_dispersion
    dphi = 0.5 * crystal.length * (
        _poly3(k_s, w) + _poly3(k_s, wp) - _poly3(k_p, w + wp))
    return np.sinc(dphi / np.pi)


def reconstruction_residual(basis: SupermodeBasis,
                            kernel: JointKernel) -> float:
    """Relative Frobenius residual of sum_n g_n psi_n psi_n^T against
    ``kernel`` over the basis's modes: every mode of a full basis, a
    rank-k approximation's residual for a truncated one.  A kernel on
    another grid is refused (``ValidationError``).  O(n^3)."""
    if kernel.grid != basis.grid:
        raise ValidationError(
            "the kernel lies on another grid than the basis")
    phi = basis.modes_freq * np.sqrt(basis.grid.weight)
    rec = (phi * basis.gains) @ phi.T
    denom = np.linalg.norm(kernel.matrix)
    if denom == 0.0:
        return float(np.linalg.norm(rec))
    return float(np.linalg.norm(rec - kernel.matrix) / denom)


def double_gaussian_kernel(a, b, omega_max=14.0, n_points=301, amplitude=1.0):
    """K(w, w') = A exp(-a (w+w')^2 - b (w-w')^2) with the quadrature weight.

    Its Takagi spectrum is geometric: g_n = g_0 mu^n with
    mu = |sqrt(a) - sqrt(b)| / (sqrt(a) + sqrt(b)), and
    g_0 = A sqrt(pi (1 - mu^2)) / (2 pi s), s = 2 (a b)^(1/4)
    (Mehler expansion of the bivariate Gaussian, derived independently).
    The grid is the comb of period pi (n_points - 1) / omega_max, which
    reaches +-omega_max.
    """
    grid = FrequencyGrid(n_points, np.pi * (n_points - 1) / omega_max)
    w = grid.omegas
    w1, w2 = np.meshgrid(w, w, indexing="ij")
    matrix = amplitude * np.exp(-a * (w1 + w2) ** 2 - b * (w1 - w2) ** 2) * grid.weight
    return JointKernel(matrix=matrix, grid=grid)


def double_gaussian_law(a, b, amplitude=1.0):
    mu = abs(np.sqrt(a) - np.sqrt(b)) / (np.sqrt(a) + np.sqrt(b))
    s = 2.0 * (a * b) ** 0.25
    g0 = amplitude * np.sqrt(np.pi * (1.0 - mu**2)) / (2.0 * np.pi * s)
    return g0, mu


#: vacuum variance of each quadrature, x = (a + a^dag)/sqrt(2)
VACUUM_VARIANCE = 0.5


def output_covariance(transform: ModePairTransform):
    """Quadrature covariance (var_x, var_p, cov) of the output mode for a
    vacuum input, in the degenerate (self-paired) case, per block.

    The block acts on (x, p) as the real 2x2 matrix
    m = [[Re(c + s), -Im(c - s)], [Im(c + s), Re(c - s)]], whose determinant
    is |c|^2 - |s|^2, i.e. 1 for a symplectic block; the covariance is
    (1/2) m m^T.  The identity gives (1/2, 1/2, 0); a real squeezing block
    c = cosh g, s = sinh g gives var_p = e^{-2g}/2.
    """
    c, s = transform
    plus, minus = c + s, c - s
    return (VACUUM_VARIANCE * (np.real(plus) ** 2 + np.imag(minus) ** 2),
            VACUUM_VARIANCE * (np.imag(plus) ** 2 + np.real(minus) ** 2),
            VACUUM_VARIANCE * (np.real(plus) * np.imag(plus)
                               - np.imag(minus) * np.real(minus)))


#: truncation target for the squared tail of the input-output series
SERIES_TAIL = 1e-14


def io_series_coefficients(gain: float, r: float, s_max: int | None = None
                           ) -> tuple[np.ndarray, np.ndarray]:
    """Pulse input-output series coefficients for the x (+g) and p (-g) branches.

    Output pulse k is coeff[0] times input pulse k plus coeff[s] times input
    pulse k-s: (-r, t^2 e^{+-g}, t^2 r e^{+-2g}, ...), t^2 = 1 - r^2, for the
    signed round-trip amplitude r.  ``s_max`` defaults to the smallest
    truncation whose squared tail is below ``SERIES_TAIL``.  The series
    diverges at |r| e^g >= 1, threshold included (``AtThresholdError``).
    """
    _check_below_threshold(gain, r)
    q = abs(r) * math.exp(gain)
    if q >= 1.0:
        raise AtThresholdError(f"|r| e^g = {q:.6g} >= 1: above threshold")
    t2 = 1.0 - r**2
    if s_max is None:
        # tail of sum c_s^2 on the + branch is (t^2 e^g)^2 q^(2 smax) / (1-q^2)
        if q == 0.0:
            s_max = 1
        else:
            lead = (t2 * math.exp(gain)) ** 2 / (1.0 - q**2)
            s_max = max(1, int(math.ceil(
                math.log(SERIES_TAIL / max(lead, SERIES_TAIL)) / (2.0 * math.log(q)))))
    out = []
    s = np.arange(1, s_max + 1)
    for sign in (+1.0, -1.0):
        coeff = np.empty(s_max + 1)
        coeff[0] = -r
        coeff[1:] = t2 * r ** (s - 1) * np.exp(sign * gain * s)
        out.append(coeff)
    return out[0], out[1]


def series_covariance_entry(g, r, separation, sign):
    """Independent covariance evaluation by direct series summation.

    Each coefficient t^2 r^(s-1) e^(+-g s) is taken as t^2 e^(+-g) q^(s-1),
    q = r e^(+-g) < 1: near threshold s_max runs to thousands, where e^(g s)
    alone overflows and r^(s-1) underflows to a nan product.
    """
    t2 = 1 - r * r
    q = r * np.exp(sign * g)
    # q^(2 s_tail) <= 1e-18 truncates the products past the separation, so
    # every entry keeps s_tail + 1 of them whatever its separation
    s_tail = max(8, int(np.ceil(np.log(1e-18) / (2 * np.log(q)))) if q > 0 else 8)
    s_max = separation + s_tail
    coeff = np.empty(s_max + 1)
    coeff[0] = -r
    s = np.arange(1, s_max + 1)
    coeff[1:] = t2 * np.exp(sign * g) * q ** (s - 1)
    if separation == 0:
        return 0.5 * np.sum(coeff**2)
    return 0.5 * np.sum(coeff[separation:] * coeff[:-separation])


class DenseEigenpair(NamedTuple):
    sigma2: float
    eigvec: np.ndarray


def min_variance_direct(cov: PulseCovariance) -> DenseEigenpair:
    """Smallest eigenpair of V^(-) by a dense symmetric eigensolver.

    Sign gauge: the central eigenvector entry is made positive.
    """
    if cov.n_pulses > 4096:
        raise ValidationError("dense solve limited to N <= 4096")
    vals, vecs = np.linalg.eigh(cov.v_minus)
    vec = vecs[:, 0]
    center = vec[(cov.n_pulses - 1) // 2]
    if center < 0 or (center == 0 and vec.sum() < 0):
        vec = -vec
    return DenseEigenpair(sigma2=float(vals[0]), eigvec=vec)


def pulse_pair_covariance(var_x, cov_x, var_p, cov_p):
    """4x4 covariance of two pulses, ordered (x_j, p_j, x_k, p_k), from the
    Toeplitz diagonal and off-diagonal entries of V^(+) and V^(-)."""
    return np.array([[var_x, 0.0, cov_x, 0.0],
                     [0.0, var_p, 0.0, cov_p],
                     [cov_x, 0.0, var_x, 0.0],
                     [0.0, cov_p, 0.0, var_p]])


def ppt_min_symplectic_eigenvalue(sigma):
    """Smallest symplectic eigenvalue of the partial transpose of a two-mode
    covariance ordered (x_1, p_1, x_2, p_2).

    Partial transposition flips p_2; the symplectic eigenvalues are the
    moduli of the eigenvalues of i Omega sigma.  Two Gaussian modes are
    entangled exactly when the result is below the vacuum variance 1/2
    (Simon, PRL 84, 2726 (2000)).
    """
    flip = np.array([1.0, 1.0, 1.0, -1.0])
    omega = np.kron(np.eye(2), [[0.0, 1.0], [-1.0, 0.0]])
    transposed = sigma * np.outer(flip, flip)
    return float(np.abs(np.linalg.eigvals(1j * omega @ transposed)).min())


def _apply_exponential(generator, vector):
    """exp(G) v for an anti-Hermitian G: with -i G = V diag(lambda) V^dag
    from ``eigh``, exp(G) = V diag(e^{i lambda}) V^dag."""
    values, vectors = np.linalg.eigh(-1j * generator)
    return vectors @ (np.exp(1j * values) * (vectors.conj().T @ vector))


def fock_variance_of_x(squeeze: float, displacement: complex,
                       cutoff: int = 220) -> float:
    """First-principles Var(x) of D(beta) S |0> built by operator exponentials
    acting on the Fock-space state vector.

    The squeeze direction is chosen so that p is the squeezed quadrature
    (x anti-squeezed), matching the pulse covariance convention.  Both
    generators, (g/2)(a^dag^2 - a^2) and beta a^dag - beta^* a, stay
    anti-Hermitian on the ``cutoff``-level space, so each exponential is
    taken from the eigenpairs of a dense Hermitian matrix (numpy only).  Over
    g in {0.05, 0.3, 0.8, 1.2} and beta in {0, 1.5, 2 + i, 4} this agrees
    with scipy's ``expm_multiply`` on the same space to 2.5e-13 relative.
    """
    a = np.diag(np.sqrt(np.arange(1.0, cutoff)), 1)
    adag = a.T
    state = np.zeros(cutoff, dtype=complex)
    state[0] = 1.0
    state = _apply_exponential(0.5 * squeeze * (adag @ adag - a @ a), state)
    state = _apply_exponential(
        displacement * adag - np.conj(displacement) * a, state)
    x_state = ((a + adag) / np.sqrt(2.0)) @ state
    mean = np.vdot(state, x_state).real
    return np.vdot(x_state, x_state).real - mean**2
