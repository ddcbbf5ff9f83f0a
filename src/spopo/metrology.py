"""Quantum Fisher information for time-delay estimation, and the pulse
number at which the improvement over the coherent probe levels off.

Quadratures are x = (a + a^dag)/sqrt 2 and p = (a - a^dag)/(i sqrt 2), so
the vacuum variance is 1/2.  A delay tau multiplies each frequency component
of the mean field by e^{i (omega0 + w) tau}, so at tau = 0 a real mean field
moves along i (omega0 + w) times itself: the p quadrature of the derivative
mode, the normalised (omega0 + w)-weighted mean field, moves at
mu' = d<p>/dtau = sqrt 2 alpha', with alpha' the real amplitude of that
derivative.  Only the mean depends on tau, so the Fisher information of the
Gaussian state is the mean-shift form F = mu'^T V^-1 mu' over the p
covariance V.  With ``alpha_prime[n]`` the amplitude of pulse n in one
supermode and V^(-) its pulse p-covariance,

    F = 2 alpha'^T [V^(-)]^-1 alpha',

and independent supermodes add their F.  ``optimal_probe`` puts the whole
probe in supermode 0, the derivative mode: its pulse spectrum is
psi0(w) / (omega0 + w).  For N pulses of n_bar0 photons on average,
sum |alpha'|^2 = N n_bar0 omega_eff^2, with omega_eff^2 the second moment of
omega0 + w over the probe spectrum.  A coherent probe (V = I/2) gives
F = 4 N n_bar0 omega_eff^2, the standard quantum limit
dtau_SQL = F^-1/2 = 1 / (2 sqrt(N n_bar0) omega_eff) (Lamine, Fabre and
Treps, PRL 101, 123601 (2008)).  Pulse weights on the minimum-variance
eigenvector of V_0^(-), at eigenvalue sigma^2, give
F = 2 N n_bar0 omega_eff^2 / sigma^2: the Cramer-Rao bound F^-1/2 improves
on dtau_SQL by 1/(sqrt 2 sigma), which ``improvement_curve`` reports.

The pulse number reaching a target improvement has a closed form.  With
a = e^-g and q = r a, sigma^2(N) = (1/2) |r - a e^{i theta_N}|^2
/ |1 - q e^{i theta_N}|^2 at the quantized angle theta_N (``spopo.pulses``),
so improvement >= target, i.e. sigma^2 <= T = 1/(2 target^2), holds exactly
when theta_N <= theta*, where

    cos theta* = (r^2 + a^2 - 2T (1 + q^2)) / (2 r a (1 - 2T)),
    tan^2(theta*/2) = [2T (1 - q)^2 - (r - a)^2] / [(r + a)^2 - 2T (1 + q)^2].

theta_N is the root in (0, pi/N) of cos(theta (N+1)/2) = q cos(theta (N-1)/2);
at theta* that difference is (1 - q) cos x cos b - (1 + q) sin x sin b with
x = N theta*/2 and b = theta*/2, so theta_N <= theta* exactly when

    N >= 2 arctan[(1 - q)/(1 + q) cot(theta*/2)] / theta*.

As the target lies below the asymptote, a cos theta* outside (-1, 1) is a
target met at every angle, N = 1 included.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .cavity import CavityConfig, resonant_r, threshold_gain
from .errors import NumericalError, ValidationError
from .pulses import (_check_counts, min_variance_curve,
                     min_variance_transcendental, sigma2_limit)
from .supermodes import SupermodeBasis

#: convergence level defining the "minimum pulse number" of a curve
ASYMPTOTE_FRACTION = 0.99


@dataclass(frozen=True)
class ProbeField:
    """Mean probe field over N pulses, all in supermode 0.

    ``alpha_prime[n]`` is the (real) derivative amplitude of pulse n, the
    (N,) row that ``fisher_information`` takes with supermode 0's V^(-);
    ``envelope`` samples the mean field over the N periods of the basis time
    grid.  ``omega_eff_sq`` is the second moment <(omega0 + w)^2> of the
    probe spectrum psi0(w)/(omega0 + w), which makes the amplitude
    normalization exact: on the comb grid sum |envelope|^2 dt = N n_bar0 to
    rounding (7e-15 relative on configs/default.json).
    """

    alpha_prime: np.ndarray
    omega_eff_sq: float
    amplitude: float
    envelope: np.ndarray


def fisher_information(alpha_prime: np.ndarray, v_minus: np.ndarray) -> float:
    """Time-delay Fisher information 2 alpha'^T [V^(-)]^-1 alpha' of one
    supermode, derived in the module docstring.

    ``alpha_prime`` is an (N,) real row of pulse amplitudes, such as
    ``ProbeField.alpha_prime``; ``v_minus`` is that supermode's symmetric
    positive-definite (N, N) p-covariance.  Independent supermodes add, so
    a probe spread over several is a sum of one call per supermode.
    """
    alpha = np.asarray(alpha_prime, dtype=float)
    if not np.all(np.isfinite(alpha)):
        raise ValidationError("alpha_prime has non-finite entries")
    v_minus = np.asarray(v_minus, dtype=float)
    if alpha.ndim != 1 or v_minus.shape != (alpha.size, alpha.size):
        raise ValidationError(
            "need an (N,) alpha_prime row and an (N, N) V^(-)")
    if not np.all(np.isfinite(v_minus)):
        raise ValidationError("V^(-) has non-finite entries")
    try:
        lower = np.linalg.cholesky(v_minus)
    except np.linalg.LinAlgError as exc:
        raise ValidationError(f"V^(-) not positive definite: {exc}") from exc
    # alpha^T (L L^T)^-1 alpha = |L^-1 alpha|^2
    half = np.linalg.solve(lower, alpha)
    return 2.0 * float(half @ half)


def optimal_probe(basis: SupermodeBasis, omega0: float, r: float,
                  n_pulses: int, n_bar0: float, gain0: float) -> ProbeField:
    """Optimal mean probe for the time-delay bound.

    All amplitude goes to supermode 0 with pulse weights from the minimum-
    variance eigenvector at the run's top gain ``gain0`` and the signed
    round-trip amplitude r (alternating in sign for r < 0, see
    ``cavity.resonant_r``); the pulse envelope solves
    (omega0 - i d/dt) psi0' = psi0 spectrally, and the overall amplitude
    carries sqrt(N n_bar0 omega_eff^2), which must be finite.
    """
    if not 0 < n_bar0 < math.inf:
        raise ValidationError("n_bar0 must be positive and finite")
    if basis.n_kept < 1:
        raise ValidationError("basis has no kept modes")
    sol = min_variance_transcendental(gain0, r, n_pulses)

    omegas = basis.grid.omegas
    shifted = omega0 + omegas
    if np.any(shifted <= 0.0):
        raise ValidationError("omega0 + omega must stay positive on the grid")
    pulse_freq = basis.modes_freq[:, 0] / shifted

    weight = basis.grid.weight
    density = np.abs(pulse_freq) ** 2 * weight
    omega_eff_sq = float((shifted**2 * density).sum() / density.sum())
    amplitude = math.sqrt(n_pulses * n_bar0 * omega_eff_sq)
    if not amplitude < math.inf:
        raise ValidationError(
            f"probe amplitude sqrt(N n_bar0 omega_eff^2) overflows at "
            f"N = {n_pulses}, n_bar0 = {n_bar0:.6g}")

    pulse_time = basis.time_samples(pulse_freq)
    envelope = amplitude * (sol.eigvec[:, None] * pulse_time[None, :]).ravel()
    return ProbeField(alpha_prime=amplitude * sol.eigvec,
                      omega_eff_sq=omega_eff_sq, amplitude=amplitude,
                      envelope=envelope)


@dataclass(frozen=True)
class ImprovementCurve:
    """Quantum improvement vs pulse number for several pump ratios."""

    ratios: np.ndarray
    n_values: np.ndarray
    sigma2: np.ndarray
    improvement: np.ndarray
    asymptote: np.ndarray
    min_pulses_to_asymptote: np.ndarray


def improvement_curve(cavity: CavityConfig, ratios: Sequence[float],
                      n_max: int) -> ImprovementCurve:
    """Improvement(N) for N = 1..n_max at each pump ratio g0/g_th < 1;
    ``n_max`` is one whole number >= 1.

    Also reports the asymptote 1/(sqrt 2 sigma(inf)) and the minimum pulse
    number reaching ``ASYMPTOTE_FRACTION`` of it (in closed form, beyond
    n_max when necessary).
    """
    ratios = np.asarray(ratios, dtype=float)
    if not np.all((0.0 <= ratios) & (ratios < 1.0)):
        raise ValidationError("pump ratios must lie in [0, 1)")
    if np.ndim(n_max):
        raise ValidationError("n_max must be one whole number >= 1")
    _check_counts(n_max, "n_max")
    # sigma^2 is the same on both resonant branches; this refuses other phases
    resonant_r(cavity)
    gth = threshold_gain(cavity).gain
    ns = np.arange(1, int(n_max) + 1)
    sig = np.empty((ratios.size, ns.size))
    asym = np.empty(ratios.size)
    min_n = np.empty(ratios.size, dtype=int)
    for i, g in enumerate(ratios * gth):
        sig[i] = min_variance_curve(g, cavity.r, ns)[0]
        asym[i] = 1.0 / math.sqrt(2.0 * sigma2_limit(g, cavity.r))
        min_n[i] = _first_n_at_asymptote(g, cavity.r, asym[i])
    return ImprovementCurve(ratios=ratios, n_values=ns, sigma2=sig,
                            improvement=1.0 / np.sqrt(2.0 * sig), asymptote=asym,
                            min_pulses_to_asymptote=min_n)


def _first_n_at_asymptote(gain: float, r: float, asymptote: float) -> int:
    """Smallest N whose improvement reaches ASYMPTOTE_FRACTION of the
    asymptote: the closed form of the module docstring, settled by the rule
    1/sqrt(2 sigma^2(N)) >= target itself on N - 1, N and N + 1."""
    target = ASYMPTOTE_FRACTION * asymptote
    bound = 0.5 / target**2
    a = math.exp(-gain)
    q = r * a
    # tan^2(theta*/2) = above / below keeps its digits where theta* is small
    # (acos near 1 does not); below <= 0 when every theta meets the target,
    # above <= 0 when none does (never, as target < asymptote)
    above = 2.0 * bound * (1.0 - q) ** 2 - (r - a) ** 2
    below = (r + a) ** 2 - 2.0 * bound * (1.0 + q) ** 2
    n = 1
    if above > 0.0 and below > 0.0:
        cot = math.sqrt(below / above)
        n = math.ceil(math.atan((1.0 - q) / (1.0 + q) * cot)
                      / math.atan(1.0 / cot))
    ns = np.arange(max(n - 1, 1), n + 2)
    reached = 1.0 / np.sqrt(2.0 * min_variance_curve(gain, r, ns)[0]) >= target
    # improvement is nondecreasing in N, so reached reads False..., True...
    if not reached[-1] or (reached[0] and ns[0] > 1):
        raise NumericalError(
            f"closed-form pulse count N = {n} is not within one of the first "
            "N reaching the asymptote fraction")
    return int(ns[np.argmax(reached)])
