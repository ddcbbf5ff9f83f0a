"""Quantum Fisher information and Cramer-Rao bound for time-delay estimation.

A time translation of the pulse train is generated (per pulse) by the
frequency-weighted quadratic form Omega_mn = int psi_m*(t)(omega0 - i d/dt)
psi_n(t) dt.  For an intense probe the Fisher information reduces to a
Gaussian quadratic form in the p-quadrature covariance, maximised by putting
all probe amplitude in supermode 0 with the pulse weights of the minimum-
variance eigenvector; the resulting bound improves on the coherent-probe
standard quantum limit by 1/(sqrt 2 sigma).

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

from .cavity import CavityConfig, threshold_gain
from .errors import NumericalError, ValidationError
from .pulses import (min_variance_curve, min_variance_transcendental,
                     resonant_branch, sigma2_limit)
from .supermodes import SupermodeBasis

#: convergence level defining the "minimum pulse number" of a curve
ASYMPTOTE_FRACTION = 0.99


@dataclass(frozen=True)
class TranslationGenerator:
    """Hermitian matrix of the time-translation generator over kept modes."""

    omega0: float
    matrix: np.ndarray

    def hermiticity_defect(self) -> float:
        """Relative deviation from Hermiticity (entries scale with omega0)."""
        return float(np.abs(self.matrix - self.matrix.conj().T).max()
                     / max(1.0, np.abs(self.matrix).max()))


def omega_matrix(basis: SupermodeBasis, omega0: float) -> TranslationGenerator:
    """Spectral evaluation Omega_mn = sum_i psi_m*(w_i)(omega0 + w_i) psi_n(w_i) dw/2pi."""
    if omega0 <= 0:
        raise ValidationError("omega0 must be positive")
    n = basis.n_kept
    phi = basis.modes_freq[:, :n] * math.sqrt(basis.grid.weight)
    weighted = phi.conj().T * (omega0 + basis.grid.omegas)[None, :]
    return TranslationGenerator(omega0=omega0, matrix=weighted @ phi)


@dataclass(frozen=True)
class ProbeField:
    """Mean probe field over N pulses.

    ``alpha_prime[n, k]`` are the (real) generator-weighted mean amplitudes
    entering the Fisher quadratic form; ``envelope`` samples the mean field
    over the N periods of the basis time grid; ``pulse_freq`` samples the
    probe pulse spectrum psi0(w)/(omega0 + w) before amplitude scaling.
    ``spectral_spread_sq`` is the second moment of the probe spectrum about
    the carrier, <(omega0 + w)^2> - omega0^2, which makes the amplitude
    normalization exact: sum |envelope|^2 dt = N n_bar0.  It can come out
    slightly negative: the 1/(omega0 + w)^2 spectral weighting of the probe
    pulse shifts its mean frequency just below the carrier.
    """

    alpha_prime: np.ndarray
    n_bar0: float
    spectral_spread_sq: float
    amplitude: float
    envelope: np.ndarray
    pulse_freq: np.ndarray
    n_pulses: int

    def total_photons(self, dt: float) -> float:
        return float(np.sum(np.abs(self.envelope) ** 2) * dt)


def fisher_information(probe, v_minus_family: Sequence[np.ndarray]) -> float:
    """Gaussian Fisher information F = (1/2) sum_n alpha_n^T [V_n^(-)]^-1 alpha_n.

    ``probe`` is a ProbeField or a bare (modes x pulses) real array;
    ``v_minus_family`` supplies one symmetric positive-definite p-covariance
    per probe mode row.
    """
    alpha = np.asarray(getattr(probe, "alpha_prime", probe), dtype=float)
    if alpha.ndim == 1:
        alpha = alpha[None, :]
    if len(v_minus_family) < alpha.shape[0]:
        raise ValidationError("need one V^(-) matrix per probe mode row")
    total = 0.0
    for row, vm in zip(alpha, v_minus_family):
        vm = np.asarray(vm, dtype=float)
        if vm.shape != (row.size, row.size):
            raise ValidationError("V^(-) shape does not match probe row")
        if not np.all(np.isfinite(vm)):
            raise ValidationError("V^(-) has non-finite entries")
        try:
            lower = np.linalg.cholesky(vm)
        except np.linalg.LinAlgError as exc:
            raise ValidationError(f"V^(-) not positive definite: {exc}") from exc
        # alpha^T (L L^T)^-1 alpha = |L^-1 alpha|^2
        half = np.linalg.solve(lower, row)
        total += 0.5 * float(half @ half)
    return total


def optimal_probe(basis: SupermodeBasis, omega0: float, cavity: CavityConfig,
                  n_pulses: int, n_bar0: float, gain0: float | None = None,
                  branch_phase: str = "even") -> ProbeField:
    """Optimal mean probe for the time-delay bound.

    All amplitude goes to supermode 0 with pulse weights from the minimum-
    variance eigenvector; the pulse envelope solves (omega0 - i d/dt)
    psi0' = psi0 spectrally, and the overall amplitude carries
    sqrt(N n_bar0 (omega0^2 + spread^2)).
    """
    if n_bar0 <= 0:
        raise ValidationError("n_bar0 must be positive")
    if basis.n_kept < 1:
        raise ValidationError("basis has no kept modes")
    g0 = basis.gains[0] if gain0 is None else float(gain0)
    sol = min_variance_transcendental(g0, cavity.r, n_pulses, branch_phase)

    omegas = basis.grid.omegas
    shifted = omega0 + omegas
    if np.any(shifted <= 0.0):
        raise ValidationError("omega0 + omega must stay positive on the grid")
    pulse_freq = basis.modes_freq[:, 0] / shifted

    weight = basis.grid.weight
    density = np.abs(pulse_freq) ** 2 * weight
    norm_sq = float(density.sum())
    second_moment = float((shifted**2 * density).sum() / norm_sq)
    spread_sq = second_moment - omega0**2
    amplitude = math.sqrt(n_pulses * n_bar0 * second_moment)

    alpha_prime = np.zeros((basis.n_kept, n_pulses))
    alpha_prime[0] = amplitude * sol.eigvec

    pulse_time = basis.time_samples(pulse_freq)
    envelope = amplitude * (sol.eigvec[:, None] * pulse_time[None, :]).ravel()
    return ProbeField(alpha_prime=alpha_prime, n_bar0=float(n_bar0),
                      spectral_spread_sq=spread_sq, amplitude=amplitude,
                      envelope=envelope, pulse_freq=pulse_freq,
                      n_pulses=n_pulses)


@dataclass(frozen=True)
class MetrologyResult:
    """Time-delay bound for one (sigma^2, N) operating point."""

    fisher: float
    delta_tau: float
    delta_tau_sql: float
    improvement: float


def cramer_rao(sigma2_min: float, n_pulses: int, n_bar0: float, omega0: float,
               spectral_spread_sq: float) -> MetrologyResult:
    """Quantum Cramer-Rao bound dtau^2 = sigma^2 / (2 N n_bar0 (omega0^2 + spread^2)).

    The standard quantum limit is the same expression at the coherent value
    sigma^2 = 1/2, so the improvement factor is 1 / (sqrt 2 sigma).
    """
    if min(sigma2_min, n_bar0, omega0) <= 0 or n_pulses < 1:
        raise ValidationError("cramer_rao needs positive inputs")
    scale = 2.0 * n_pulses * n_bar0 * (omega0**2 + spectral_spread_sq)
    dtau2 = sigma2_min / scale
    dtau2_sql = 0.5 / scale
    return MetrologyResult(fisher=1.0 / dtau2,
                           delta_tau=math.sqrt(dtau2),
                           delta_tau_sql=math.sqrt(dtau2_sql),
                           improvement=math.sqrt(dtau2_sql / dtau2))


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
                      n_max: int, ceo_half: float = 0.0) -> ImprovementCurve:
    """Improvement(N) for N = 1..n_max at each pump ratio g0/g_th < 1.

    Also reports the asymptote 1/(sqrt 2 sigma(inf)) and the minimum pulse
    number reaching ``ASYMPTOTE_FRACTION`` of it (in closed form, beyond
    n_max when necessary).
    """
    ratios = np.asarray(ratios, dtype=float)
    if np.any(ratios < 0.0) or np.any(ratios >= 1.0):
        raise ValidationError("pump ratios must lie in [0, 1)")
    if n_max < 1:
        raise ValidationError("n_max must be >= 1")
    # sigma^2 is the same on both resonant branches; this refuses other phases
    resonant_branch(cavity.delta_rt + ceo_half)
    gth = threshold_gain(cavity, ceo_half).gain
    ns = np.arange(1, n_max + 1)
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
