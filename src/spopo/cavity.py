"""Cavity input-output map per comb pair, oscillation threshold, spectra.

Each supermode/frequency-shift pair (n, theta) transforms independently as
out = (A - r)(1 - r A)^{-1} in, A = e^{i theta} T_n, with T_n the single-pass
squeezer of gain g rotated by the round-trip phase phi = delta_rt + delta0.
theta = 0 gives single-comb squeezing; theta != 0 gives twin combs at +-theta
in a two-mode squeezed state.  The map has a closed form (Patera, Treps,
Fabre, de Valcarcel, Eur. Phys. J. D 56, 123 (2010)): with
u = e^{i(theta + phi)}, d = e^{i(theta - phi)} and h = cosh g - 1,

    D = 1 - r cosh g (u + d) + r^2 u d = (1 - r u)(1 - r d) - r h (u + d),
    C = [(u - r)(1 - r d) + h (u + r^2 d)] / D,    S = t^2 u sinh g / D,

factored to keep the O(1) terms apart from the gain terms that cancel them
near threshold.

Each (C, S) is a lossless pair transform: it mixes the annihilation operator
of one comb with the creation operator of its partner,

    b = c a  +  s a_partner^dag,

and is represented by the block ``[[c, s], [s*, c*]]``.  Preserving the
commutation relations requires ``|c|^2 - |s|^2 = 1``; for scalar blocks the
cross commutator ``[b, b_partner]`` vanishes identically, so that single
condition is the whole symplectic constraint.

One evaluation at +theta gives the whole comb pair.  For a real phi,
D(-theta) = conj D(theta), so S(-theta) = e^{2i phi} conj S(theta) and
|S(-theta)| = |S(theta)|.  With |C|^2 - |S|^2 = 1, |C| - |S| = 1/(|C| + |S|):
the squeezed variance (|C| - |S|)^2 / 2 = 1 / 2(|C| + |S|)^2 and the
minimized EPR variance 1 + 2|S|^2 - 2|C(theta) S(-theta)| = (|C| - |S|)^2
are written without the difference, which cancels near threshold.

The cavity owns phi (``CavityConfig.phase``): ``threshold_gain`` reads the
oscillating branch from it, and ``resonant_r`` turns a resonant phi (0 or pi)
into the signed round-trip amplitude +-r that the pulse layer takes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import AtThresholdError, NoFiniteThresholdError, ValidationError

#: condition-number ceiling for the input-output inversion
CONDITION_LIMIT = 1e12

DEFAULT_SYMPLECTIC_TOL = 1e-10


class ModePairTransform(NamedTuple):
    """Comb-pair Bogoliubov blocks ``[[c, s], [s*, c*]]``: one block, or a
    same-shape array of blocks."""

    c: complex | np.ndarray
    s: complex | np.ndarray

    def symplectic_defect(self):
        """|c|^2 - |s|^2 - 1 per block; zero for an exact Bogoliubov block."""
        return np.abs(self.c) ** 2 - np.abs(self.s) ** 2 - 1.0


def check_symplectic(transform: ModePairTransform,
                     tol: float = DEFAULT_SYMPLECTIC_TOL) -> bool:
    """Check the Bogoliubov condition |c|^2 - |s|^2 = 1 on every block.

    Near threshold |c| grows large, so each defect is compared against a
    tolerance scaled by |c|^2 (plain float64 cancellation floor).
    """
    if not tol > 0:
        raise ValidationError(f"tolerance must be positive, got {tol}")
    scale = np.maximum(1.0, np.abs(transform.c) ** 2)
    return bool(np.all(np.abs(transform.symplectic_defect()) <= tol * scale))


@dataclass(frozen=True)
class CavityConfig:
    """Output-coupler amplitude r and round-trip phase delta_rt + delta0.

    ``phase`` is stored reduced mod 2 pi to [-pi, pi]; the reduction is exact,
    so a phase already in that range keeps its bits.
    """

    r: float
    phase: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.r < 1.0:
            raise ValidationError(f"need 0 <= r < 1, got r={self.r}")
        if not math.isfinite(self.phase):
            raise ValidationError(
                f"delta_rt + delta0 = {self.phase} is not a finite phase")
        object.__setattr__(self, "phase",
                           -math.remainder(-self.phase, 2.0 * math.pi))

    @property
    def t(self) -> float:
        """Amplitude transmission; r^2 + t^2 = 1 exactly by construction."""
        return math.sqrt(1.0 - self.r**2)

    @classmethod
    def from_finesse(cls, finesse: float, phase: float = 0.0) -> "CavityConfig":
        if finesse <= 2.0 * math.pi:
            raise ValidationError("finesse must exceed 2 pi for 0 < r < 1")
        return cls(r=math.sqrt(1.0 - 2.0 * math.pi / finesse), phase=phase)


class ThresholdResult(NamedTuple):
    gain: float
    #: frequency-shift branch that oscillates first: 0.0 or pi
    branch_theta: float


def threshold_gain(cavity: CavityConfig) -> ThresholdResult:
    """Oscillation threshold acosh[(1+r^2) / (2 r |cos phi|)].

    The theta = 0 branch applies when the total phase is within pi/2 of an
    even multiple of pi, the theta = pi branch when within pi/2 of an odd
    multiple; exactly halfway there is no finite threshold.
    """
    if cavity.r == 0.0:
        raise NoFiniteThresholdError("r = 0: no cavity feedback, no threshold")
    cos_phase = math.cos(cavity.phase)
    if abs(cos_phase) < 1e-15:
        raise NoFiniteThresholdError(
            f"delta_rt + delta0 = {cavity.phase:.6f} is an odd multiple of "
            "pi/2")
    branch = 0.0 if cos_phase > 0 else math.pi
    gain = math.acosh((1.0 + cavity.r**2) / (2.0 * cavity.r * abs(cos_phase)))
    return ThresholdResult(gain=gain, branch_theta=branch)


def resonant_r(cavity: CavityConfig) -> float:
    """Signed round-trip amplitude of a resonant round trip.

    The round-trip amplitude r e^{i phi} is real, +r, at phi = 0 and -r at
    phi = pi (mod 2 pi), each within 1e-12 rad.
    The pulse closed forms (``spopo.pulses``) take this signed amplitude, and
    any other phase is a ``ValidationError``.
    """
    offset = abs(cavity.phase)
    if offset <= 1e-12:
        return cavity.r
    if math.pi - offset <= 1e-12:
        return -cavity.r
    raise ValidationError(
        f"round-trip phase delta_rt + delta0 = {cavity.phase:.6g} rad: the "
        "pulse closed forms need a resonant round trip (total phase 0 or pi "
        "mod 2 pi)")


def comb_io(gain, theta, cavity: CavityConfig) -> ModePairTransform:
    """Cavity input-output blocks, broadcast over gain and theta.

    Returns the coefficients of a_out(theta) = C a_in(theta) +
    S a_in^dag(-theta) for each (supermode gain, frequency shift) pair: numbers
    for scalar arguments, arrays of the broadcast shape otherwise.  Each block
    satisfies |C|^2 - |S|^2 = 1 for every theta below threshold.  A
    non-finite theta is refused (``ValidationError``).

    Raises ``AtThresholdError`` at the first point whose resolvent
    1 - r e^{i theta} T_n has a 2-norm condition number sigma_max^2 / |D| of
    at least ``CONDITION_LIMIT``, where sigma_max^2 = (F^2 +
    sqrt(F^4 - 4|D|^2)) / 2 and F^2 is its squared Frobenius norm.
    """
    gain = np.asarray(gain, dtype=float)
    if not np.all(gain >= 0):
        raise ValidationError("gain must be >= 0")
    if not np.all(np.isfinite(theta)):
        raise ValidationError("theta must be finite")
    with np.errstate(over="ignore"):
        ch, sh = np.cosh(gain), np.sinh(gain)
    if not np.all(np.isfinite(ch)):
        raise ValidationError(
            f"gain {gain.max():g} overflows the round-trip block")
    r, phase = cavity.r, cavity.phase
    up = np.exp(1j * (theta + phase))
    dn = np.exp(1j * (theta - phase))
    h = 2.0 * np.sinh(0.5 * gain) ** 2
    det = (1.0 - r * up) * (1.0 - r * dn) - r * h * (up + dn)
    frob2 = (np.abs(1.0 - r * up * ch) ** 2 + np.abs(1.0 - r * dn * ch) ** 2
             + 2.0 * (r * sh) ** 2)
    adet = np.abs(det)
    with np.errstate(divide="ignore"):
        cond = 0.5 * (frob2 + np.sqrt(np.maximum(frob2**2 - 4.0 * adet**2, 0.0))) / adet
    bad = cond >= CONDITION_LIMIT
    if np.any(bad):
        at = np.unravel_index(np.argmax(bad), bad.shape)
        g, th = (np.broadcast_to(x, bad.shape)[at] for x in (gain, theta))
        raise AtThresholdError(f"input-output map singular at theta={th:.6g} "
                               f"(g={g:.6g}, r={r:.6g})", theta=float(th))
    c = ((up - r) * (1.0 - r * dn) + h * (up + r**2 * dn)) / det
    return ModePairTransform(c, (1.0 - r**2) * up * sh / det)


@dataclass(frozen=True)
class SqueezingSpectrum:
    """Per-mode variance spectra over a theta grid.

    ``var_x`` = (|C| + |S|)^2 / 2 and ``var_p`` = (|C| - |S|)^2 / 2
    = 1 / 2(|C| + |S|)^2 (as |C|^2 - |S|^2 = 1) are the extremal
    joint-quadrature variances of the (+theta, -theta) pair: at theta = 0 on
    resonance they reduce to the single-comb p/x variances.  ``epr`` is the
    minimized two-mode EPR variance, 2 ``var_p`` since |S(-theta)| = |S(theta)|
    (a two-mode squeezed pair), and NaN at theta = 0 where the pair
    degenerates.
    """

    var_x: np.ndarray
    var_p: np.ndarray
    epr: np.ndarray


def squeezing_spectrum(gains: Sequence[float], cavity: CavityConfig,
                       theta_grid: Sequence[float]) -> SqueezingSpectrum:
    """Squeezing and pair-entanglement spectra for each supermode gain.

    All gains must lie below the oscillation threshold, and every theta must
    be finite (``comb_io`` refuses it otherwise).
    """
    gains = np.asarray(gains, dtype=float)
    thetas = np.asarray(theta_grid, dtype=float)
    if gains.size:
        threshold = threshold_gain(cavity)
        if gains.max() >= threshold.gain:
            raise AtThresholdError(
                f"max gain {gains.max():.6g} is at/above threshold "
                f"{threshold.gain:.6g}", theta=threshold.branch_theta)
    c, s = comb_io(gains[:, None], thetas, cavity)
    stretch = (np.abs(c) + np.abs(s)) ** 2
    var_p = 0.5 / stretch
    return SqueezingSpectrum(var_x=0.5 * stretch, var_p=var_p,
                             epr=np.where(thetas != 0.0, 2.0 * var_p, np.nan))
