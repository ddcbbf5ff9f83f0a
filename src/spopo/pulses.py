"""Closed-form pulse-train covariance matrices and their minimum-variance mode.

For N successive pulses of one supermode (coherent/vacuum input, resonant
round-trip phase), the quadrature covariances are Toeplitz: V_(j,k)^(+-) is
V^(+-)(s) at the pulse separation s = |j - k|, with t^2 = 1 - r^2,

    V^(+-)(0) = (r^2 + t^4 e^(+-2g) / (1 - r^2 e^(+-2g))) / 2,
    V^(+-)(s) = -t^2 (1 - e^(+-2g)) (r e^(+-g))^s / 2(1 - r^2 e^(+-2g)), s > 0

(+ is the amplified x quadrature, - the squeezed p quadrature), valid only on
a resonant round trip, where the round-trip amplitude r e^{i phi} is real:
r is the signed amplitude that ``cavity.resonant_r`` returns, +r at total
round-trip phase 0 and -r at pi (mod 2 pi).  The two signs differ by
D = diag((-1)^k), so sigma^2 depends on |r| alone.  The smallest eigenpair of
V^(-) is a cosine mode whose angle is the root in (0, pi/N) of

    f(theta) = cos(theta (N+1)/2) - q cos(theta (N-1)/2),    q = |r| e^{-g} < 1.

With b = theta/2 and kappa = (1 - q)/(1 + q), f = (1 - q) cos(N b) cos b -
(1 + q) sin(N b) sin b, so the same root solves

    h(b) = N b - arctan(kappa cot b) = 0,    0 < b < pi/2N,

h' = N + kappa / (sin^2 b + kappa^2 cos^2 b) > 0 and
h'' = -kappa (1 - kappa^2) sin 2b / (sin^2 b + kappa^2 cos^2 b)^2 <= 0.
Exactly one root lies in the bracket (arctan sqrt(kappa) at N = 1, i.e.
theta = arccos q): h(0+) = -pi/2, h(pi/2N) > 0.  The seed
b0 = pi / 2(N + 1/kappa) (exact for q = 0) lies at or left of it:
N b0 = pi/2 - b0/kappa turns h(b0) <= 0 into tan b0 <= kappa tan(b0/kappa),
true as tan x / x increases.  The tangent of a concave increasing h lies
above it, so Newton's iterates from b0 rise monotonically to the root without
passing it (Press et al., Numerical Recipes 9.4), quadratically once close:
6-7 passes at the paper's q, 32 at most (N = 1, q the largest float below 1).
f's two cosines cancel as q -> 1, which costs a solve on f about 1/(1 - q)
ulp; both terms of h keep their relative digits, so its root comes out within
about 2 ulp.

sigma^2 = |(|r| - e^{i theta} e^{-g}) / (1 - |r| e^{i theta} e^{-g})|^2 / 2 at
that angle has a floor of its own: |r| - e^{-g} cos theta cancels as
g -> -ln |r| and theta -> 0, so near threshold at large N it keeps fewer
digits than the angle.  Against np.longdouble of the same form at the exact
angle it is 1.4e-10 off at r = 0.8894, g = 0.99999 g_th, N = 2e7; 6.2e-12
at 0.9999 g_th; 4.8e-14 at r = 0.97, 0.9 g_th, N = 1e4: 2.8 to 21
eps / (1 - g/g_th).  Splitting the numerator as (|r| - e^{-g})^2
+ 4 |r| e^{-g} sin^2(theta/2) only takes the first to 1.0e-10, as
|r| - e^{-g} still cancels, so the direct form stays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AtThresholdError, NumericalError, ValidationError

#: Newton passes of ``min_variance_curve``; the slowest start, N = 1 at
#: kappa = 2^-54 (|r| e^-g the largest float below 1), needs 32
NEWTON_CAP = 48
_EPS = np.finfo(float).eps


def _check_below_threshold(gain: float, r: float) -> None:
    """Refuse |r| e^g > 1 (with 1e-12 slack) as ``AtThresholdError``: the
    closed forms accept g = -ln |r| itself, where only the + branch
    diverges."""
    if not gain >= 0:
        raise ValidationError("gain must be >= 0")
    if not abs(r) < 1.0:
        raise ValidationError(f"need |r| < 1, got {r}")
    q = abs(r) * math.exp(gain)
    if q > 1.0 + 1e-12:
        raise AtThresholdError(f"|r| e^g = {q:.6g} > 1: above threshold")


@dataclass(frozen=True)
class PulseCovariance:
    """Toeplitz x/p covariance matrices of N successive pulses."""

    n_pulses: int
    v_plus: np.ndarray
    v_minus: np.ndarray


def _check_counts(values, name: str) -> None:
    """Refuse pulse counts or separations that are not whole numbers >= 1."""
    v = np.asarray(values)
    if v.dtype.kind not in "iuf" or not np.all(
            (v >= 1) & (v < np.inf) & (v == np.floor(v))):
        raise ValidationError(f"{name} must be whole numbers >= 1")


def _toeplitz_entries(gain: float, r: float, sep: np.ndarray):
    """V^(+)(s) and V^(-)(s) of the module docstring on an array of pulse
    separations s = |j - k| (the diagonal value at s = 0), +inf on a
    diverging branch."""
    t2 = 1.0 - r**2
    out = []
    for sign in (+1.0, -1.0):
        e2 = math.exp(2.0 * sign * gain)
        denom = 1.0 - r**2 * e2
        if denom <= 0.0:
            out.append(np.full(sep.shape, np.inf))
            continue
        diag = 0.5 * (r**2 + t2**2 * e2 / denom)
        off = -0.5 * t2 * (1.0 - e2) / denom \
            * (r * math.exp(sign * gain)) ** sep
        out.append(np.where(sep == 0, diag, off))
    return out[0], out[1]


def covariance(gain: float, r: float, n_pulses: int) -> PulseCovariance:
    """Exact pulse covariance matrices V^(+-)(N) for the signed round-trip
    amplitude r: ``_toeplitz_entries`` on the |j - k| grid, valid up to and
    including g = -ln |r|, where V^(+) diverges and is reported as +inf."""
    _check_below_threshold(gain, r)
    _check_counts(n_pulses, "n_pulses")
    idx = np.arange(n_pulses)
    return PulseCovariance(n_pulses, *_toeplitz_entries(
        gain, r, np.abs(idx[:, None] - idx[None, :])))


@dataclass(frozen=True)
class MinVarianceSolution:
    """Smallest eigenpair of V^(-)(N) and its cosine-mode angle
    ``theta_sol`` in (0, pi/N) (arccos(|r| e^{-g}) at N = 1)."""

    sigma2: float
    eigvec: np.ndarray
    theta_sol: float


def _variance_at_angle(gain: float, r: float, theta):
    z_num = r - np.exp(1j * theta) * math.exp(-gain)
    z_den = 1.0 - r * np.exp(1j * theta) * math.exp(-gain)
    return 0.5 * abs(z_num / z_den) ** 2


def sigma2_limit(gain: float, r: float) -> float:
    """Large-N limit of the minimum variance: p-quadrature variance of the
    squeezed comb at zero shift, (1/2) [(|r| - e^-g) / (1 - |r| e^-g)]^2."""
    _check_below_threshold(gain, r)
    return _variance_at_angle(gain, abs(r), 0.0)


def min_variance_curve(gain: float, r: float,
                       n_pulses) -> tuple[np.ndarray, np.ndarray]:
    """Smallest eigenvalue of V^(-)(N) and its cosine-mode angle for an array
    of N; both depend on |r| alone.

    The angle is 2b for the root b of h (module docstring), by Newton from
    b0 = pi / 2(N + 1/kappa), each iterate clipped to [b0, pi/2N].  An N
    stops once its step reaches the rounding floor: 4 eps b, or a step no
    shorter than the one before when that one was below sqrt(eps) b.  Every
    N runs its own iteration, so its result does not depend on the other N
    of the call.  An N still moving after ``NEWTON_CAP`` passes raises
    ``NumericalError``.
    """
    _check_below_threshold(gain, r)
    r = abs(r)
    shape = np.shape(n_pulses)
    # numpy's complex abs rounds a 0-d input apart from a 1-d array (last
    # bit), so every call, scalar or not, runs on one 1-d array
    n = np.ravel(n_pulses)
    _check_counts(n, "n_pulses")
    q = r * math.exp(-gain)
    kappa = (1.0 - q) / (1.0 + q)
    seed = 0.5 * math.pi / (n + 1.0 / kappa)
    top = 0.5 * math.pi / n
    b, last = seed.copy(), np.full(n.shape, np.inf)
    # indices of the N still moving; each pass works on those alone
    active = np.arange(n.size)
    for _ in range(NEWTON_CAP):
        na, ba = n[active], b[active]
        sin, cos = np.sin(ba), np.cos(ba)
        h = na * ba - np.arctan2(kappa * cos, sin)
        slope = na + kappa / (sin * sin + (kappa * cos) ** 2)
        new = np.clip(ba - h / slope, seed[active], top[active])
        size = np.abs(new - ba)
        b[active] = new
        prev = last[active]
        last[active] = size
        active = active[(size > 4.0 * _EPS * new)
                        & ((size < prev) | (prev > math.sqrt(_EPS) * new))]
        if not active.size:
            break
    else:
        raise NumericalError(
            f"quantized angle still moving after {NEWTON_CAP} Newton passes")
    theta = 2.0 * b
    return (_variance_at_angle(gain, r, theta).reshape(shape),
            theta.reshape(shape))


def min_variance_transcendental(gain: float, r: float,
                                n_pulses: int) -> MinVarianceSolution:
    """Semi-analytic smallest eigenpair of V^(-)(N).

    Scalar view of ``min_variance_curve`` that adds the eigenvector: its
    entries are cos[theta (N - 2k - 1)/2], normalized, and the variance
    follows from the closed form at the quantized angle theta.

    A negative r is handled through the exact similarity
    V(-r) = D V(|r|) D, D = diag((-1)^k): same spectrum, alternating signs on
    the eigenvector, so the quantization is always solved with |r|.
    """
    sigma2, theta = min_variance_curve(gain, r, n_pulses)
    k = np.arange(n_pulses)
    vec = np.cos(0.5 * theta * (n_pulses - 2 * k - 1))
    if r < 0:
        vec = vec * (-1.0) ** k
    vec = vec / np.linalg.norm(vec)
    if vec[(n_pulses - 1) // 2] < 0:
        vec = -vec
    return MinVarianceSolution(sigma2=float(sigma2), eigvec=vec,
                               theta_sol=float(theta))


def duan_sum(gain: float, r: float, separations):
    """Duan separability witness Var(x_j - x_k) + Var(p_j + p_k) of two pulses
    s = |j - k| apart at the signed round-trip amplitude r, broadcast over s.

    Separable states satisfy >= 2 in this convention (vacuum gives exactly 2);
    smaller values certify entanglement of the pulse pair.
    """
    _check_below_threshold(gain, r)
    _check_counts(separations, "separations")
    v_plus, v_minus = _toeplitz_entries(gain, r, np.append(0, separations))
    sums = (v_plus[0] + v_plus[0] - 2.0 * v_plus[1:]) \
        + (v_minus[0] + v_minus[0] + 2.0 * v_minus[1:])
    shape = np.shape(separations)
    return sums.reshape(shape) if shape else float(sums[0])
