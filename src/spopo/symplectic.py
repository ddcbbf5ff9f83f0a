"""Two-by-two Bogoliubov blocks for comb pairs and Gaussian covariance propagation.

A lossless pair transform mixes the annihilation operator of one comb with the
creation operator of its partner,

    b = c a  +  s a_partner^dag,

and is represented by the block ``[[c, s], [s*, c*]]``.  Preserving the
commutation relations requires ``|c|^2 - |s|^2 = 1``; for scalar blocks the
cross commutator ``[b, b_partner]`` vanishes identically, so that single
condition is the whole symplectic constraint.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

DEFAULT_SYMPLECTIC_TOL = 1e-10

#: vacuum variance of each quadrature, x = (a + a^dag)/sqrt(2)
VACUUM_VARIANCE = 0.5


@dataclass(frozen=True)
class ModePairTransform:
    """One comb-pair Bogoliubov block ``[[c, s], [s*, c*]]``."""

    c: complex
    s: complex

    def symplectic_defect(self) -> float:
        """|c|^2 - |s|^2 - 1; zero for an exact Bogoliubov block."""
        return abs(self.c) ** 2 - abs(self.s) ** 2 - 1.0


def check_symplectic(transform: ModePairTransform,
                     tol: float = DEFAULT_SYMPLECTIC_TOL) -> bool:
    """Check the Bogoliubov condition |c|^2 - |s|^2 = 1.

    Near threshold |c| grows large, so the defect is compared against a
    tolerance scaled by |c|^2 (plain float64 cancellation floor).
    """
    if tol <= 0:
        raise ValidationError("tolerance must be positive")
    scale = max(1.0, abs(transform.c) ** 2)
    return abs(transform.symplectic_defect()) <= tol * scale


def compose(first: ModePairTransform, second: ModePairTransform,
            tol: float = DEFAULT_SYMPLECTIC_TOL) -> ModePairTransform:
    """Block product ``first @ second`` (apply ``second`` first).

    Both operands must be symplectic; the block structure is closed under
    multiplication, so the result is again a valid pair transform.
    """
    for t in (first, second):
        if not check_symplectic(t, tol):
            raise ValidationError(
                f"operand is not symplectic: defect {t.symplectic_defect():.3e}")
    c1, s1 = first.c, first.s
    c2, s2 = second.c, second.s
    return ModePairTransform(c=c1 * c2 + s1 * np.conj(s2),
                             s=c1 * s2 + s1 * np.conj(c2))


def quadrature_matrix(transform: ModePairTransform) -> np.ndarray:
    """Real 2x2 action on (x, p) for the degenerate (self-paired) case.

    det equals |c|^2 - |s|^2, i.e. 1 for a symplectic block.
    """
    c, s = transform.c, transform.s
    return np.array([
        [np.real(c + s), -np.imag(c - s)],
        [np.imag(c + s), np.real(c - s)],
    ])


def output_covariance(transform: ModePairTransform) -> tuple[float, float, float]:
    """Quadrature covariance (var_x, var_p, cov) of the output mode for a
    vacuum input.

    The identity gives (1/2, 1/2, 0); a real squeezing block c = cosh g,
    s = sinh g gives var_p = e^{-2g}/2.
    """
    m = quadrature_matrix(transform)
    v = VACUUM_VARIANCE * (m @ m.T)
    return float(v[0, 0]), float(v[1, 1]), float(v[0, 1])


def minimum_quadrature_variance(transform: ModePairTransform) -> float:
    """Smallest output quadrature variance over all homodyne angles for a
    vacuum input: (|c| - |s|)^2 / 2; the conjugate maximum is (|c| + |s|)^2 / 2.

    Written as 1 / 2(|c| + |s|)^2, which holds for a symplectic block
    (|c|^2 - |s|^2 = 1) and keeps its digits where |c| - |s| would cancel.
    """
    return VACUUM_VARIANCE / (abs(transform.c) + abs(transform.s)) ** 2
