"""Closed-form paths of the equal-rate two-state model, for the tests.

A finite-cost path to g has velocity p(t) A + (1 - p(t)) B, A and B the
model's atoms.  ClosedFormPath2 evaluates such a path from its off-diagonal
entries and their derivatives; rate_along_path takes it, as it takes a
SampledPath, through _velocities.  constant_split_path fixes the split at
M12 : M21: its cost is an upper bound on the rate, 6.6-8.2% above the
minimum at acceptance criterion 5's off-mean endpoints, and the minimum only
at M12 = M21.  minimizing_path_s2 is the cost minimizer.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.optimize import brentq

from liewalk import AlgebraVector, GroupElement, InvalidArgumentError, logarithmic_derivative
from liewalk.lie import _expm


def line_endpoint(c, alpha=1.0):
    """Group endpoint exp(u) with constant-split velocity u on the finiteness line."""
    u = np.array([[-c * alpha, c * alpha], [(1 - c) * alpha, -(1 - c) * alpha]])
    return GroupElement(_expm(u)), AlgebraVector(u)


@dataclass(frozen=True, eq=False)
class ClosedFormPath2:
    """Two-state group path [[1 - g1, g1], [g2, 1 - g2]] with analytic derivatives;
    each callable takes an array of times (a scalar return stands for every time)."""

    g1: Callable[[np.ndarray], np.ndarray]
    g2: Callable[[np.ndarray], np.ndarray]
    d1: Callable[[np.ndarray], np.ndarray]
    d2: Callable[[np.ndarray], np.ndarray]

    def point(self, t: float) -> np.ndarray:
        a, b = self.g1(t), self.g2(t)
        return np.array([[1.0 - a, a], [b, 1.0 - b]])

    def log_derivative(self, t: float) -> AlgebraVector:
        return logarithmic_derivative(self, t)

    def _velocities(self, ts: np.ndarray) -> np.ndarray:
        """gamma^-1 gamma' at every t of ts: the (n, 2, 2) stack, NaN on the
        rows where the path leaves the invertible region (1 - g1 - g2 <= 0)."""
        a, b, da, db = (np.broadcast_to(f(ts), ts.shape)
                        for f in (self.g1, self.g2, self.d1, self.d2))
        den = 1.0 - a - b
        den = np.where(den > 0, den, np.nan)
        u1 = ((1.0 - b) * da + a * db) / den
        u2 = ((1.0 - a) * db + b * da) / den
        return np.stack([-u1, u1, u2, -u2], axis=-1).reshape(-1, 2, 2)


def constant_split_path(alpha, g):
    """The path with gamma_12(t) = (M12 / (1 - e^-a)) (1 - e^-at).

    Requires M12 + M21 = 1 - e^-alpha within 1e-9; its velocity splits the
    off-diagonal transfer in the fixed ratio M12 : M21 while the total obeys
    psi' = alpha (1 - psi).
    """
    m12, m21 = float(g.entries[0, 1]), float(g.entries[1, 0])
    s = 1.0 - np.exp(-alpha)
    if abs(m12 + m21 - s) > 1e-9:
        raise InvalidArgumentError(
            f"infeasible endpoint: M12 + M21 = {m12 + m21:.12f} != 1 - e^-alpha = {s:.12f}")
    c1, c2 = m12 / s, m21 / s

    def psi(t): return 1.0 - np.exp(-alpha * t)
    def dpsi(t): return alpha * np.exp(-alpha * t)

    return ClosedFormPath2(
        g1=lambda t: c1 * psi(t), g2=lambda t: c2 * psi(t),
        d1=lambda t: c1 * dpsi(t), d2=lambda t: c2 * dpsi(t))


def minimizing_path_s2(alpha, g):
    """The cost-minimizing path from I to g for the equal-rate two-state model.

    A finite-cost path has velocity p(t) A + (1 - p(t)) B and reaches
    M12 = int_0^1 alpha e^{-alpha (1 - t)} p(t) dt.  The cost int h(p) dt,
    h(p) = p log p + (1 - p) log(1 - p) + log 2, is convex and the constraint
    linear, so the minimizer solves h'(p(t)) = lambda alpha e^{-alpha (1 - t)}:
    p = sigmoid(v) with v(t) = lambda alpha e^{-alpha (1 - t)}.  With
    sp(v) = log(1 + e^v) the flow integrates in closed form, and lambda is the
    root of g1(1) = M12, which is increasing in lambda and has the sign of
    M12 - M21.  The bracket covers 1e-3 <= |lambda| <= 1e2; at M12 = M21 the
    root is lambda = 0 and the constant split is already the minimizer.
    """
    m12, m21 = float(g.entries[0, 1]), float(g.entries[1, 0])

    def sp(v):
        return np.logaddexp(0.0, v)

    decay = np.exp(-alpha)
    lam = brentq(lambda lam: (sp(lam * alpha) - sp(lam * alpha * decay))
                 / (lam * alpha) - m12,
                 *sorted(np.sign(m12 - m21) * np.array([1e-3, 1e2])), xtol=1e-15)

    def v(t):
        return lam * alpha * np.exp(-alpha * (1 - t))

    def scale(t):
        return np.exp(alpha * (1 - t)) / (lam * alpha)

    v0 = v(0.0)

    def g1(t):
        return scale(t) * (sp(v(t)) - sp(v0))

    def g2(t):
        return scale(t) * (sp(-v0) - sp(-v(t)))

    def p(t):
        return 1.0 / (1.0 + np.exp(-v(t)))

    return ClosedFormPath2(
        g1=g1, g2=g2,
        d1=lambda t: alpha * (p(t) - g1(t)),
        d2=lambda t: alpha * (1 - p(t) - g2(t)))


def theta_split_path(alpha=1.0, amp=0.3, omega=2 * np.pi):
    """Finite-rate path whose velocity split oscillates: a genuinely
    non-geodesic curve (the off-diagonal transfer still obeys the total-flow
    law, so the conjugate stays finite along it)."""

    def trig_integral(t):
        # int_0^t e^{-alpha s} sin(omega s) ds
        return (omega - np.exp(-alpha * t) * (alpha * np.sin(omega * t)
                                              + omega * np.cos(omega * t))) \
            / (alpha ** 2 + omega ** 2)

    def g1(t):
        return 0.5 * (1 - np.exp(-alpha * t)) + amp * alpha * trig_integral(t)

    def g2(t):
        return 0.5 * (1 - np.exp(-alpha * t)) - amp * alpha * trig_integral(t)

    def d1(t):
        return (0.5 + amp * np.sin(omega * t)) * alpha * np.exp(-alpha * t)

    def d2(t):
        return (0.5 - amp * np.sin(omega * t)) * alpha * np.exp(-alpha * t)

    return ClosedFormPath2(g1=g1, g2=g2, d1=d1, d2=d2)


def vertex_path(alpha=1.0):
    """gamma(t) = exp(t A): all transfer through the first state."""
    return ClosedFormPath2(
        g1=lambda t: 1 - np.exp(-alpha * t), g2=lambda t: 0.0,
        d1=lambda t: alpha * np.exp(-alpha * t), d2=lambda t: 0.0)
