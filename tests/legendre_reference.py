"""One-matrix dual Newton and per-node path quadrature, the references for the stacked ones.

Test-local copies of the loops that liewalk ran before its conjugate took
stacks: the damped Newton on one target at a time, and the quadrature that
takes one velocity and one legendre() call per node (a closed-form path's
velocity from its formula at one time, a sampled path's from its own
segment log, taken per matrix).  Tests compare liewalk's stacked code
with these loops bit for bit.
"""

import importlib

import numpy as np

from liewalk import OutOfDomainError
from liewalk.legendre import DIVERGENCE_NORM, GRAD_TOL, legendre
from liewalk.lie import AlgebraVector

from logm_reference import logm
from two_state_paths import ClosedFormPath2

# the module, which the package's legendre() function shadows as an attribute
legendre_module = importlib.import_module("liewalk.legendre")


def dual_newton(atom_coords: np.ndarray, log_weights: np.ndarray,
                target: np.ndarray, start: np.ndarray | None = None,
                max_iter: int = 200):
    """Maximize c . target - logsumexp(log_w + A c) by damped Newton.

    Returns (value, c, grad_norm, iterations, converged).  Diverging iterates
    (|c| beyond DIVERGENCE_NORM with the objective still climbing) report
    converged=False, which callers interpret as an infinite conjugate.
    """
    k, r = atom_coords.shape
    c = np.zeros(r) if start is None else start.copy()

    def objective(cv):
        logs = log_weights + atom_coords @ cv
        top = logs.max()
        lse = top + np.log(np.exp(logs - top).sum())
        return float(cv @ target - lse), logs - lse

    val, logp = objective(c)
    grad_norm = np.inf
    tie = 1e-14
    for it in range(1, max_iter + 1):
        p = np.exp(logp)
        grad = target - p @ atom_coords
        grad_norm = float(np.linalg.norm(grad))
        if grad_norm <= 0.01 * GRAD_TOL:
            return val, c, grad_norm, it, True
        mean = p @ atom_coords
        cov = (atom_coords * p[:, None]).T @ atom_coords - np.outer(mean, mean)
        mu = 1e-12 * max(1.0, float(np.trace(cov)) / max(r, 1))
        for _ in range(60):
            try:
                step = np.linalg.solve(cov + mu * np.eye(r), grad)
                break
            except np.linalg.LinAlgError:
                mu *= 100.0
        scale = 1.0
        improved = False
        strict = False
        for _ in range(60):
            cand = c + scale * step
            cand_val, cand_logp = objective(cand)
            # tie-tolerant: near the optimum value gains fall below float
            # resolution while the polishing step still shrinks the gradient
            if cand_val > val - tie * max(1.0, abs(val)):
                strict = cand_val > val
                c, val, logp = cand, cand_val, cand_logp
                improved = True
                break
            scale *= 0.5
        if not improved or (not strict and grad_norm <= GRAD_TOL):
            return val, c, grad_norm, it, grad_norm <= GRAD_TOL
        if np.linalg.norm(c) > DIVERGENCE_NORM:
            return val, c, grad_norm, it, False
    return val, c, grad_norm, max_iter, grad_norm <= GRAD_TOL


def reference_legendre(dist, x):
    """legendre() with the one-matrix dual Newton above in place of liewalk's."""
    saved = legendre_module._dual_newton
    legendre_module._dual_newton = dual_newton
    try:
        return legendre(dist, x)
    finally:
        legendre_module._dual_newton = saved


def logarithmic_derivative(path, t):
    """gamma(t)^-1 gamma'(t): a closed-form path's analytic formula at the one
    time t, or a SampledPath's segment log over the segment's length, each
    log taken on its own."""
    if isinstance(path, ClosedFormPath2):
        a, b = path.g1(t), path.g2(t)
        da, db = path.d1(t), path.d2(t)
        den = 1.0 - a - b
        if den <= 0:
            raise OutOfDomainError(f"path left the invertible region at t={t}")
        u1 = ((1.0 - b) * da + a * db) / den
        u2 = ((1.0 - a) * db + b * da) / den
        return AlgebraVector([[-u1, u1], [u2, -u2]])
    i = int(np.searchsorted(path.ts, t, side="right") - 1)
    i = min(max(i, 0), len(path.ts) - 2)
    step = np.linalg.solve(path.mats[i], path.mats[i + 1])
    return AlgebraVector(logm(step) / (path.ts[i + 1] - path.ts[i]))


def rate_along_path(dist, path, quad_nodes=8, subintervals=32):
    """Composite Gauss-Legendre quadrature of Lstar along the path, node by node.

    legendre() is deterministic, so a node whose velocity has the bytes of an
    earlier node's takes that node's value: a sampled path's nodes share its
    few segment velocities.
    """
    nodes, weights = np.polynomial.legendre.leggauss(quad_nodes)
    total = 0.0
    width = 1.0 / subintervals
    values = {}
    for j in range(subintervals):
        lo = j * width
        for xi, wi in zip(nodes, weights):
            t = lo + 0.5 * (xi + 1.0) * width
            u = logarithmic_derivative(path, t)
            key = u.entries.tobytes()
            if key not in values:
                values[key] = reference_legendre(dist, u).value
            val = values[key]
            if not np.isfinite(val):
                return float("inf")
            total += 0.5 * width * wi * val
    return float(total)
