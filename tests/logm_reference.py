"""Per-matrix principal logarithm, the reference for the stacked one.

A test-local copy of the single-matrix loops that liewalk.lie ran before its
logarithm took stacks: Denman-Beavers square roots, one matrix at a time,
until ||g - I||_F < 0.25, then a Mercator series stopped by its tail bound.
Tests compare liewalk's stacked log with these loops bit for bit, message
for message.
"""

import numpy as np

from liewalk.errors import NonConvergenceError, OutOfDomainError


def sqrtm_db(a: np.ndarray, max_iter: int = 80, tol: float = 1e-14) -> np.ndarray:
    """Principal square root by Denman-Beavers iteration."""
    y = a.copy()
    z = np.eye(a.shape[0])
    for _ in range(max_iter):
        try:
            yi = np.linalg.inv(y)
            zi = np.linalg.inv(z)
        except np.linalg.LinAlgError as exc:
            raise OutOfDomainError(f"square root iteration hit a singular iterate: {exc}")
        y_next = 0.5 * (y + zi)
        z_next = 0.5 * (z + yi)
        delta = np.linalg.norm(y_next - y)
        y, z = y_next, z_next
        if delta <= tol * max(1.0, np.linalg.norm(y)):
            return y
        if not np.all(np.isfinite(y)):
            raise OutOfDomainError("square root iteration diverged (matrix outside principal-log domain)")
    raise NonConvergenceError("Denman-Beavers square root did not converge")


def logm(g: np.ndarray, max_sqrt: int = 60) -> np.ndarray:
    """Principal logarithm of one matrix; OutOfDomainError outside its domain."""
    a = g.copy()
    d = g.shape[0]
    ident = np.eye(d)
    k = 0
    while np.linalg.norm(a - ident) >= 0.25:
        if k >= max_sqrt:
            raise OutOfDomainError(
                "matrix logarithm: square-root reduction did not contract "
                f"(||g - I|| = {np.linalg.norm(a - ident):.3e} after {k} roots)")
        try:
            a = sqrtm_db(a)
        except NonConvergenceError as exc:
            raise OutOfDomainError(f"matrix outside the principal-log domain: {exc}")
        k += 1
    e = a - ident
    norm_e = np.linalg.norm(e)
    # Mercator series log(I + E) = sum (-1)^{m+1} E^m / m, tail bound
    # ||tail_M|| <= ||E||^{M+1} / ((M+1)(1 - ||E||))
    total = e.copy()
    term = e.copy()
    m = 1
    while True:
        m += 1
        term = term @ e
        total += ((-1.0) ** (m + 1) / m) * term
        tail = norm_e ** (m + 1) / ((m + 1) * (1.0 - norm_e))
        if tail < 1e-17 or m > 80:
            break
    return total * (2.0 ** k)
