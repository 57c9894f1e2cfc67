"""One-matrix exponential, the reference for the stacked one.

A test-local copy of the one-matrix branch that liewalk.lie._expm ran before
one matrix became a one-row stack: scaling and squaring with a degree-7 Pade
core, the squaring count chosen so the scaled Frobenius norm is below 0.5.
Tests compare liewalk's exponential with it bit for bit.
"""

import numpy as np

PADE7 = (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0, 1.0)


def pade7(x: np.ndarray) -> np.ndarray:
    ident = np.eye(x.shape[-1])
    x2 = x @ x
    x4 = x2 @ x2
    x6 = x4 @ x2
    b = PADE7
    u = x @ (b[7] * x6 + b[5] * x4 + b[3] * x2 + b[1] * ident)
    v = b[6] * x6 + b[4] * x4 + b[2] * x2 + b[0] * ident
    return np.linalg.solve(v - u, v + u)


def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential of one matrix."""
    norm = np.linalg.norm(a)
    s = 0
    if norm >= 0.5:
        s = int(np.ceil(np.log2(norm / 0.5)))
    r = pade7(a / (2.0 ** s))
    for _ in range(s):
        r = r @ r
    return r
