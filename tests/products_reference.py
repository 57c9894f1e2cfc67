"""Partial products step by step, the references for the doubling scan.

``partial_products`` is a test-local copy of the per-step loop that
liewalk._kernels ran before its partial products became a doubling scan,
and ``matmul_scan`` a copy of that scan of stacked matmuls, which
liewalk._kernels keeps for every stack but long 2x2 unit-row-sum chains.
``stoch2_partial_products_longdouble`` is the same chain of 2x2 unit-row-sum
steps carried in long double (64-bit mantissa on x86-64) through the affine
map of the product's first column, so its own rounding is about 2^11 times
finer than either float64 kernel's.
"""

import numpy as np


def partial_products(steps: np.ndarray) -> np.ndarray:
    """Cumulative left-to-right products; out[0] = I, out[k] = out[k-1] @ steps[k-1]."""
    steps = np.ascontiguousarray(steps, dtype=np.float64)
    n, d, _ = steps.shape
    out = np.empty((n + 1, d, d))
    out[0] = np.eye(d)
    for k in range(n):
        out[k + 1] = out[k] @ steps[k]
    return out


def matmul_scan(steps: np.ndarray) -> np.ndarray:
    """Cumulative left-to-right products by the doubling scan of stacked matmuls."""
    steps = np.asarray(steps, dtype=np.float64)
    n, d, _ = steps.shape
    out = np.empty((n + 1, d, d))
    out[0] = np.eye(d)
    out[1:] = steps
    off = 1
    while off < n:
        out[1 + off:] = out[1:-off] @ out[1 + off:]
        off *= 2
    return out


def stoch2_partial_products_longdouble(steps: np.ndarray) -> np.ndarray:
    """Partial products of a (n, 2, 2) unit-row-sum stack, in long double.

    Right-multiplying a unit-row-sum P by S maps each entry x of P's first
    column to a x + b, with a = S00 - S10 and b = S10; the second column is
    1 minus the first.
    """
    s = np.asarray(steps, dtype=np.longdouble)
    a = s[:, 0, 0] - s[:, 1, 0]
    b = s[:, 1, 0]
    col = np.empty((len(s) + 1, 2), dtype=np.longdouble)
    x0, x1 = np.longdouble(1.0), np.longdouble(0.0)
    col[0] = (x0, x1)
    for k in range(len(s)):
        x0 = x0 * a[k] + b[k]
        x1 = x1 * a[k] + b[k]
        col[k + 1, 0] = x0
        col[k + 1, 1] = x1
    out = np.empty((len(s) + 1, 2, 2), dtype=np.longdouble)
    out[:, :, 0] = col
    out[:, :, 1] = 1.0 - col
    return out


def stoch2_products(step_mats: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """prod_j step_mats[idx[s, j]] for 2x2 unit-row-sum steps, one step at a time.

    The gather-then-compose kernel that liewalk._kernels ran before its block
    table: every step's affine map (a, b) = (S00 - S10, S10) of the first
    column is gathered, and ``compose_pairwise`` reduces each row.
    """
    step_mats = np.ascontiguousarray(step_mats, dtype=np.float64)
    atom_a = step_mats[:, 0, 0] - step_mats[:, 1, 0]
    atom_b = step_mats[:, 1, 0]
    a, b = compose_pairwise(atom_a[idx], atom_b[idx])
    out = np.empty((len(idx), 2, 2))
    out[:, 0, 0] = a + b
    out[:, 1, 0] = b
    out[:, :, 1] = 1.0 - out[:, :, 0]
    return out


def compose_pairwise(a: np.ndarray, b: np.ndarray):
    """Compose each row's affine maps left to right, pairwise: log2(n) passes."""
    while a.shape[1] > 1:
        m = a.shape[1]
        a_r = a[:, 1::2]
        b_next = b[:, 0:m - 1:2] * a_r + b[:, 1::2]
        a_next = a[:, 0:m - 1:2] * a_r
        if m % 2:
            b_next[:, -1] = b_next[:, -1] * a[:, -1] + b[:, -1]
            a_next[:, -1] *= a[:, -1]
        a, b = a_next, b_next
    return a[:, 0], b[:, 0]
