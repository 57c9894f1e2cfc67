"""Hot numeric kernels on stacks of matrices, in numpy.

``partial_products`` and ``indexed_products`` multiply step matrices in
left-to-right order; ``stoch2_log_norms`` takes principal-log norms of 2x2
unit-row-sum matrices in closed form.  Each kernel has one implementation.
"""

import numpy as np

__all__ = [
    "partial_products",
    "indexed_products",
    "stoch2_log_norms",
]


# ---------------------------------------------------------------------------
# sequential partial products of a single chain of step matrices

def partial_products(steps: np.ndarray) -> np.ndarray:
    """Cumulative left-to-right products; out[0] = I, out[k] = out[k-1] @ steps[k-1]."""
    steps = np.ascontiguousarray(steps, dtype=np.float64)
    n, d, _ = steps.shape
    out = np.empty((n + 1, d, d))
    out[0] = np.eye(d)
    for k in range(n):
        out[k + 1] = out[k] @ steps[k]
    return out


# ---------------------------------------------------------------------------
# batched endpoint products for Monte Carlo: one product chain per sample

def indexed_products(step_mats: np.ndarray, idx: np.ndarray,
                     left: np.ndarray) -> np.ndarray:
    """Endpoint of left @ prod_j step_mats[idx[s, j]] for every sample s.

    Vectorized across samples, one stacked product per step.
    """
    step_mats = np.ascontiguousarray(step_mats, dtype=np.float64)
    left = np.ascontiguousarray(left, dtype=np.float64)
    idx = np.ascontiguousarray(idx)
    n_samples, n_steps = idx.shape
    out = np.broadcast_to(left, (n_samples,) + left.shape).copy()
    for j in range(n_steps):
        out = out @ step_mats[idx[:, j]]
    return out


# ---------------------------------------------------------------------------
# principal-log Frobenius norms for batches of 2x2 unit-row-sum matrices
#
# A 2x2 matrix M with unit row sums has eigenvalues {1, s} with
# s = tr(M) - 1, and its principal logarithm (defined iff s > 0) is the
# polynomial log(M) = log(s)/(s - 1) * (M - I).  Entries outside the log
# domain get +inf.

def _log_factor(s: np.ndarray) -> np.ndarray:
    e = s - 1.0
    small = np.abs(e) < 1e-6
    # series of log(1+e)/e for tiny e; full expression elsewhere
    with np.errstate(divide="ignore", invalid="ignore"):
        f = np.where(small,
                     1.0 - e / 2.0 + e * e / 3.0 - e * e * e / 4.0,
                     np.log(np.where(s > 0, s, 1.0)) / np.where(small, 1.0, e))
    return f


def stoch2_log_norms(mats: np.ndarray) -> np.ndarray:
    """Frobenius norms of the principal logs of a (n, 2, 2) stack."""
    mats = np.ascontiguousarray(mats, dtype=np.float64)
    s = mats[:, 0, 0] + mats[:, 1, 1] - 1.0
    f = _log_factor(s)
    e00 = mats[:, 0, 0] - 1.0
    e01 = mats[:, 0, 1]
    e10 = mats[:, 1, 0]
    e11 = mats[:, 1, 1] - 1.0
    sq = e00 * e00 + e01 * e01 + e10 * e10 + e11 * e11
    out = np.abs(f) * np.sqrt(sq)
    out = np.where(s > 0, out, np.inf)
    return out
