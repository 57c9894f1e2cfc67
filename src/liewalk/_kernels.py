"""Hot numeric kernels on stacks of matrices, in numpy.

``partial_products`` and ``indexed_products`` multiply step matrices in
left-to-right order; ``stoch2_log_norms`` takes principal-log norms of 2x2
unit-row-sum matrices in closed form.  ``partial_products`` is one doubling
scan of stacked matmuls for every matrix size.  Its rounding is not the
per-step chain's, but about as large: on the two-state walk at n = 200,000
both lie within 9e-13 of a long-double recurrence.  For 2x2 step matrices
``indexed_products`` composes affine maps of the product's first column by
pairwise reduction, which agrees with the stacked matmul chain to about
1e-15 per step; larger step matrices take one stacked matmul per step.
"""

import numpy as np

from .errors import InvalidArgumentError
from .lie import MEMBERSHIP_TOL

__all__ = [
    "partial_products",
    "indexed_products",
    "stoch2_log_norms",
]


# ---------------------------------------------------------------------------
# partial products of a single chain of step matrices

def partial_products(steps: np.ndarray) -> np.ndarray:
    """Cumulative left-to-right products of a (n, d, d) stack, as (n + 1, d, d).

    out[0] = I and out[k] = steps[0] @ ... @ steps[k-1].  A doubling scan
    (Hillis and Steele, 1986): after the pass at offset off, out[k] holds the
    product of the last min(k, 2 off) steps up to k, so ceil(log2 n) stacked
    matmuls cover every prefix.  Nothing is divided, so large steps do not
    overflow a quotient.
    """
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


# ---------------------------------------------------------------------------
# batched endpoint products for Monte Carlo: one product chain per sample

def indexed_products(step_mats: np.ndarray, idx: np.ndarray,
                     left: np.ndarray) -> np.ndarray:
    """Endpoint of left @ prod_j step_mats[idx[s, j]] for every sample s.

    2x2 step matrices must have unit row sums within MEMBERSHIP_TOL; their
    products come from ``_stoch2_products``.  Larger ones take one stacked
    product per step, vectorized across samples.
    """
    step_mats = np.ascontiguousarray(step_mats, dtype=np.float64)
    left = np.ascontiguousarray(left, dtype=np.float64)
    idx = np.ascontiguousarray(idx)
    if step_mats.shape[-1] == 2:
        return left @ _stoch2_products(step_mats, idx)
    n_samples, n_steps = idx.shape
    out = np.broadcast_to(left, (n_samples,) + left.shape).copy()
    for j in range(n_steps):
        out = out @ step_mats[idx[:, j]]
    return out


# A 2x2 unit-row-sum matrix is fixed by its first column, and
# (P S)[:, 0] = P[:, 0] (S00 - S10) + S10: right-multiplying by S is the
# affine map x -> a x + b with a = S00 - S10, b = S10, applied to both
# entries of the column.  Maps compose as (a_l, b_l) then (a_r, b_r) =
# (a_l a_r, b_l a_r + b_r), and the identity's column is (1, 0), so the
# product of a chain is [[A + B, 1 - A - B], [B, 1 - B]] for its composed
# map (A, B).

_CHUNK_ELEMENTS = 1 << 20   # gathered maps per chunk of samples (8 MB each for a, b)


def _stoch2_products(step_mats: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """prod_j step_mats[idx[s, j]] for every sample s, for 2x2 unit-row-sum steps."""
    row_err = np.abs(step_mats.sum(axis=-1) - 1.0).max()
    if not row_err <= MEMBERSHIP_TOL:
        raise InvalidArgumentError(
            f"2x2 step matrices need unit row sums; off by {row_err:.3g}")
    atom_a = step_mats[:, 0, 0] - step_mats[:, 1, 0]
    atom_b = step_mats[:, 1, 0]
    n_samples, n_steps = idx.shape
    out = np.empty((n_samples, 2, 2))
    rows = max(1, _CHUNK_ELEMENTS // n_steps)
    for start in range(0, n_samples, rows):
        part = idx[start:start + rows]
        a, b = _compose(atom_a[part], atom_b[part])
        p = out[start:start + rows]
        p[:, 0, 0] = a + b
        p[:, 1, 0] = b
        p[:, :, 1] = 1.0 - p[:, :, 0]
    return out


def _compose(a: np.ndarray, b: np.ndarray):
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
