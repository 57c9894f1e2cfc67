"""Hot numeric kernels on stacks of matrices, in numpy.

``partial_products`` and ``indexed_products`` multiply step matrices in
left-to-right order; ``stoch2_log_norms`` takes principal-log norms of 2x2
unit-row-sum matrices in closed form.  ``partial_products`` is one doubling
scan of stacked matmuls for every matrix size.  Its rounding is not the
per-step chain's, but about as large: on the two-state walk at n = 200,000
both lie within 9e-13 of a long-double recurrence.  For 2x2 step matrices
``indexed_products`` composes affine maps of the product's first column by
pairwise reduction, which agrees with the stacked matmul chain to about
1e-15 per step.  For a two-atom law it reads each sample's aligned blocks
of 8 steps as one byte into a table of the 256 composed block maps, built
by the same reduction, so its products are bit for bit those of the
reduction over single steps and the 1e-15 per step tolerance stands.
Larger step matrices take one stacked matmul per step.
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

    idx must hold integers in [0, k) for k step matrices.  2x2 step matrices
    must have unit row sums within MEMBERSHIP_TOL; their products come from
    ``_stoch2_products``.  Larger ones take one stacked product per step,
    vectorized across samples.
    """
    step_mats = np.ascontiguousarray(step_mats, dtype=np.float64)
    left = np.ascontiguousarray(left, dtype=np.float64)
    idx = np.ascontiguousarray(idx)
    if not np.issubdtype(idx.dtype, np.integer):
        raise InvalidArgumentError(f"atom indices must be integers, not {idx.dtype}")
    if idx.size and not (0 <= idx.min() and idx.max() < len(step_mats)):
        raise InvalidArgumentError(
            f"atom indices must lie in [0, {len(step_mats)}); "
            f"got [{idx.min()}, {idx.max()}]")
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
#
# A two-atom law has only 256 distinct blocks of 8 steps.  One table holds
# the composed map of every block, and each sample's aligned blocks gather
# from it through one code each: `np.packbits` reads a block's atom indices
# as a byte, first step most significant, and the table's rows are the bits
# of their code in the same order.  The table composes its rows with
# `_compose` itself, so the first three passes of `_compose` over a whole
# chain do exactly the table's arithmetic on each aligned block.  The last
# block and the n mod 8 leftover steps are composed together by `_compose`,
# which folds the odd ends as the pass over the whole chain would.  Every
# product is therefore bit for bit the pairwise reduction's over single
# steps, with one gather per eight steps.  Other laws, and chains shorter
# than a block, gather one map per step.

# Samples are taken in chunks of about _CHUNK_ELEMENTS steps; a chunk's
# gathered maps take 8 MB each for a and b, or 1 MB with the block table.
_CHUNK_ELEMENTS = 1 << 20
_BLOCK = 8          # steps per table entry: one packed byte of two-atom indices


def _stoch2_products(step_mats: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """prod_j step_mats[idx[s, j]] for every sample s, for 2x2 unit-row-sum steps.

    Entries of idx must lie in [0, k), as indexed_products checks: packbits
    reads any nonzero entry as 1.
    """
    row_err = np.abs(step_mats.sum(axis=-1) - 1.0).max()
    if not row_err <= MEMBERSHIP_TOL:
        raise InvalidArgumentError(
            f"2x2 step matrices need unit row sums; off by {row_err:.3g}")
    atom_a = step_mats[:, 0, 0] - step_mats[:, 1, 0]
    atom_b = step_mats[:, 1, 0]
    n_samples, n_steps = idx.shape
    if n_steps == 0:
        return np.broadcast_to(np.eye(2), (n_samples, 2, 2)).copy()
    blocked = len(step_mats) == 2 and n_steps >= _BLOCK
    if blocked:
        bits = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1)
        table_a, table_b = _compose(atom_a[bits], atom_b[bits])
        whole, leftover = divmod(n_steps, _BLOCK)
    out = np.empty((n_samples, 2, 2))
    rows = max(1, _CHUNK_ELEMENTS // n_steps)
    for start in range(0, n_samples, rows):
        part = idx[start:start + rows]
        if blocked:
            codes = np.packbits(part, axis=1)[:, :whole]
            a, b = np.take(table_a, codes), np.take(table_b, codes)
            if leftover:
                last = part[:, (whole - 1) * _BLOCK:]
                a[:, -1], b[:, -1] = _compose(atom_a[last], atom_b[last])
        else:
            a, b = atom_a[part], atom_b[part]
        a, b = _compose(a, b)
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
