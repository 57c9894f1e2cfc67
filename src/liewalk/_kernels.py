"""Hot numeric kernels on stacks of matrices, in numpy.

``partial_products`` and ``indexed_products`` multiply step matrices in
left-to-right order; ``stoch2_logs`` and ``stoch2_log_norms`` take the
principal logs of 2x2 unit-row-sum matrices, and their norms, in closed
form; ``displacements`` divides consecutive points of a stack, a 2x2 one by
the explicit inverse.  Both product kernels treat a 2x2
unit-row-sum step as the affine map x -> a x + b of the product's first
column; the composition rule and the rebuild of a matrix from its composed
map are written once, in ``_chain`` and ``_stoch2_matrices``.

``partial_products`` is a doubling scan.  From 128 steps on, a 2x2
unit-row-sum chain scans its affine maps: each pass is three flat float64
operations, and on the two-state walk at n = 200,000 it lies within
8.4e-13 of a long-double recurrence (at rates 700 and n = 100,000 within
1e-15).  Every other stack, shorter 2x2 chains included, takes the scan of
stacked matmuls, whose rounding is not the per-step chain's but about as
large (within 9e-13 at n = 200,000, 6.6e-12 at rates 700).  For 2x2 step
matrices ``indexed_products`` composes the affine maps by pairwise
reduction, which agrees with the stacked matmul chain to about 1e-15 per
step.  For a two-atom law it reads each sample's aligned blocks of 8 steps
as one byte into a table of the 256 composed block maps, and the last
block with the n mod 8 leftover steps as one code into a table of all
such tails; both tables are built by the same reduction, so its products
are bit for bit those of the reduction over single steps and the 1e-15
per step tolerance stands.  It applies ``left`` with four flat
expressions, one per entry, which lie within 4.5e-16 (absolute) of a
2x2 matmul per sample.  Larger step matrices take one stacked matmul per
step.
"""

import numpy as np

from .errors import InvalidArgumentError
from .lie import MEMBERSHIP_TOL

__all__ = [
    "partial_products",
    "indexed_products",
    "stoch2_log_norms",
    "stoch2_logs",
    "displacements",
]


# ---------------------------------------------------------------------------
# 2x2 unit-row-sum steps as affine maps of the product's first column
#
# A 2x2 unit-row-sum matrix is fixed by its first column, and
# (P S)[:, 0] = P[:, 0] (S00 - S10) + S10: right-multiplying by S is the
# affine map x -> a x + b with a = S00 - S10, b = S10, applied to both
# entries of the column.  Maps compose as in ``_chain``, and the identity's
# column is (1, 0), so the product of a chain is
# [[A + B, 1 - A - B], [B, 1 - B]] for its composed map (A, B).

def _row_sum_error(mats: np.ndarray) -> float:
    """Largest distance of a row sum of a (..., 2, 2) stack from 1 (nan if
    any is nan, 0 for an empty stack).  Each row sum is one addition, as
    mats.sum(axis=-1) takes it, in an eighth of that reduction's time."""
    return np.abs(mats[..., 0] + mats[..., 1] - 1.0).max(initial=0.0)


def _affine_maps(mats: np.ndarray):
    """The maps (a, b) = (S00 - S10, S10) of a (..., 2, 2) stack, as new arrays."""
    return mats[..., 0, 0] - mats[..., 1, 0], mats[..., 1, 0].copy()


def _chain(a_l, b_l, a_r, b_r):
    """The map (a_l, b_l) followed by (a_r, b_r): x -> a_r (a_l x + b_l) + b_r."""
    return a_l * a_r, b_l * a_r + b_r


def _stoch2_matrices(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> None:
    """Write the unit-row-sum products of the composed maps (a, b) into out."""
    out[:, 0, 0] = a + b
    out[:, 1, 0] = b
    out[:, :, 1] = 1.0 - out[:, :, 0]


# ---------------------------------------------------------------------------
# partial products of a single chain of step matrices

# Below about 100 steps the affine scan gains little or nothing over the
# matmul scan (numpy 2.4, one core), so short 2x2 chains, such as the m <= 16
# segment products of the rate solver and psi_m, keep the matmul scan's
# arithmetic.
_AFFINE_SCAN_MIN = 128


def partial_products(steps: np.ndarray) -> np.ndarray:
    """Cumulative left-to-right products of a (n, d, d) stack, as (n + 1, d, d).

    out[0] = I and out[k] = steps[0] @ ... @ steps[k-1].  A doubling scan
    (Hillis and Steele, 1986): after the pass at offset off, out[k] holds the
    product of the last min(k, 2 off) steps up to k, so ceil(log2 n) passes
    cover every prefix.  Nothing is divided, so large steps do not overflow
    a quotient.  A 2x2 chain of at least _AFFINE_SCAN_MIN steps with unit
    row sums within MEMBERSHIP_TOL scans the steps' affine maps of the first
    column and rebuilds each product from its map; every other stack scans
    with stacked matmuls.
    """
    steps = np.asarray(steps, dtype=np.float64)
    n, d, _ = steps.shape
    out = np.empty((n + 1, d, d))
    out[0] = np.eye(d)
    if d == 2 and n >= _AFFINE_SCAN_MIN and _row_sum_error(steps) <= MEMBERSHIP_TOL:
        a, b = _affine_maps(steps)
        off = 1
        while off < n:
            a[off:], b[off:] = _chain(a[:-off], b[:-off], a[off:], b[off:])
            off *= 2
        _stoch2_matrices(a, b, out[1:])
        return out
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
    ``_stoch2_products``, and left @ P is written entry by entry as
    left[i, 0] P[:, 0, j] + left[i, 1] P[:, 1, j], within 4.5e-16 of the
    2x2 matmul.  Larger ones take one stacked product per step, vectorized
    across samples.
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
        prod = _stoch2_products(step_mats, idx)
        out = np.empty_like(prod)
        for i in range(2):
            for j in range(2):
                out[:, i, j] = left[i, 0] * prod[:, 0, j] + left[i, 1] * prod[:, 1, j]
        return out
    n_samples, n_steps = idx.shape
    out = np.broadcast_to(left, (n_samples,) + left.shape).copy()
    for j in range(n_steps):
        out = out @ step_mats[idx[:, j]]
    return out


# A two-atom law has only 256 distinct blocks of 8 steps.  One table holds
# the composed map of every block, and each sample's aligned blocks gather
# from it through one code each: `np.packbits` reads a block's atom indices
# as a byte, first step most significant, and the table's rows are the bits
# of their code in the same order.  The table composes its rows with
# `_compose` itself, so the first three passes of `_compose` over a whole
# chain do exactly the table's arithmetic on each aligned block.  The last
# block and the r = n mod 8 leftover steps compose together, as `_compose`
# folds the odd ends in the pass over the whole chain; a second table holds
# all 2**(8 + r) such tails, composed by `_compose`, and each sample reads
# its tail as one code from its last two packed bytes.  Every product is
# therefore bit for bit the pairwise reduction's over single steps, with
# one gather per eight steps.  Other laws, and chains shorter than a block,
# gather one map per step.

# Samples are taken in chunks of about _CHUNK_ELEMENTS steps; a chunk's
# gathered maps take 8 MB each for a and b, or 1 MB with the block table.
_CHUNK_ELEMENTS = 1 << 20
_BLOCK = 8          # steps per table entry: one packed byte of two-atom indices


def _stoch2_products(step_mats: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """prod_j step_mats[idx[s, j]] for every sample s, for 2x2 unit-row-sum steps.

    Entries of idx must lie in [0, k), as indexed_products checks: packbits
    reads any nonzero entry as 1.
    """
    row_err = _row_sum_error(step_mats)
    if not row_err <= MEMBERSHIP_TOL:
        raise InvalidArgumentError(
            f"2x2 step matrices need unit row sums; off by {row_err:.3g}")
    atom_a, atom_b = _affine_maps(step_mats)
    n_samples, n_steps = idx.shape
    if n_steps == 0:
        return np.broadcast_to(np.eye(2), (n_samples, 2, 2)).copy()
    blocked = len(step_mats) == 2 and n_steps >= _BLOCK
    if blocked:
        whole, leftover = divmod(n_steps, _BLOCK)
        table_a, table_b = _block_table(atom_a, atom_b, _BLOCK)
        if leftover:
            tail_a, tail_b = _block_table(atom_a, atom_b, _BLOCK + leftover)
    out = np.empty((n_samples, 2, 2))
    rows = max(1, _CHUNK_ELEMENTS // n_steps)
    for start in range(0, n_samples, rows):
        part = idx[start:start + rows]
        if blocked:
            packed = np.packbits(part, axis=1)
            codes = packed[:, :whole]
            a, b = np.take(table_a, codes), np.take(table_b, codes)
            if leftover:
                # the last whole block's byte, then the leftover steps, which
                # packbits put in the high bits of the padded last byte
                tail = ((packed[:, whole - 1].astype(np.uint16) << leftover)
                        | (packed[:, whole] >> (_BLOCK - leftover)))
                a[:, -1], b[:, -1] = tail_a[tail], tail_b[tail]
        else:
            a, b = atom_a[part], atom_b[part]
        _stoch2_matrices(*_compose(a, b), out[start:start + rows])
    return out


def _block_table(atom_a: np.ndarray, atom_b: np.ndarray, width: int):
    """Composed maps of all 2**width two-atom blocks of width steps.

    Row c composes the steps given by the bits of c, first step most
    significant, as ``np.packbits`` orders them.  Built with ``_compose``,
    so each entry is bit for bit the reduction of its steps in any row.
    The build takes about 0.05 ms at width 8, under 1.3 ms up to width 12
    (r <= 4 leftover steps) and 9-13 ms at width 15 (r = 7), on one core
    with numpy 2.4.
    """
    shifts = np.arange(width - 1, -1, -1)
    bits = (np.arange(1 << width)[:, None] >> shifts) & 1
    return _compose(atom_a[bits], atom_b[bits])


def _compose(a: np.ndarray, b: np.ndarray):
    """Compose each row's affine maps left to right, pairwise: log2(n) passes."""
    while a.shape[1] > 1:
        m = a.shape[1]
        a_next, b_next = _chain(a[:, 0:m - 1:2], b[:, 0:m - 1:2], a[:, 1::2], b[:, 1::2])
        if m % 2:
            a_next[:, -1], b_next[:, -1] = _chain(a_next[:, -1], b_next[:, -1],
                                                  a[:, -1], b[:, -1])
        a, b = a_next, b_next
    return a[:, 0], b[:, 0]


# ---------------------------------------------------------------------------
# principal logs of 2x2 unit-row-sum matrices, and their norms for batches
#
# A 2x2 matrix M with unit row sums has eigenvalues {1, s} with
# s = tr(M) - 1 = M00 - M10, and N = M - I satisfies N^2 = (s - 1) N, so its
# principal logarithm (defined iff s > 0) is the polynomial
# log(M) = log(s)/(s - 1) * (M - I).  ``stoch2_logs`` reads s as M00 - M10,
# one subtraction, exact where M00 and M10 lie within a factor 2 of each
# other; tr(M) - 1 rounds twice and cancels where s is small, and against
# 40-digit logs of walk prefixes at rates 10 it is 18x less accurate
# (2.2e-13 relative, against 1.25e-14).  ``stoch2_log_norms`` keeps
# tr(M) - 1, the Monte Carlo distances it has always given.

def _log_factor(s: np.ndarray) -> np.ndarray:
    """log(s)/(s - 1), by its series for |s - 1| < 1e-6; 0 where s <= 0."""
    e = s - 1.0
    small = np.abs(e) < 1e-6
    # series of log(1+e)/e for tiny e; full expression elsewhere
    with np.errstate(divide="ignore", invalid="ignore"):
        f = np.where(small,
                     1.0 - e / 2.0 + e * e / 3.0 - e * e * e / 4.0,
                     np.log(np.where(s > 0, s, 1.0)) / np.where(small, 1.0, e))
    return f


def stoch2_logs(mats: np.ndarray):
    """Principal logs of a (n, 2, 2) unit-row-sum stack, as (logs, ok).

    Each log is log(s)/(s - 1) * (M - I) with s = M00 - M10; ok is False,
    and the log NaN, where s <= 0 or the matrix has a non-finite entry.
    The caller vouches for the unit row sums.
    """
    mats = np.asarray(mats, dtype=np.float64)
    s = mats[:, 0, 0] - mats[:, 1, 0]
    ok = (s > 0) & np.isfinite(mats).all(axis=(1, 2))
    with np.errstate(invalid="ignore"):  # inf - inf and 0 * inf in rows not ok
        logs = _log_factor(s)[:, None, None] * (mats - np.eye(2))
    return np.where(ok[:, None, None], logs, np.nan), ok


def stoch2_log_norms(mats: np.ndarray) -> np.ndarray:
    """Frobenius norms of the principal logs of a (n, 2, 2) stack; +inf
    outside the log domain."""
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


# ---------------------------------------------------------------------------
# displacements between consecutive points of a stack

def displacements(pts: np.ndarray) -> np.ndarray:
    """pts[k]^-1 pts[k + 1] for each k of a (n + 1, d, d) stack, as (n, d, d).

    A 2x2 stack whose every determinant is finite and nonzero takes the
    explicit inverse, the adjugate over the determinant, applied entry by
    entry; every other stack takes np.linalg.solve, with its errors.
    """
    a, b = pts[:-1], pts[1:]
    if pts.shape[-1] == 2:
        det = a[:, 0, 0] * a[:, 1, 1] - a[:, 0, 1] * a[:, 1, 0]
        if np.all(np.isfinite(det) & (det != 0.0)):
            out = np.empty(b.shape)
            out[:, 0, 0] = (a[:, 1, 1] * b[:, 0, 0] - a[:, 0, 1] * b[:, 1, 0]) / det
            out[:, 0, 1] = (a[:, 1, 1] * b[:, 0, 1] - a[:, 0, 1] * b[:, 1, 1]) / det
            out[:, 1, 0] = (a[:, 0, 0] * b[:, 1, 0] - a[:, 1, 0] * b[:, 0, 0]) / det
            out[:, 1, 1] = (a[:, 0, 0] * b[:, 1, 1] - a[:, 1, 0] * b[:, 0, 1]) / det
            return out
    return np.linalg.solve(a, b)
