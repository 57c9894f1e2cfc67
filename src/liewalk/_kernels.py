"""Hot numeric kernels on stacks of matrices, in numpy.

``partial_products`` and ``indexed_products`` multiply step matrices in
left-to-right order; ``stoch2_log_norms`` takes the norms of the principal
logs of 2x2 unit-row-sum matrices, through the closed form's factor
``lie._log_factor`` with s = M00 - M10, as ``lie._logm_stack`` takes the logs
themselves.  Both product kernels treat a 2x2
unit-row-sum step as the affine map x -> a x + b of the product's first
column; the composition rule and the rebuild of a matrix from its composed
map are written once, in ``_chain`` and ``_stoch2_matrices``.

``partial_products`` is a doubling scan.  From 128 steps on, a 2x2
unit-row-sum chain scans its affine maps: each pass is three flat float64
operations, and on the two-state walk at n = 200,000 it lies within
8.4e-13 of a long-double recurrence (at rates 700 and n = 100,000 within
1e-15).  Every other stack, shorter 2x2 chains included, takes the scan of
stacked matmuls, whose rounding is not the per-step chain's but about as
large (within 9e-13 at n = 200,000, 6.6e-12 at rates 700).

``indexed_products`` multiplies Monte Carlo walks given as block codes
(``distributions.sample_codes``): with k atoms, each code stands for B
steps, k^B <= 256, so a table of the k^B composed blocks replaces B steps
by one gather.  For 2x2 step matrices the table holds composed affine
maps, and each sample's maps are composed by pairwise reduction, which
agrees with the stacked matmul chain to about 1e-15 per step.  At k = 2 the
tables are built by the same reduction, so the products are bit for bit
those of the reduction over single steps.  It applies ``left`` with four
flat expressions, one per entry, which lie within 4.5e-16 (absolute) of a
2x2 matmul per sample.  Larger step matrices take one stacked matmul per
code from a table of composed block matrices, within 1e-15 per step of
the stacked chain over single steps for steps exp(X / n).
"""

import numpy as np

from .distributions import block_width, code_columns, code_digits
from .errors import InvalidArgumentError
from .lie import MEMBERSHIP_TOL, _log_factor

__all__ = [
    "partial_products",
    "indexed_products",
    "stoch2_log_norms",
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

def indexed_products(step_mats: np.ndarray, codes: np.ndarray, left: np.ndarray,
                     n_steps: int) -> np.ndarray:
    """Endpoint of left @ (the n_steps steps coded by codes[s]) for every sample s.

    codes holds each sample's block codes over the k = len(step_mats) step
    matrices, in the layout of ``distributions``: ceil(n_steps / B) columns
    with entries in [0, k^B), the last in [0, k^r) for its r steps.  2x2
    step matrices must have unit row sums within MEMBERSHIP_TOL; their
    products come from ``_stoch2_products``, and left @ P is written entry
    by entry as left[i, 0] P[:, 0, j] + left[i, 1] P[:, 1, j], within
    4.5e-16 of the 2x2 matmul.  Larger ones take one stacked matmul per
    code across all samples, from a table of the composed matrices of every
    block (``_matrix_table``).
    """
    step_mats = np.ascontiguousarray(step_mats, dtype=np.float64)
    left = np.ascontiguousarray(left, dtype=np.float64)
    codes = np.ascontiguousarray(codes)
    k = len(step_mats)
    width = block_width(k)
    cols, tail = code_columns(n_steps, width) if n_steps else (0, 0)
    if not np.issubdtype(codes.dtype, np.integer):
        raise InvalidArgumentError(f"codes must be integers, not {codes.dtype}")
    if codes.ndim != 2 or codes.shape[1] != cols:
        raise InvalidArgumentError(
            f"{n_steps} steps in blocks of {width} take {cols} codes per sample; "
            f"got shape {codes.shape}")
    if codes.size:
        lo, hi, last = codes.min(), codes.max(), codes[:, -1].max()
        if lo < 0 or hi >= k ** width:
            raise InvalidArgumentError(
                f"codes must lie in [0, {k ** width}); got [{lo}, {hi}]")
        if last >= k ** tail:
            raise InvalidArgumentError(
                f"last codes, of {tail} steps, must lie in [0, {k ** tail}); got {last}")
    if step_mats.shape[-1] == 2:
        prod = _stoch2_products(step_mats, codes, n_steps)
        out = np.empty_like(prod)
        for i in range(2):
            for j in range(2):
                out[:, i, j] = left[i, 0] * prod[:, 0, j] + left[i, 1] * prod[:, 1, j]
        return out
    out = np.broadcast_to(left, (len(codes),) + left.shape).copy()
    if cols:
        table = _matrix_table(step_mats, width)
        for j in range(cols - 1):
            out = out @ table[codes[:, j]]
        last_table = table if tail == width else _matrix_table(step_mats, tail)
        out = out @ last_table[codes[:, -1]]
    return out


def _matrix_table(step_mats: np.ndarray, width: int) -> np.ndarray:
    """Products of all k^width blocks of width steps, left to right, as
    (k^width, d, d): one stacked matmul per step of the block."""
    digits = code_digits(len(step_mats), width)
    table = step_mats[digits[:, 0]]
    for j in range(1, width):
        table = table @ step_mats[digits[:, j]]
    return table


# With k atoms there are only k^B distinct blocks of B steps.  One table
# holds the composed map of every block, composed by `_compose` from the
# block's single steps, and each sample's codes gather from it.  The last
# whole block and the r < B steps of the last code compose together, as
# `_compose` folds the odd end in its pass over the whole chain: a second
# table holds all k^(B + r) <= 65,536 such tails, and each sample reads its
# tail as one code, its last two codes joined in base k.  When B is a power
# of two (k = 1, 2 and 4, and B = 1 above 16 atoms) the first log2(B)
# passes of `_compose` over a whole chain do exactly the tables' arithmetic
# on each aligned block and on the tail, so every product is bit for bit
# the pairwise reduction over single steps.  At B = 5 (k = 3) and B = 3
# (k = 5, 6) it is the pairwise reduction over the blocks of the blocks'
# own reductions, which rounds as finely.

# Samples are taken in chunks of about _CHUNK_CODES codes, whose gathered
# maps (16 bytes each) take 512 KB.
_CHUNK_CODES = 1 << 15


def _stoch2_products(step_mats: np.ndarray, codes: np.ndarray, n_steps: int) -> np.ndarray:
    """The product of the n_steps steps coded by codes[s] for every sample s,
    for 2x2 unit-row-sum steps.

    Codes must lie in their ranges, as indexed_products checks.
    """
    row_err = _row_sum_error(step_mats)
    if not row_err <= MEMBERSHIP_TOL:
        raise InvalidArgumentError(
            f"2x2 step matrices need unit row sums; off by {row_err:.3g}")
    atom_a, atom_b = _affine_maps(step_mats)
    n_samples, cols = codes.shape
    if cols == 0:
        return np.broadcast_to(np.eye(2), (n_samples, 2, 2)).copy()
    k = len(step_mats)
    width = block_width(k)
    _, tail = code_columns(n_steps, width)
    table = _block_table(atom_a, atom_b, width)
    fused = cols > 1 and tail < width
    if fused:
        n_maps, last_table = cols - 1, _block_table(atom_a, atom_b, width + tail)
    elif tail < width:
        n_maps, last_table = cols, _block_table(atom_a, atom_b, tail)
    else:
        n_maps, last_table = cols, table
    out = np.empty((n_samples, 2, 2))
    rows = max(1, _CHUNK_CODES // cols)
    for start in range(0, n_samples, rows):
        part = codes[start:start + rows]
        maps = np.take(table, part[:, :n_maps])
        if last_table is not table:
            last = part[:, -1].astype(np.intp)
            if fused:
                last += part[:, -2].astype(np.intp) * k ** tail
            maps[:, -1] = last_table[last]
        _stoch2_matrices(*_compose(maps.real, maps.imag), out[start:start + rows])
    return out


def _block_table(atom_a: np.ndarray, atom_b: np.ndarray, width: int):
    """Composed maps of all k^width blocks of width steps over k atoms.

    Row c composes the steps given by the base-k digits of c, first step
    most significant (``code_digits``).  Built with ``_compose``, so each
    entry is bit for bit the reduction of its steps in any row.  The maps
    come as complex a + ib, whose parts are a and b exactly, so a sample's
    codes gather both in one pass.  At k = 2
    the build takes about 0.05 ms at width 8, under 1.3 ms up to width 12
    and 9-13 ms at width 15, on one core with numpy 2.4.
    """
    digits = code_digits(len(atom_a), width)
    a, b = _compose(atom_a[digits], atom_b[digits])
    return a + 1j * b


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
# norms of the principal logs of 2x2 unit-row-sum matrices, for batches

def stoch2_log_norms(mats: np.ndarray) -> np.ndarray:
    """Frobenius norms of the principal logs of a (n, 2, 2) unit-row-sum
    stack, |log(s)/(s - 1)| ||M - I||_F with s = M00 - M10 as _logm_stack
    reads it; +inf where s <= 0.  The caller vouches for the unit row sums."""
    mats = np.ascontiguousarray(mats, dtype=np.float64)
    s = mats[:, 0, 0] - mats[:, 1, 0]
    f = _log_factor(s)
    e00 = mats[:, 0, 0] - 1.0
    e01 = mats[:, 0, 1]
    e10 = mats[:, 1, 0]
    e11 = mats[:, 1, 1] - 1.0
    sq = e00 * e00 + e01 * e01 + e10 * e10 + e11 * e11
    out = np.abs(f) * np.sqrt(sq)
    out = np.where(s > 0, out, np.inf)
    return out

