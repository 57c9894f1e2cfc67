"""The product and log-norm kernels against manual loops and the general log."""

import numpy as np
import pytest

from liewalk import AlgebraVector, IncrementDistribution, _kernels, simulate_walk
from liewalk._kernels import (
    indexed_products,
    partial_products,
    stoch2_log_norms,
)
from liewalk.errors import InvalidArgumentError, SingularMatrixError
from liewalk.lie import OutOfDomainError, _divide, _expm, _logm, _logm_stack
from logm_reference import logm as reference_logm
from products_reference import matmul_scan
from products_reference import partial_products as looped_partial_products
from products_reference import (
    decode_codes,
    encode_codes,
    stoch2_block_products,
    stoch2_partial_products_longdouble,
    stoch2_products,
)
from stoch2_reference import (
    LOG_ATOL,
    LOG_RTOL,
    explicit_solve,
    stoch2_log,
    stoch2_logs_longdouble,
)


@pytest.fixture()
def step_mats(rng):
    out = []
    for _ in range(3):
        a = rng.uniform(0, 0.4, size=(2, 2))
        np.fill_diagonal(a, 0.0)
        a -= np.diag(a.sum(axis=1))
        out.append(_expm(a / 50))
    return np.array(out)


def test_partial_products_against_manual(step_mats, rng):
    idx = rng.integers(0, 3, size=40)
    steps = step_mats[idx]
    got = partial_products(steps)
    acc = np.eye(2)
    np.testing.assert_array_equal(got[0], acc)
    for k in range(40):
        acc = acc @ steps[k]
        np.testing.assert_allclose(got[k + 1], acc, atol=1e-14)


def two_state_steps(alpha, n, seed):
    """n steps exp(X_k / n) of the two-state law with both rates alpha."""
    atoms = np.array([[[-alpha, alpha], [0.0, 0.0]], [[0.0, 0.0], [alpha, -alpha]]])
    idx = np.random.default_rng(seed).integers(0, 2, size=n)
    return _expm(atoms / n)[idx]


@pytest.mark.parametrize("n", [0, 1, 2, 3, 1024, 1025])
@pytest.mark.parametrize("d", [2, 3])
def test_partial_products_scan_sizes(rng, n, d):
    steps = np.eye(d) + rng.uniform(-0.05, 0.05, size=(n, d, d))
    got = partial_products(steps)
    assert got.shape == (n + 1, d, d)
    assert np.array_equal(got[0], np.eye(d))
    assert np.array_equal(got[1:2], steps[:1])
    np.testing.assert_allclose(got, looped_partial_products(steps), rtol=0, atol=1e-13)


@pytest.mark.parametrize("alpha, n, tol", [(1.0, 200_000, 2e-12), (700.0, 100_000, 1e-11)])
def test_partial_products_2x2_against_longdouble(alpha, n, tol):
    # measured: 8.4e-13 (alpha 1) and 9.6e-16 (alpha 700) with the affine
    # scan; the matmul scan is off by 9.0e-13 and 6.6e-12, the per-step loop
    # by 8.9e-13 and 6.9e-12
    steps = two_state_steps(alpha, n, seed=7)
    ref = stoch2_partial_products_longdouble(steps)
    err = np.abs(partial_products(steps) - ref).max()
    assert err <= tol, err


def test_walk_with_large_trace_stays_finite_on_the_group():
    # |tr X| = 740 > 709: on this walk P = cumprod(a), B = P cumsum(b / P)
    # overflows to inf, as b / P passes 1e308; neither scan divides
    alpha = 740.0
    dist = IncrementDistribution(
        atoms=(AlgebraVector([[-alpha, alpha], [0.0, 0.0]]),
               AlgebraVector([[0.0, 0.0], [alpha, -alpha]])),
        weights=(0.5, 0.5))
    for n in (50, 200_000):     # the matmul scan, the affine scan
        pts = simulate_walk(dist, n, seed=7).points
        assert np.isfinite(pts).all()
        np.testing.assert_allclose(pts.sum(axis=-1), 1.0, rtol=0, atol=1e-12)


def test_partial_products_2x2_large_trace_against_longdouble():
    # measured 5.0e-15; the matmul scan is off by 1.6e-12
    steps = two_state_steps(740.0, 200_000, seed=7)
    got = partial_products(steps)
    assert np.isfinite(got).all()
    assert np.abs(got - stoch2_partial_products_longdouble(steps)).max() <= 1e-11


@pytest.mark.parametrize("n", [127, 128, 129, 1025])
def test_partial_products_2x2_scan_sizes_against_longdouble(rng, n):
    # n = 127 takes the matmul scan, the rest the affine scan; either is
    # off by at most one float64 epsilon per step
    steps = random_stoch2_chain(rng, n)
    got = partial_products(steps)
    assert np.array_equal(got[0], np.eye(2))
    err = np.abs(got - stoch2_partial_products_longdouble(steps)).max()
    assert err <= np.finfo(np.float64).eps * n, err


@pytest.mark.parametrize("steps", [
    lambda rng: random_stoch2_chain(rng, 127),
    lambda rng: random_stoch2_chain(rng, 1025) + 0.5e-6,    # row sums off by 1e-6
    lambda rng: np.eye(3) + rng.uniform(-0.05, 0.05, size=(1025, 3, 3)),
], ids=["2x2-below-floor", "2x2-off-group", "3x3"])
def test_partial_products_keeps_the_matmul_scan(rng, steps):
    steps = steps(rng)
    assert partial_products(steps).tobytes() == matmul_scan(steps).tobytes()


def test_partial_products_3x3_against_loop(rng):
    atoms = rng.uniform(0.0, 2.0, size=(3, 3, 3))
    for a in atoms:
        np.fill_diagonal(a, 0.0)
        a -= np.diag(a.sum(axis=1))
    n = 20_000
    steps = _expm(atoms / n)[rng.integers(0, 3, size=n)]
    np.testing.assert_allclose(partial_products(steps), looped_partial_products(steps),
                               rtol=0, atol=2e-12)


def test_indexed_products_against_manual(step_mats, rng):
    idx = rng.integers(0, 3, size=(5, 30)).astype(np.uint8)
    left = np.linalg.inv(step_mats[0])
    got = indexed_products(step_mats, encode_codes(idx, 3), left, 30)
    for s in range(5):
        acc = left.copy()
        for j in range(30):
            acc = acc @ step_mats[idx[s, j]]
        np.testing.assert_allclose(got[s], acc, atol=1e-13)


def stacked_loop(step_mats, idx, left):
    """One stacked matmul per step across all samples."""
    out = np.broadcast_to(left, (idx.shape[0],) + left.shape).copy()
    for j in range(idx.shape[1]):
        out = out @ step_mats[idx[:, j]]
    return out


@pytest.mark.parametrize("n_samples, n_steps", [
    (40, 1), (40, 2), (40, 37), (120, 20000),   # 120 x 4,000 codes span 15 row chunks
])
def test_indexed_products_2x2_against_stacked_loop(step_mats, rng, n_samples, n_steps):
    # pairwise composition rounds differently from the sequential chain:
    # the stated tolerance is 1e-15 per step
    idx = rng.integers(0, 3, size=(n_samples, n_steps)).astype(np.uint8)
    left = np.linalg.inv(step_mats[1])
    got = indexed_products(step_mats, encode_codes(idx, 3), left, n_steps)
    np.testing.assert_allclose(got, stacked_loop(step_mats, idx, left),
                               rtol=0, atol=1e-15 * n_steps)


def random_group_steps(rng, k, d, n):
    """exp(X / n) for k random d x d generators X with rates up to 1.5."""
    atoms = rng.uniform(0.0, 1.5, size=(k, d, d))
    for a in atoms:
        np.fill_diagonal(a, 0.0)
        a -= np.diag(a.sum(axis=1))
    return _expm(atoms / n)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("k", [3, 4])
def test_indexed_products_block_tables_within_stated_tolerance(rng, k, d):
    # B = 5 at k = 3 and 4 at k = 4; blocks compose in their own order, so
    # the products keep the stated 1e-15 per step of the stacked chain
    for n in [4, 5, 7, 13, 40, 160, 1000]:
        steps = random_group_steps(rng, k, d, n)
        idx = rng.integers(0, k, size=(200, n))
        left = np.linalg.inv(steps[1])
        got = indexed_products(steps, encode_codes(idx, k), left, n)
        np.testing.assert_allclose(got, stacked_loop(steps, idx, left),
                                   rtol=0, atol=1e-15 * n, err_msg=f"n={n}")


def test_indexed_products_2x2_carries_left_row_sums(step_mats, rng):
    # a center may be off the group by up to MEMBERSHIP_TOL; its row-sum
    # residual reaches the endpoint as it does through the stacked chain
    idx = rng.integers(0, 3, size=(30, 25)).astype(np.uint8)
    left = np.linalg.inv(step_mats[2])
    left[:, 0] += 1e-10
    got = indexed_products(step_mats, encode_codes(idx, 3), left, 25)
    np.testing.assert_allclose(got, stacked_loop(step_mats, idx, left),
                               rtol=0, atol=1e-15 * 25)
    np.testing.assert_allclose(got.sum(axis=-1) - 1.0, 1e-10, rtol=1e-4)


@pytest.mark.parametrize("n_steps", [20, 165])
def test_indexed_products_2x2_center_within_stated_tolerance(step_mats, rng, n_steps):
    # left is applied entry by entry, not by a 2x2 matmul: two roundings of
    # products up to |left| <= 2.4 and one of their sum stay within 4.5e-16
    codes = encode_codes(rng.integers(0, 2, size=(500, n_steps)), 2)
    prod = _kernels._stoch2_products(step_mats[:2], codes, n_steps)
    for c in (0.2, 0.5, 0.8):
        left = np.linalg.inv(_expm(np.array([[-c, c], [1 - c, c - 1.0]])))
        np.testing.assert_allclose(indexed_products(step_mats[:2], codes, left, n_steps),
                                   left @ prod, rtol=0, atol=4.5e-16)


def test_indexed_products_2x2_off_group_raises(step_mats):
    bad = step_mats.copy()
    bad[1, 0, 1] += 1e-8
    with pytest.raises(InvalidArgumentError):
        indexed_products(bad, np.zeros((2, 1), dtype=np.uint8), np.eye(2), 3)


def random_stoch2_steps(rng, k, n):
    """exp(X / n) for k random 2x2 generators X; distinct ones do not commute."""
    atoms = rng.uniform(0.0, 1.5, size=(k, 2, 2))
    for a in atoms:
        np.fill_diagonal(a, 0.0)
        a -= np.diag(a.sum(axis=1))
    return _expm(atoms / n)


def random_stoch2_chain(rng, n):
    """n steps drawn from 3 atoms of ``random_stoch2_steps``."""
    return random_stoch2_steps(rng, 3, n)[rng.integers(0, 3, size=n)]


@pytest.mark.parametrize("k", [1, 2, 3, 4, 17])     # B = 8, 8, 5, 4 and 1
def test_stoch2_products_bit_identical_to_stepwise_compose(rng, k):
    # the tables hold each block's pairwise reduction over its single steps,
    # the last whole block's with the leftover steps folded in; at B = 1, 4
    # and 8 that is the first log2(B) passes of the reduction over the whole
    # chain, so the products are the stepwise reduction's bit for bit
    for n in [*range(1, 71), 160, 161, 1023, 20000]:
        steps = random_stoch2_steps(rng, k, n)
        idx = rng.integers(0, k, size=(4 if n > 1000 else 30, n)).astype(np.uint8)
        got = _kernels._stoch2_products(steps, encode_codes(idx, k), n)
        blocked = stoch2_block_products(steps, idx)
        assert np.array_equal(got, blocked), n
        if k != 3:
            assert np.array_equal(blocked, stoch2_products(steps, idx)), n


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("dtype", [np.int8, np.int64, np.uint64])
def test_stoch2_products_any_integer_index_dtype(rng, k, dtype):
    # int8 holds codes below 128 only: x % 128 keeps each code in its range
    steps = random_stoch2_steps(rng, k, 37)
    codes = encode_codes(rng.integers(0, k, size=(20, 37)), k) % 128
    want = stoch2_block_products(steps, decode_codes(codes, k, 37))
    assert np.array_equal(_kernels._stoch2_products(steps, codes.astype(dtype), 37), want)


@pytest.mark.parametrize("n_steps", [160, 165])
def test_stoch2_products_bit_identical_across_row_chunks(rng, monkeypatch, n_steps):
    # 125 codes per chunk: six rows of 20 codes at n = 160, five of 21 at
    # n = 165, and 50 samples span nine or ten chunks
    monkeypatch.setattr(_kernels, "_CHUNK_CODES", 125)
    steps = random_stoch2_steps(rng, 2, n_steps)
    idx = rng.integers(0, 2, size=(50, n_steps)).astype(np.uint8)
    assert np.array_equal(_kernels._stoch2_products(steps, encode_codes(idx, 2), n_steps),
                          stoch2_products(steps, idx))


def test_stoch2_products_block_codes_first_step_most_significant():
    # the two-state atoms do not commute, so a block read in the wrong digit
    # order picks the product of its steps in reverse
    alpha = 3.0
    atoms = np.array([[[-alpha, alpha], [0.0, 0.0]], [[0.0, 0.0], [alpha, -alpha]]])
    steps = _expm(atoms / 16)
    one_hot = np.eye(16, dtype=np.uint8)    # row j: atom 1 at step j only
    idx = np.concatenate([one_hot, 1 - one_hot])
    codes = np.packbits(idx, axis=1)        # bytes, first step most significant
    got = _kernels._stoch2_products(steps, codes, 16)
    assert np.array_equal(got, stoch2_products(steps, idx))
    # mirroring the first block's steps moves every product
    assert (np.abs(got[:8] - got[7::-1]).max(axis=(1, 2)) > 1e-6).all()
    np.testing.assert_allclose(got, stacked_loop(steps, idx, np.eye(2)), rtol=0, atol=1e-14)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("bad", [
    np.array([[0, -1, 1]], dtype=np.int8),      # negative: would pick the last entry
    np.array([[0, 243, 1]], dtype=np.uint8),    # k = 3 atoms, B = 5: one past 3^5
    np.array([[0.0, 1.0, 2.0]]),                # not integers
    np.array([[0, 1, 27]], dtype=np.uint8),     # the last code has 3 steps: one past 3^3
    np.array([[0, 1]], dtype=np.uint8),         # 13 steps take 3 codes, not 2
])
def test_indexed_products_rejects_bad_indices(d, bad):
    steps = np.broadcast_to(np.eye(d), (3, d, d))
    with pytest.raises(InvalidArgumentError):
        indexed_products(steps, bad, np.eye(d), 13)


@pytest.mark.parametrize("d", [2, 3])
def test_indexed_products_of_zero_steps_is_left(rng, d):
    # the empty product: each of the 3 samples ends at left
    steps = np.broadcast_to(np.eye(d), (3, d, d))
    left = _expm(rng.uniform(-0.2, 0.2, size=(d, d)) - 0.1 * d * np.eye(d))
    left /= left.sum(axis=1, keepdims=True)
    got = indexed_products(steps, np.zeros((3, 0), np.uint8), left, 0)
    assert got.shape == (3, d, d)
    assert np.array_equal(got, np.broadcast_to(left, (3, d, d)))


def test_stoch2_log_norms_vs_general_log(rng):
    mats = []
    for _ in range(100):
        a = rng.standard_normal(2) * 0.4
        x = np.array([[-a[0], a[0]], [a[1], -a[1]]])
        mats.append(_expm(x))
    mats = np.array(mats)
    fast = stoch2_log_norms(mats)
    for i in range(100):
        assert fast[i] == pytest.approx(np.linalg.norm(reference_logm(mats[i])), abs=1e-12)


def test_stoch2_log_norms_out_of_domain():
    bad = np.array([[[-0.5, 1.5], [1.5, -0.5]]])  # spectrum {1, -2}
    assert np.isinf(stoch2_log_norms(bad))[0]
    with pytest.raises(OutOfDomainError):
        _logm(bad[0])



# ---------------------------------------------------------------------------
# closed-form logs and explicit displacements on the 2x2 group

def stoch2_stack(p, q):
    """The unit-row-sum matrices [[1 - p, p], [q, 1 - q]] as a (n, 2, 2) stack."""
    return np.stack([np.stack([1 - p, p], -1), np.stack([q, 1 - q], -1)], -2)


def closed_form_rows(rng, s_min):
    """2x2 group elements: exponentials of random two-state generators;
    near-identity rows, whose |s - 1| < 1e-6 takes the series; rows with s
    from s_min to 1/2; and rows with M - I nilpotent (s = 1).  Entries of all
    but the exponentials lie on a 2^-30 (near I, 2^-52) grid, so their row
    sums are exactly 1 and s = M00 - M10 exactly."""
    rates = rng.standard_normal((200, 2)) * 0.8
    exps = _expm(stoch2_stack(rates[:, 0], rates[:, 1]) - np.eye(2))
    near = rng.integers(-2**29, 2**29, size=(2, 100)) * 2.0**-52
    s = np.round(2.0 ** rng.uniform(np.log2(s_min), -1, 100) * 2**30) / 2**30
    p = np.round(rng.random(100) * (1 - s) * 2**30) / 2**30
    nil = np.round(rng.uniform(-1, 1, 50) * 2**30) / 2**30
    mats = np.concatenate([exps, stoch2_stack(*near), stoch2_stack(p, 1 - p - s),
                           stoch2_stack(nil, -nil)])
    s = mats[:, 0, 0] - mats[:, 1, 0]
    assert (s > 0).all() and (np.abs(s[200:300] - 1) < 1e-6).all() and (s[-50:] == 1).all()
    return mats


def test_closed_form_logs_match_the_per_matrix_loop(rng):
    # the loop loses accuracy below s = 2^-10 (2.1e-12 relative near 1e-6)
    mats = closed_form_rows(rng, 2.0**-10)
    logs, ok, reasons = _logm_stack(mats)
    assert ok.all() and reasons == {}
    for got, g in zip(logs, mats):
        ref = reference_logm(g)
        assert np.linalg.norm(got - ref) <= LOG_RTOL * np.linalg.norm(ref) + LOG_ATOL
        assert np.array_equal(got, stoch2_log(g))


def test_closed_form_logs_against_longdouble(rng):
    # measured: within 1.4 ulps of each row's largest entry
    mats = closed_form_rows(rng, 2.0**-20)
    logs, ok, _ = _logm_stack(mats)
    assert ok.all()
    want = stoch2_logs_longdouble(mats)
    err = np.abs(logs - want).max(axis=(1, 2)) / np.abs(want).max(axis=(1, 2))
    assert float(err.max()) <= 2 * np.finfo(float).eps


NO_CLOSED_FORM = np.array([[[0.5, 0.5], [0.5, 0.5]],      # s = 0, singular
                           [[0.2, 0.8], [0.9, 0.1]],      # s = -0.7
                           [[np.nan, 0.5], [0.5, 0.5]],
                           [[1.0, 0.0], [np.inf, -np.inf]],
                           [[1.0, np.inf], [0.0, 1.0]]])  # s = 1, one entry infinite


def test_2x2_rows_without_a_log_take_the_loop_and_its_messages(rng):
    good = closed_form_rows(rng, 2.0**-10)[:6]
    mats = np.concatenate([good[:3], NO_CLOSED_FORM, good[3:]])
    logs, ok, reasons = _logm_stack(mats)
    assert ok.tolist() == [True] * 3 + [False] * 5 + [True] * 3
    assert np.isnan(logs[3:8]).all()
    assert np.array_equal(logs[ok], _logm_stack(good)[0])
    for i, g in enumerate(NO_CLOSED_FORM, start=3):
        if np.isfinite(g).all():
            with pytest.raises(OutOfDomainError) as looped:
                reference_logm(g)
            assert reasons[i] == str(looped.value)
        else:
            assert reasons[i] == "matrix logarithm: non-finite entries"


def test_mixed_2x2_stack_rows_are_their_one_row_logs(rng):
    # closed-form rows; s <= 0, singular and non-finite rows; and a row whose
    # row sums are off by 1e-6, which takes the Denman-Beavers loop
    good = closed_form_rows(rng, 2.0**-10)[::40]
    off = _expm(np.array([[-0.3, 0.3], [0.2, -0.2]])) + np.array([[1e-6, 0.0], [0.0, 0.0]])
    mats = np.concatenate([good[:3], NO_CLOSED_FORM, [off], good[3:]])
    logs, ok, reasons = _logm_stack(mats)
    assert ok.tolist() == [True] * 3 + [False] * 5 + [True] * (1 + len(good) - 3)
    for i in [0, 1, 2, *range(9, len(mats))]:
        assert np.array_equal(logs[i], stoch2_log(mats[i]))
    assert np.array_equal(logs[8], reference_logm(off))
    assert not np.array_equal(logs[8], stoch2_log(off))
    for i, g in enumerate(mats):
        if ok[i]:
            assert np.array_equal(_logm(g), logs[i])
        else:
            with pytest.raises(OutOfDomainError) as info:
                _logm(g)
            assert str(info.value) == reasons[i]


def test_displacements_2x2_take_the_explicit_inverse(rng):
    pts = partial_products(two_state_steps(1.0, 500, 3))
    got = _divide(pts[:-1], pts[1:], str)
    for k in range(500):
        assert np.array_equal(got[k], explicit_solve(pts[k], pts[k + 1]))
    np.testing.assert_allclose(got, np.linalg.solve(pts[:-1], pts[1:]), rtol=0, atol=1e-15)


@pytest.mark.parametrize("d", [2, 3])
def test_displacements_fall_back_to_solve(rng, d):
    # a zero determinant, or any 3x3 stack, takes np.linalg.solve, and its
    # singular divisor is named by the label
    pts = np.eye(d) + rng.uniform(-0.1, 0.1, size=(6, d, d))
    if d == 3:
        assert np.array_equal(_divide(pts[:-1], pts[1:], str), np.linalg.solve(pts[:-1], pts[1:]))
    pts[2] = 0.5
    with pytest.raises(SingularMatrixError, match="^divisor 2 is singular$"):
        _divide(pts[:-1], pts[1:], lambda i: f"divisor {i}")
