from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liewalk import (
    AlgebraVector,
    GroupElement,
    InvalidArgumentError,
    InvalidDimensionError,
    MembershipError,
    OutOfDomainError,
    ad_operator,
    algebra_basis,
    bracket,
    conjugate,
    coords,
    distance_proxy,
    exp_matrix,
    from_coords,
    log_matrix,
    validate_injectivity,
)
from liewalk.lie import (
    _ad_stack,
    _ball_coords,
    _basis_stack,
    _expm,
    _logm,
    _logm_stack,
    algebra_dim,
    operator_norm,
)
from liewalk.serialize import algebra_from_jsonable, group_from_jsonable, matrix_to_jsonable
from bch_reference import from_coords as reference_from_coords
from expm_reference import expm as reference_expm
from logm_reference import logm as reference_logm


def random_algebra(rng, d, radius):
    c = rng.standard_normal(algebra_dim(d))
    c *= radius / np.linalg.norm(c)
    return from_coords(c, d)


# ---------------------------------------------------------------------------
# basis

def gram_schmidt_oracle(d):
    """Independent modified Gram-Schmidt on the spanning set {E_ij - E_ii}."""
    vecs = []
    for i in range(d):
        for j in range(d):
            if i != j:
                m = np.zeros((d, d))
                m[i, j] = 1.0
                m[i, i] = -1.0
                vecs.append(m.ravel())
    basis = []
    for v in vecs:
        w = v.copy()
        for b in basis:
            w -= (w @ b) * b
        n = np.linalg.norm(w)
        if n > 1e-12:
            basis.append(w / n)
    return np.array(basis)


@pytest.mark.parametrize("d,expected", [(2, 2), (3, 6), (4, 12)])
def test_basis_count(d, expected):
    assert len(algebra_basis(d)) == expected


def test_basis_orthonormal_vs_oracle():
    basis = algebra_basis(2)
    gram = np.array([[a.inner(b) for b in basis] for a in basis])
    np.testing.assert_allclose(gram, np.eye(2), atol=1e-12)
    # same span as the Gram-Schmidt oracle: each element reconstructs exactly
    oracle = gram_schmidt_oracle(2)
    for b in basis:
        v = b.entries.ravel()
        recon = oracle.T @ (oracle @ v)
        np.testing.assert_allclose(recon, v, atol=1e-12)


def test_basis_rejects_small_dimension():
    with pytest.raises(InvalidDimensionError):
        algebra_basis(1)


# ---------------------------------------------------------------------------
# exponential

def test_exp_zero_is_identity():
    z = AlgebraVector(np.zeros((3, 3)))
    np.testing.assert_array_equal(exp_matrix(z).entries, np.eye(3))


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("t", [0.01, 0.1, 1.0])
def test_exp_closed_form(alpha, t):
    a = AlgebraVector([[-t * alpha, t * alpha], [0.0, 0.0]])
    expected = np.array([[np.exp(-t * alpha), 1 - np.exp(-t * alpha)], [0.0, 1.0]])
    np.testing.assert_allclose(exp_matrix(a).entries, expected, atol=1e-14)


def taylor_exp_oracle(a, terms=50):
    acc = np.eye(a.shape[0])
    term = np.eye(a.shape[0])
    for m in range(1, terms + 1):
        term = term @ a / m
        acc = acc + term
    return acc


def test_exp_matches_taylor_oracle(rng):
    for _ in range(50):
        x = random_algebra(rng, 3, rng.uniform(0.05, 1.0))
        np.testing.assert_allclose(exp_matrix(x).entries,
                                   taylor_exp_oracle(x.entries), atol=1e-12)


def test_exp_inverse_identity(rng):
    for _ in range(30):
        x = random_algebra(rng, 2, rng.uniform(0.1, 2.0))
        prod = exp_matrix(-x).entries @ exp_matrix(x).entries
        np.testing.assert_allclose(prod, np.eye(2), atol=1e-10)


# ---------------------------------------------------------------------------
# logarithm

def test_log_identity_is_zero():
    g = GroupElement(np.eye(2))
    assert log_matrix(g).norm == 0.0


def test_log_closed_form():
    alpha = 0.5
    g = GroupElement([[np.exp(-alpha), 1 - np.exp(-alpha)], [0.0, 1.0]])
    expected = np.array([[-alpha, alpha], [0.0, 0.0]])
    np.testing.assert_allclose(log_matrix(g).entries, expected, atol=1e-13)


def test_log_roundtrip_property(rng):
    worst = 0.0
    for _ in range(1000):
        x = random_algebra(rng, 2, rng.uniform(0.0, 0.5) + 1e-6)
        back = log_matrix(exp_matrix(x))
        worst = max(worst, (back - x).norm)
    assert worst < 1e-10


def test_log_rejects_negative_spectrum():
    # row sums are 1 but the spectrum is {1, -2}: no principal logarithm
    g = GroupElement([[-0.5, 1.5], [1.5, -0.5]])
    with pytest.raises(OutOfDomainError):
        log_matrix(g)


def test_injectivity_constants_validated():
    for d in (2, 3):
        report = validate_injectivity(d, n_samples=100, seed=11)
        assert report.passed, report


# ---------------------------------------------------------------------------
# bracket and adjoint

def test_bracket_self_is_zero(rng):
    x = random_algebra(rng, 3, 1.0)
    assert bracket(x, x).norm < 1e-14


def test_bracket_direct_arithmetic_oracle():
    a = np.array([[-1.0, 1.0], [0.0, 0.0]])
    b = np.array([[0.0, 0.0], [1.0, -1.0]])
    got = bracket(AlgebraVector(a), AlgebraVector(b)).entries
    np.testing.assert_array_equal(got, a @ b - b @ a)


def test_bracket_dimension_mismatch():
    with pytest.raises(InvalidArgumentError):
        bracket(AlgebraVector(np.zeros((2, 2))), AlgebraVector(np.zeros((3, 3))))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-1, 1), min_size=6, max_size=6),
       st.lists(st.floats(-1, 1), min_size=6, max_size=6))
def test_bracket_bilinearity(cx, cy):
    x = from_coords(np.array(cx), 3)
    y = from_coords(np.array(cy), 3)
    lhs = bracket(2.0 * x, y)
    rhs = 2.0 * bracket(x, y)
    assert (lhs - rhs).norm <= 1e-12 * max(1.0, rhs.norm)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_jacobi_identity(seed):
    rng = np.random.default_rng(seed)
    x, y, z = (random_algebra(rng, 3, 1.0) for _ in range(3))
    total = bracket(x, bracket(y, z)) + bracket(y, bracket(z, x)) + bracket(z, bracket(x, y))
    assert total.norm < 1e-10


def test_bracket_closure_row_sums(rng):
    for _ in range(50):
        x = random_algebra(rng, 4, 1.0)
        y = random_algebra(rng, 4, 1.0)
        assert np.abs(bracket(x, y).entries.sum(axis=1)).max() < 1e-12


def test_ad_zero_operator():
    z = AlgebraVector(np.zeros((2, 2)))
    assert operator_norm(ad_operator(z)) == 0.0


def test_ad_homogeneity(rng):
    x = random_algebra(rng, 3, 0.8)
    for c in (-3.0, 0.5, 7.0):
        assert np.linalg.svd(ad_operator(c * x), compute_uv=False)[0] == pytest.approx(
            abs(c) * np.linalg.svd(ad_operator(x), compute_uv=False)[0], rel=1e-12)


def test_ad_norm_matches_svd_oracle(rng):
    for _ in range(30):
        x = random_algebra(rng, 3, rng.uniform(0.1, 2.0))
        op = ad_operator(x)
        assert abs(operator_norm(op) - np.linalg.svd(op, compute_uv=False)[0]) < 1e-10


def test_ad_norm_lipschitz_in_norm(rng):
    # measure kappa_d once by SVD sweep, then check ||ad_X|| <= kappa |X|
    for d in (2, 3):
        kappa = max(np.linalg.svd(ad_operator(random_algebra(rng, d, 1.0)),
                                  compute_uv=False)[0]
                    for _ in range(300))
        for _ in range(100):
            x = random_algebra(rng, d, rng.uniform(0.01, 3.0))
            assert (np.linalg.svd(ad_operator(x), compute_uv=False)[0]
                    <= kappa * x.norm * (1 + 1e-9))


def test_operator_norm_power_iteration(rng):
    for _ in range(20):
        m = rng.standard_normal((6, 6))
        assert operator_norm(m) == pytest.approx(np.linalg.svd(m, compute_uv=False)[0],
                                                 abs=1e-10)


# ---------------------------------------------------------------------------
# conjugation

def test_conjugate_by_identity(rng):
    x = random_algebra(rng, 2, 1.0)
    g = GroupElement(np.eye(2))
    assert (conjugate(g, x) - x).norm < 1e-15


def test_conjugate_matches_operator_exponential(rng):
    from liewalk.lie import _expm

    for _ in range(20):
        x = random_algebra(rng, 2, rng.uniform(0.05, 0.3))
        y = random_algebra(rng, 2, 1.0)
        lhs = conjugate(exp_matrix(x), y)
        rhs = from_coords(_expm(ad_operator(x)) @ coords(y), 2)
        assert (lhs - rhs).norm < 1e-8


def test_conjugate_preserves_row_sums_exactly():
    # rational instance: g X g^-1 computed in exact arithmetic
    g = [[Fraction(1, 2), Fraction(1, 2)], [Fraction(1, 4), Fraction(3, 4)]]
    x = [[Fraction(-1, 3), Fraction(1, 3)], [Fraction(2, 5), Fraction(-2, 5)]]
    det = g[0][0] * g[1][1] - g[0][1] * g[1][0]
    ginv = [[g[1][1] / det, -g[0][1] / det], [-g[1][0] / det, g[0][0] / det]]

    def matmul(a, b):
        return [[sum(a[i][k] * b[k][j] for k in range(2)) for j in range(2)]
                for i in range(2)]

    exact = matmul(matmul(g, x), ginv)
    assert exact[0][0] + exact[0][1] == 0
    assert exact[1][0] + exact[1][1] == 0
    got = conjugate(GroupElement(np.array(g, dtype=float)),
                    AlgebraVector(np.array(x, dtype=float)))
    np.testing.assert_allclose(got.entries, np.array(exact, dtype=float), atol=1e-15)


# ---------------------------------------------------------------------------
# distance proxy

def test_distance_proxy_reflexive(rng):
    g = exp_matrix(random_algebra(rng, 2, 0.4))
    assert distance_proxy(g, g) < 1e-14


def test_distance_proxy_of_exponential(rng):
    x = random_algebra(rng, 2, 0.5)
    e = GroupElement(np.eye(2))
    assert distance_proxy(e, exp_matrix(x)) == pytest.approx(x.norm, abs=1e-12)


def test_distance_proxy_left_invariance(rng):
    for _ in range(100):
        f, g, h = (exp_matrix(random_algebra(rng, 2, 0.3)) for _ in range(3))
        assert distance_proxy(g, h) == pytest.approx(
            distance_proxy(f @ g, f @ h), abs=1e-10)


# ---------------------------------------------------------------------------
# membership and serialization

def test_algebra_membership_rejected():
    with pytest.raises(MembershipError) as err:
        AlgebraVector([[1.0, 0.0], [0.0, 1.0]])
    assert err.value.constraint == "zero_row_sum"
    assert err.value.residual == pytest.approx(1.0)


def test_group_membership_rejected():
    with pytest.raises(MembershipError) as err:
        GroupElement([[0.5, 0.5], [0.5, 0.5]])
    assert err.value.constraint == "invertible"


def test_entries_immutable(rng):
    x = random_algebra(rng, 2, 1.0)
    with pytest.raises(ValueError):
        x.entries[0, 0] = 5.0


def test_serialization_roundtrip(rng):
    x = random_algebra(rng, 3, 1.0)
    back = algebra_from_jsonable(matrix_to_jsonable(x.entries))
    np.testing.assert_array_equal(back.entries, x.entries)
    g = exp_matrix(x)
    back_g = group_from_jsonable(matrix_to_jsonable(g.entries))
    np.testing.assert_array_equal(back_g.entries, g.entries)


def test_deserializer_names_violated_constraint():
    with pytest.raises(MembershipError) as err:
        group_from_jsonable([[1.0, 0.5], [0.0, 1.0]])
    assert err.value.constraint == "unit_row_sum"
    assert err.value.residual == pytest.approx(0.5)


def test_operator_norm_small_operators(rng):
    # tiny operators get their full norm, not a truncated iterate
    for scale in (3e-7, 1e-9):
        for _ in range(10):
            op = ad_operator(random_algebra(rng, 3, scale))
            assert operator_norm(op) == pytest.approx(np.linalg.svd(op, compute_uv=False)[0],
                                              rel=1e-9)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_from_coords_matches_one_tensordot(rng, d):
    for scale in 10.0 ** rng.uniform(-9, 1, 300):
        c = scale * rng.standard_normal(d * d - d)
        assert from_coords(c, d).entries.tobytes() == reference_from_coords(c, d).entries.tobytes()


@pytest.mark.parametrize("d", [2, 3, 4])
def test_ad_stack_bit_identical_to_ad_operator(rng, d):
    xs = np.array([random_algebra(rng, d, scale).entries
                   for scale in 10.0 ** rng.uniform(-9, 0.5, 24)])
    looped = np.array([ad_operator(AlgebraVector(x)) for x in xs])
    assert np.array_equal(_ad_stack(xs), looped)
    assert np.array_equal(_ad_stack(xs.reshape(4, 6, d, d)).reshape(looped.shape), looped)
    norms = operator_norm(looped)
    assert norms.shape == (24,)
    assert np.array_equal(norms, [operator_norm(ad_operator(AlgebraVector(x))) for x in xs])


@pytest.mark.parametrize("d", [2, 3])
def test_ad_stack_of_an_empty_stack_is_empty(d):
    dim = d * d - d
    assert _ad_stack(np.zeros((0, d, d))).shape == (0, dim, dim)
    assert _ad_stack(np.zeros((3, 0, d, d))).shape == (3, 0, dim, dim)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("surface", [False, True])
def test_ball_coords_draw_what_uniform_and_norm_drew(d, surface):
    # radius * random() is numpy's uniform(0, radius) = 0 + radius * random(),
    # and sqrt(c @ c) is np.linalg.norm of a real vector
    def old_ball_coords(radius, rng):
        c = rng.standard_normal(d * d - d)
        r = radius if surface else rng.uniform(0.0, radius)
        return c * (r / np.linalg.norm(c))

    got_rng, old_rng = np.random.default_rng(11), np.random.default_rng(11)
    for radius in np.random.default_rng(12).uniform(0.0, 3.0, 2000):
        got = _ball_coords(d, radius, got_rng, surface)
        assert got.tobytes() == old_ball_coords(radius, old_rng).tobytes()


def test_operator_norm_bounds_40_digit_svd_from_above(rng):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        for d in (2, 3):
            for scale in np.geomspace(1e-9, 0.5, 100):
                m = ad_operator(random_algebra(rng, d, scale))
                exact = max(mpmath.svd_r(mpmath.matrix(m.tolist()), compute_uv=False))
                assert operator_norm(m) >= exact


# ---------------------------------------------------------------------------
# stacked exponential

@pytest.mark.parametrize("kind", [2, 3, "ad6"])
def test_expm_stack_bit_identical_to_loop(rng, kind):
    # norms from 0 to 3: unscaled matrices and ones squared up to three times;
    # "ad6" takes the 6x6 ad operators of 3x3 algebra elements, as the BCH suite does
    norms = np.concatenate([[0.0, 0.5, 1.0, 2.0], rng.uniform(0.0, 3.0, 396)])
    if kind == "ad6":
        mats = _ad_stack(rng.standard_normal((len(norms), 3, 3)) @ (np.eye(3) - 1 / 3))
    else:
        mats = rng.standard_normal((len(norms), kind, kind))
    mats *= (norms / np.linalg.norm(mats, axis=(1, 2)))[:, None, None]
    looped = np.array([reference_expm(m) for m in mats])
    assert np.array_equal(np.array([_expm(m) for m in mats]), looped)
    stacked = _expm(mats.reshape(8, -1, *mats.shape[1:])).reshape(mats.shape)
    assert np.array_equal(stacked, looped)


# ---------------------------------------------------------------------------
# stacked logarithm

# matrices without a principal log: singular, and with the eigenvalue -0.7
NO_LOG = {2: [[[0.5, 0.5], [0.5, 0.5]], [[0.2, 0.8], [0.9, 0.1]]],
          3: [np.full((3, 3), 1 / 3), [[0.2, 0.8, 0.0], [0.9, 0.1, 0.0], [0.0, 0.0, 1.0]]]}


def mixed_log_stack(rng, d):
    """exp of ball samples near I (|X| <= 0.2), beyond the Mercator switch
    (|X| <= 2.1) and five or more roots out (|X| = 8), with the two matrices
    without a log between them."""
    def ball(radius, n, surface=False):
        c = np.array([_ball_coords(d, radius, rng, surface) for _ in range(n)])
        return _expm(np.tensordot(c, _basis_stack(d), axes=1))
    singular, negative = np.array(NO_LOG[d], dtype=float)
    return np.concatenate([ball(0.2, 30), [singular], ball(2.1, 30), [negative],
                           ball(8.0, 10, surface=True)])


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("max_sqrt", [60, 3])
def test_logm_stack_rows_match_the_per_matrix_log(rng, d, max_sqrt):
    mats = mixed_log_stack(rng, d)
    logs, ok, reasons = _logm_stack(mats, max_sqrt)
    assert set(reasons) == set(np.flatnonzero(~ok).tolist())
    for i, g in enumerate(mats):
        try:
            ref = reference_logm(g, max_sqrt)
        except OutOfDomainError as exc:
            assert not ok[i] and reasons[i] == str(exc)
            assert np.isnan(logs[i]).all()
            continue
        assert ok[i]
        assert np.array_equal(logs[i], ref)
    # the singular iterate, Denman-Beavers non-convergence and, under the
    # reduced cap, the square-root count each fail their rows
    kinds = {"singular iterate", "did not converge", "did not contract"}
    seen = {k for k in kinds if any(k in msg for msg in reasons.values())}
    assert seen == (kinds if max_sqrt == 3 else kinds - {"did not contract"})
    assert ok[:30].all()
    if max_sqrt == 60:
        assert np.flatnonzero(~ok).tolist() == [30, 61]


def test_logm_is_one_row_of_the_stack(rng):
    mats = mixed_log_stack(rng, 2)
    logs, ok, reasons = _logm_stack(mats)
    for i, g in enumerate(mats):
        if ok[i]:
            assert np.array_equal(_logm(g), logs[i])
        else:
            with pytest.raises(OutOfDomainError) as info:
                _logm(g)
            assert str(info.value) == reasons[i]


def test_logm_stack_bad_rows_leave_the_others_unchanged(rng):
    mats = mixed_log_stack(rng, 2)
    logs, ok, _ = _logm_stack(mats)
    # the singular row makes the stacked inverse raise, and that step then
    # inverts every matrix on its own
    assert not ok[30] and not ok[61]
    alone, ok_alone, _ = _logm_stack(mats[ok])
    assert ok_alone.all()
    assert np.array_equal(logs[ok], alone)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_logm_rejects_non_finite_entries(bad):
    g = np.full((2, 2), bad)
    with pytest.raises(OutOfDomainError, match="^matrix logarithm: non-finite entries$"):
        _logm(g)
    g = np.eye(2)
    g[1, 0] = bad
    with pytest.raises(OutOfDomainError, match="non-finite entries"):
        _logm(g)


def test_logm_stack_non_finite_rows_leave_the_others_unchanged(rng):
    mats = mixed_log_stack(rng, 2)
    logs, ok, reasons = _logm_stack(mats)
    # one NaN row among the small ones, one inf row among those that take roots
    bad = mats.copy()
    bad[5, 0, 1] = np.nan
    bad[40, 1, 1] = np.inf
    bad_logs, bad_ok, bad_reasons = _logm_stack(bad)
    assert bad_reasons == {**reasons, 5: "matrix logarithm: non-finite entries",
                           40: "matrix logarithm: non-finite entries"}
    assert np.flatnonzero(~bad_ok).tolist() == sorted(bad_reasons)
    assert np.isnan(bad_logs[[5, 40]]).all()
    assert np.array_equal(bad_logs[bad_ok], logs[bad_ok])


@pytest.mark.parametrize("d", [2, 3])
def test_injectivity_report_matches_a_per_sample_loop(d):
    # radius 2.1: most samples take square roots before the Mercator series
    rng = np.random.default_rng(5)
    max_rt = max_log = 0.0
    for _ in range(300):
        x = from_coords(_ball_coords(d, 2.1, rng), d).entries
        g = _expm(x)
        back = reference_logm(g)
        max_rt = max(max_rt, float(np.linalg.norm(back - x)))
        if np.linalg.norm(g - np.eye(d)) <= 0.4:
            max_log = max(max_log, float(np.linalg.norm(back)))
    report = validate_injectivity(d, radius=2.1, n_samples=300, seed=5)
    assert (report.max_roundtrip_error, report.max_log_norm) == (max_rt, max_log)
