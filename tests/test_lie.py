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
from liewalk.lie import _expm, algebra_dim, operator_norm
from liewalk.serialize import algebra_from_jsonable, group_from_jsonable, matrix_to_jsonable


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
    assert ad_operator(z).norm() == 0.0


def test_ad_homogeneity(rng):
    x = random_algebra(rng, 3, 0.8)
    for c in (-3.0, 0.5, 7.0):
        assert ad_operator(c * x).norm_svd() == pytest.approx(
            abs(c) * ad_operator(x).norm_svd(), rel=1e-12)


def test_ad_norm_matches_svd_oracle(rng):
    for _ in range(30):
        x = random_algebra(rng, 3, rng.uniform(0.1, 2.0))
        op = ad_operator(x)
        assert abs(op.norm() - op.norm_svd()) < 1e-10


def test_ad_norm_lipschitz_in_norm(rng):
    # measure kappa_d once by SVD sweep, then check ||ad_X|| <= kappa |X|
    for d in (2, 3):
        kappa = max(ad_operator(random_algebra(rng, d, 1.0)).norm_svd()
                    for _ in range(300))
        for _ in range(100):
            x = random_algebra(rng, d, rng.uniform(0.01, 3.0))
            assert ad_operator(x).norm_svd() <= kappa * x.norm * (1 + 1e-9)


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
        rhs = from_coords(_expm(ad_operator(x).matrix) @ coords(y), 2)
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
    # the power-iteration stop is relative, so tiny operators are not cut off
    # at their first Rayleigh quotient
    for scale in (3e-7, 1e-9):
        for _ in range(10):
            op = ad_operator(random_algebra(rng, 3, scale))
            assert op.norm() == pytest.approx(op.norm_svd(), rel=1e-9)


# ---------------------------------------------------------------------------
# stacked exponential

@pytest.mark.parametrize("d", [2, 3])
def test_expm_stack_bit_identical_to_loop(rng, d):
    # norms from 0 to 3: unscaled matrices and ones squared up to three times
    norms = np.concatenate([[0.0, 0.5, 1.0, 2.0], rng.uniform(0.0, 3.0, 60)])
    mats = rng.standard_normal((len(norms), d, d))
    mats *= (norms / np.linalg.norm(mats, axis=(1, 2)))[:, None, None]
    stacked = _expm(mats.reshape(8, -1, d, d)).reshape(mats.shape)
    assert np.array_equal(stacked, np.array([_expm(m) for m in mats]))
