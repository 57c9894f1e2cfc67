import numpy as np
import pytest

from liewalk import (
    AlgebraVector,
    InvalidArgumentError,
    algebra_basis,
    example_model,
    exp_cone_certificate,
    exp_matrix,
    is_group_member,
    is_positive_cone,
)
from liewalk.lie import algebra_dim


def random_cone(rng, d, norm_cap):
    # nonnegative off-diagonals, diagonals set to minus the row remainder
    a = rng.uniform(0, 1, size=(d, d))
    np.fill_diagonal(a, 0.0)
    a -= np.diag(a.sum(axis=1))
    n = np.linalg.norm(a)
    if n > 0:
        a *= rng.uniform(0.1, norm_cap) / n
    return AlgebraVector(a)


def test_identity_is_group_member():
    ok, report = is_group_member(np.eye(3))
    assert ok and report["row_sum_residual"] == 0.0


def test_closed_form_step_is_group_member():
    alpha = 1.0
    step = [[np.exp(-alpha), 1 - np.exp(-alpha)], [0.0, 1.0]]
    ok, _ = is_group_member(step)
    assert ok


def test_singular_matrix_rejected():
    ok, report = is_group_member([[0.5, 0.5], [0.5, 0.5]])
    assert not ok and abs(report["det"]) < 1e-12


def test_non_square_rejected():
    with pytest.raises(InvalidArgumentError):
        is_group_member(np.ones((2, 3)))


@pytest.mark.parametrize("alpha", [0.1, 1.0, 5.0])
def test_model_atoms_in_cone(alpha):
    model = example_model(alpha, alpha)
    assert is_positive_cone(model.atom_a)
    assert is_positive_cone(model.atom_b)


def test_zero_matrix_in_cone():
    assert is_positive_cone(AlgebraVector(np.zeros((3, 3))))


def test_cone_sign_check():
    assert is_positive_cone(AlgebraVector([[-1.0, 1.0], [1.0, -1.0]]))
    assert not is_positive_cone(AlgebraVector([[1.0, -1.0], [-1.0, 1.0]]))


def test_cone_certificate_zero():
    cert = exp_cone_certificate(AlgebraVector(np.zeros((2, 2))))
    assert cert.shift == 0.0 and cert.passed


def test_cone_certificate_example_matrix():
    cert = exp_cone_certificate(AlgebraVector([[-2.0, 2.0], [0.0, 0.0]]))
    assert cert.shift == 2.0
    assert cert.identity_residual <= 1e-10
    assert cert.min_shifted_entry >= -1e-12
    assert cert.passed


def test_cone_certificate_rejects_outside_cone():
    with pytest.raises(InvalidArgumentError):
        exp_cone_certificate(AlgebraVector([[1.0, -1.0], [-1.0, 1.0]]))


def taylor_exp(a, terms=60):
    acc = np.eye(a.shape[0])
    term = np.eye(a.shape[0])
    for m in range(1, terms + 1):
        term = term @ a / m
        acc = acc + term
    return acc


def test_cone_certificate_random_d4(rng):
    for _ in range(20):
        x = random_cone(rng, 4, 3.0)
        cert = exp_cone_certificate(x)
        assert cert.passed
        g = taylor_exp(x.entries)
        np.testing.assert_allclose(g.sum(axis=1), 1.0, atol=1e-9)
        assert g.min() >= -1e-12


def test_cone_to_semigroup_property(rng):
    # exp of the cone stays an invertible transition matrix
    for d in (2, 3, 4):
        for _ in range(340):
            g = exp_matrix(random_cone(rng, d, 3.0)).entries
            assert g.min() >= -1e-12
            np.testing.assert_allclose(g.sum(axis=1), 1.0, atol=1e-10)


def test_algebra_dimension_count():
    for d in (2, 3, 4, 5):
        assert len(algebra_basis(d)) == d * d - d == algebra_dim(d)


# ---------------------------------------------------------------------------
# the reference model

def model_steps(model, n):
    """The walk's one-step maps exp(A/n), exp(B/n), from the exponential."""
    return exp_matrix(model.atom_a * (1 / n)), exp_matrix(model.atom_b * (1 / n))


def closed_form_steps(alpha, beta, t):
    """exp(tA), exp(tB) of the two-state model in closed form."""
    ea, eb = np.exp(-t * alpha), np.exp(-t * beta)
    return np.array([[ea, 1 - ea], [0, 1]]), np.array([[1, 0], [1 - eb, eb]])


def test_model_step_closed_forms():
    model = example_model(1.0, 2.0)
    for n in (1, 10, 1000):
        sa, sb = model_steps(model, n)
        ca, cb = closed_form_steps(1.0, 2.0, 1 / n)
        np.testing.assert_allclose(sa.entries, ca, atol=1e-15)
        np.testing.assert_allclose(sb.entries, cb, atol=1e-15)


def test_model_steps_approach_identity():
    model = example_model(1.0, 1.0)
    sa, _ = model_steps(model, 10 ** 8)
    np.testing.assert_allclose(sa.entries, np.eye(2), atol=1e-7)


def test_model_rejects_bad_parameters():
    for bad in ((0.0, 1.0), (1.0, -2.0), (np.inf, 1.0), (1.0, np.nan)):
        with pytest.raises(InvalidArgumentError):
            example_model(*bad)


def test_model_distribution(model, dist):
    assert dist.n_atoms == 2
    assert dist.support_bound == pytest.approx(np.sqrt(2.0))
    np.testing.assert_allclose(dist.mean.entries, model.mean_increment.entries)


def test_product_closure_of_steps(rng, model):
    sa, sb = model_steps(model, 50)
    prod = np.eye(2)
    for _ in range(200):
        prod = prod @ (sa.entries if rng.random() < 0.5 else sb.entries)
        ok, _ = is_group_member(prod)
        assert ok


def test_weights_sum_validation():
    from liewalk import IncrementDistribution

    a = AlgebraVector([[-1.0, 1.0], [0.0, 0.0]])
    with pytest.raises(InvalidArgumentError):
        IncrementDistribution(atoms=(a, a), weights=(0.6, 0.5))
    with pytest.raises(InvalidArgumentError):
        IncrementDistribution(atoms=(a,), weights=(-1.0,))


def test_point_mass_distribution():
    from liewalk import IncrementDistribution

    a = AlgebraVector([[-1.0, 1.0], [0.0, 0.0]])
    pm = IncrementDistribution.point_mass(a)
    assert pm.support_bound == a.norm
    np.testing.assert_array_equal(pm.mean.entries, a.entries)


def test_mixed_dimension_rejected():
    from liewalk import IncrementDistribution

    a2 = AlgebraVector([[-1.0, 1.0], [0.0, 0.0]])
    a3 = AlgebraVector(np.zeros((3, 3)))
    with pytest.raises(InvalidArgumentError):
        IncrementDistribution(atoms=(a2, a3), weights=(0.5, 0.5))
