"""The product and log-norm kernels against manual loops and the general log."""

import numpy as np
import pytest

from liewalk._kernels import indexed_products, partial_products, stoch2_log_norms
from liewalk.lie import OutOfDomainError, _expm, _logm


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


def test_indexed_products_against_manual(step_mats, rng):
    idx = rng.integers(0, 3, size=(5, 30)).astype(np.uint8)
    left = np.linalg.inv(step_mats[0])
    got = indexed_products(step_mats, idx, left)
    for s in range(5):
        acc = left.copy()
        for j in range(30):
            acc = acc @ step_mats[idx[s, j]]
        np.testing.assert_allclose(got[s], acc, atol=1e-13)


def test_stoch2_log_norms_vs_general_log(rng):
    mats = []
    for _ in range(100):
        a = rng.standard_normal(2) * 0.4
        x = np.array([[-a[0], a[0]], [a[1], -a[1]]])
        mats.append(_expm(x))
    mats = np.array(mats)
    fast = stoch2_log_norms(mats)
    for i in range(100):
        assert fast[i] == pytest.approx(np.linalg.norm(_logm(mats[i])), abs=1e-12)


def test_stoch2_log_norms_out_of_domain():
    bad = np.array([[[-0.5, 1.5], [1.5, -0.5]]])  # spectrum {1, -2}
    assert np.isinf(stoch2_log_norms(bad))[0]
    with pytest.raises(OutOfDomainError):
        _logm(bad[0])

