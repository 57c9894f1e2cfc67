"""Tests of the benchmark's oracles.

    python3 -m pytest perfbench/test_oracles.py -q
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.optimize import minimize

import oracles

S = 1.0 - math.exp(-1.0)
SRC = Path(__file__).resolve().parent.parent / "src"


# -- two-state rate ------------------------------------------------------------

def test_line_endpoint_lies_on_the_det_line():
    for c in (0.2, 0.58, 0.7):
        g = oracles.line_endpoint(c)
        assert abs(g[0, 1] - c * S) < 1e-15
        assert abs(g[1, 0] - (1 - c) * S) < 1e-15
        assert oracles.endpoint_reachable(g)
    assert not oracles.endpoint_reachable(np.array([[0.7, 0.3], [0.2, 0.8]]))


def test_minimal_cost_is_zero_at_the_mean_and_symmetric():
    assert oracles.minimal_cost(0.5 * S) == pytest.approx(0.0, abs=1e-14)
    for c in (0.58, 0.7, 0.8):
        assert oracles.minimal_cost(c * S) == pytest.approx(
            oracles.minimal_cost((1 - c) * S), abs=1e-12)


def test_minimal_cost_lies_below_the_constant_split():
    for c in (0.52, 0.58, 0.7, 0.8):
        low, high = oracles.minimal_cost(c * S), oracles.split_cost(c)
        assert 0.0 < low < high


def _piecewise_minimum(m12, k=32):
    """Least cost over splits p constant on k cells, by SLSQP: an upper bound
    for the minimal cost that tends to it as k grows."""
    edges = np.linspace(0.0, 1.0, k + 1)
    mass = np.exp(-(1.0 - edges[1:])) - np.exp(-(1.0 - edges[:-1]))  # int of e^{-(1-t)}
    res = minimize(lambda p: sum(oracles.split_cost(v) for v in p) / k,
                   np.full(k, m12 / S),
                   constraints=[{"type": "eq", "fun": lambda p: p @ mass - m12}],
                   bounds=[(1e-9, 1 - 1e-9)] * k, method="SLSQP",
                   options={"ftol": 1e-14, "maxiter": 500})
    assert res.success
    return res.fun


def test_minimal_cost_matches_a_direct_minimization():
    for c in (0.58, 0.8):
        exact = oracles.minimal_cost(c * S)
        approx = _piecewise_minimum(c * S)
        assert exact <= approx + 1e-9
        assert approx - exact < 1e-3 * exact


def _report(values, residuals=None):
    return {"discretized": {str(m): v for m, v in values.items()},
            "constraint_residuals": {str(m): (residuals or {}).get(m, 1e-15) for m in values}}


def test_check_rate_ladder_accepts_a_valid_ladder_and_names_each_fault():
    g = oracles.line_endpoint(0.7)
    low, high = oracles.minimal_cost(0.7 * S), oracles.split_cost(0.7)
    good = {4: low + 4e-4, 8: low + 1e-4, 16: low + 2e-5}
    assert oracles.check_rate_ladder(_report(good), g) == []
    below = {**good, 16: low - 1e-6}
    assert "outside" in oracles.check_rate_ladder(_report(below), g)[0]
    above = {**good, 4: high + 1e-6}
    assert "outside" in oracles.check_rate_ladder(_report(above), g)[0]
    rising = {4: low + 1e-4, 8: low + 3e-4, 16: low + 2e-5}
    assert "rises" in oracles.check_rate_ladder(_report(rising), g)[0]
    assert "residual" in oracles.check_rate_ladder(_report(good, {8: 1e-6}), g)[0]
    far = {4: high, 8: high, 16: high}
    assert "within max(1%, 1e-4)" in oracles.check_rate_ladder(_report(far), g)[-1]


def test_check_rate_ladder_requires_inf_off_the_det_line():
    g = np.array([[0.7, 0.3], [0.2, 0.8]])
    assert oracles.check_rate_ladder(_report({4: math.inf, 8: math.inf}), g) == []
    assert len(oracles.check_rate_ladder(_report({4: math.inf, 8: 0.3}), g)) == 1


# -- walk certificate ------------------------------------------------------------

def test_series_constant_matches_its_partial_sums():
    q = math.sqrt(2.0) - 1.0
    partial = sum(q ** (m - 1) / (m * (m + 1)) for m in range(1, 80))
    assert oracles.series_constant() == pytest.approx(partial, rel=1e-15)
    assert oracles.deviation_constant(0.0) == 0.0


def test_ad_norm_is_the_largest_bracket_ratio():
    rng = np.random.default_rng(7)
    for d in (2, 3):
        q = oracles.algebra_frame(d)
        assert np.allclose(q.T @ q, np.eye(d * d - d))
        x = (q @ rng.standard_normal(d * d - d)).reshape(d, d)
        norm = oracles.ad_norm(x)
        assert norm <= 2.0 * np.linalg.norm(x) + 1e-12
        ys = (q @ rng.standard_normal((d * d - d, 2000))).T.reshape(-1, d, d)
        ratios = [np.linalg.norm(x @ y - y @ x) / np.linalg.norm(y) for y in ys]
        assert max(ratios) <= norm + 1e-12
        assert max(ratios) > 0.9 * norm
    a, b = oracles.two_state_atoms()
    assert oracles.ad_norm(a) == pytest.approx(math.sqrt(2.0), rel=1e-14)
    assert oracles.ad_norm(b) == pytest.approx(math.sqrt(2.0), rel=1e-14)


def _walk(n, seed=0):
    a, b = oracles.two_state_atoms()
    idx = np.random.default_rng(seed).integers(0, 2, size=n)
    steps = [expm(a / n), expm(b / n)]
    g = np.eye(2)
    for i in idx:
        g = g @ steps[i]
    return g


def test_check_walk_accepts_a_true_walk_and_rejects_a_moved_endpoint():
    m = 20
    bound = oracles.replacement_bound(oracles.two_state_atoms(), m)
    g = _walk(400)
    res = {"endpoint": g.tolist(),
           "deviation_certificate": {"max_deviation": 0.5 * bound, "checked_steps": 20}}
    assert oracles.check_walk(res, 400, m) == []
    moved = dict(res, endpoint=(g + [[0.01, -0.01], [0.0, 0.0]]).tolist())
    assert "det" in oracles.check_walk(moved, 400, m)[0]
    loose = dict(res, deviation_certificate={"max_deviation": 2 * bound, "checked_steps": 20})
    assert "exceeds" in oracles.check_walk(loose, 400, m)[0]


def test_check_walk_csv(tmp_path):
    n = 50
    step = math.sqrt(2.0) / n
    path = tmp_path / "walk.csv"

    def write(rows):
        path.write_text("k,proxy_distance,increment_norm_over_n\n"
                        + "".join(f"{k},{p!r},{i!r}\n" for k, p, i in rows))

    write([(k, step * (1 + 1e-12), step) for k in range(1, n + 1)])
    assert oracles.check_walk_csv(str(path), n) == []
    write([(k, step * (1 + 1e-6), step) for k in range(1, n + 1)])
    assert "proxy_distance" in oracles.check_walk_csv(str(path), n)[0]
    write([(k, step, step) for k in range(1, n)])
    assert "rows" in oracles.check_walk_csv(str(path), n)[0]


# -- Monte Carlo -------------------------------------------------------------------

def _row(n, rate, lo=None, hi=None, p=None):
    return {"n": n, "rate": rate, "rate_lo": rate if lo is None else lo,
            "rate_hi": rate if hi is None else hi,
            "p": math.exp(-n * rate) if p is None else p}


def test_curve_checks():
    assert oracles.check_plain_curve([_row(20, 0.07), _row(160, 0.003)]) == []
    assert oracles.check_plain_curve([_row(20, 0.07), _row(160, 0.06)])
    assert oracles.check_plain_curve([_row(20, 0.01), _row(160, 0.03, lo=0.02)])
    target = oracles.minimal_cost(0.8 * S)
    assert oracles.check_tilted_curve([_row(160, target)], target) == []
    assert "outside" in oracles.check_tilted_curve([_row(160, 2 * target)], target)[0]
    under = oracles.check_tilted_curve([_row(20000, math.inf, p=0.0)], target)
    assert "underflow" in under[0]


# -- exp/log self-test ---------------------------------------------------------------

def test_max_contraction_norm_is_below_one_at_radius_0_2():
    # ||ad X|| <= sqrt(2) |X| at d <= 3, so the norm is at most e^{0.4 sqrt 2} - 1 < 1
    for d in (2, 3):
        worst = oracles.max_contraction_norm(d, 0.2, 20, 5)
        assert 0.1 < worst <= math.expm1(0.4 * math.sqrt(2.0))


def test_injectivity_max_log_stays_inside_the_ball():
    for d in (2, 3):
        worst = oracles.injectivity_max_log(d, 0.4, 0.7, 200, 5)
        assert 0.3 < worst <= 0.7
        assert oracles.injectivity_max_log(d, 0.0, 0.7, 50, 5) == 0.0


def _selftest_block(d, samples, seed, **changes):
    block = {
        "injectivity": {"eps": 0.4, "radius": 0.7, "max_roundtrip_error": 1e-15,
                        "max_log_norm": oracles.injectivity_max_log(d, 0.4, 0.7, samples, seed),
                        "passed": True},
        "bch_radius": {"radius": 0.2, "series_converges": True,
                       "max_contraction_norm": oracles.max_contraction_norm(
                           d, 0.2, max(20, samples // 5), seed)},
        "model_kappa": 1.0 if d == 2 else None,
        "passed": True,
    }
    block["bch_radius"]["within_proof_constant"] = (
        block["bch_radius"]["max_contraction_norm"] <= oracles.SQRT2M1)
    for key, value in changes.items():
        section, _, field = key.partition("__")
        if field:
            block[section][field] = value
        else:
            block[section] = value
    return block


def test_check_selftest_accepts_a_true_block_and_names_each_fault():
    assert oracles.check_selftest(_selftest_block(2, 100, 9), 2, 100, 9, model_kappa=1.0) == []
    assert oracles.check_selftest(_selftest_block(3, 100, 9), 3, 100, 9) == []
    true = _selftest_block(3, 100, 9)
    faults = {
        "round trip": {"injectivity__max_roundtrip_error": 1e-9},
        "max_log_norm": {"injectivity__max_log_norm": true["injectivity"]["max_log_norm"] * 0.99},
        "max_contraction_norm": {
            "bch_radius__max_contraction_norm": true["bch_radius"]["max_contraction_norm"] * 0.999},
        "series_converges": {"bch_radius__series_converges": False},
        "marked failed": {"passed": False},
    }
    for words, changes in faults.items():
        problems = oracles.check_selftest(_selftest_block(3, 100, 9, **changes), 3, 100, 9)
        assert any(words in p for p in problems), (words, problems)
    problems = oracles.check_selftest(_selftest_block(2, 100, 9, model_kappa=0.5), 2, 100, 9,
                                      model_kappa=1.0)
    assert any("model_kappa" in p for p in problems)


def test_kappa_of_the_two_state_atoms_is_one():
    assert oracles.kappa(oracles.two_state_atoms(1.0)) == pytest.approx(1.0, abs=1e-14)


@pytest.mark.skipif(not (SRC / "liewalk").is_dir(), reason="needs the liewalk sources")
def test_the_oracles_agree_with_the_programs_self_test():
    sys.path.insert(0, str(SRC))
    from liewalk.bch import validate_bch_radius
    from liewalk.lie import _basis_stack, validate_injectivity

    for d in (2, 3):
        assert np.array_equal(oracles.suite_frame(d), _basis_stack(d))
        rad = validate_bch_radius(d, 0.2, n_samples=30, seed=42)
        want = oracles.max_contraction_norm(d, 0.2, 30, 42)
        assert rad.max_contraction_norm == pytest.approx(want, rel=1e-12)
        inj = validate_injectivity(d, 0.4, 0.7, n_samples=300, seed=42)
        assert inj.max_log_norm == pytest.approx(
            oracles.injectivity_max_log(d, 0.4, 0.7, 300, 42), abs=1e-13)
