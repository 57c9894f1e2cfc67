import numpy as np
import pytest
import scipy.optimize

from liewalk import (
    AlgebraVector,
    GroupElement,
    IncrementDistribution,
    InvalidArgumentError,
    OutOfDomainError,
    SampledPath,
    discretized_rate,
    example_model,
    exp_matrix,
    legendre,
    logarithmic_derivative,
    rate_along_path,
    rate_report,
    refinement_ladder,
)
from liewalk.lie import _expm
from liewalk.rate import _penalty
from logm_reference import logm as reference_logm
from test_acceptance import sampled_minimizer, segment_mismatch
from test_legendre import generator_law_3x3
from two_state_paths import (
    ClosedFormPath2,
    constant_split_path,
    line_endpoint,
    minimizing_path_s2,
    theta_split_path,
    vertex_path,
)


# ---------------------------------------------------------------------------
# logarithmic derivative

def test_one_parameter_derivative_constant():
    g, u = line_endpoint(0.8)
    path = constant_split_path(1.0, g)
    for t in (0.0, 0.25, 0.7, 1.0):
        assert (logarithmic_derivative(path, t) - u).norm < 1e-12


def test_sampled_path_central_difference():
    # a sampled path's velocity, its segment log over the segment's length, is
    # the central difference of the samples across the segment; on a sampled
    # one-parameter subgroup it is the generator, at the ends too
    x = AlgebraVector([[-0.6, 0.6], [0.4, -0.4]])
    ts = np.linspace(0, 1, 201)
    mats = np.array([_expm(t * x.entries) for t in ts])
    path = SampledPath(ts, mats)
    for t in (0.0, 0.1, 0.5, 0.9, 1.0):
        assert (logarithmic_derivative(path, t) - x).norm < 1e-11


def test_central_difference_is_second_order():
    # at a segment's midpoint the segment log over its length is a central
    # difference of the sampled curve: halving dt cuts its error ~4x
    path = theta_split_path()
    errors = []
    for n in (100, 200, 400):
        ts = np.linspace(0, 1, n + 1)
        sampled = SampledPath(ts, np.array([path.point(t) for t in ts]))
        errors.append(max((logarithmic_derivative(sampled, t) - path.log_derivative(t)).norm
                          for t in 0.5 * (ts[:-1] + ts[1:])))
    for coarse, fine in zip(errors, errors[1:]):
        assert 3.5 < coarse / fine < 4.5, errors


def test_derivative_requires_interior_window():
    # t must lie in [0, 1]; t = 0 and t = 1 read the first and last segments
    path = theta_split_path()
    ts = np.linspace(0, 1, 101)
    sampled = SampledPath(ts, np.array([path.point(t) for t in ts]))
    first = logarithmic_derivative(sampled, 0.0)
    last = logarithmic_derivative(sampled, 1.0)
    assert np.array_equal(first.entries, logarithmic_derivative(sampled, 0.005).entries)
    assert np.array_equal(last.entries, logarithmic_derivative(sampled, 0.995).entries)
    assert np.array_equal(first.entries, sampled._segment_logs[0] / ts[1])
    with pytest.raises(InvalidArgumentError):
        logarithmic_derivative(sampled, 1.5)


def test_sampled_path_validation():
    with pytest.raises(InvalidArgumentError):
        SampledPath([0.0, 0.5], np.array([np.eye(2)]))
    with pytest.raises(InvalidArgumentError):
        SampledPath([0.0, 0.5, 0.5, 1.0], np.tile(np.eye(2), (4, 1, 1)))
    with pytest.raises(InvalidArgumentError):
        SampledPath([0.0, 1.0], np.array([2 * np.eye(2), np.eye(2)]))


# ---------------------------------------------------------------------------
# quadrature along paths

def test_rate_vanishes_on_mean_flow(dist):
    g, _ = line_endpoint(0.5)
    path = constant_split_path(1.0, g)
    assert rate_along_path(dist, path) <= 1e-10


def test_rate_on_vertex_path(dist):
    val = rate_along_path(dist, vertex_path(), quad_nodes=4, subintervals=8)
    assert val == pytest.approx(np.log(2.0), abs=1e-10)


def test_rate_constant_split(dist):
    for c in (0.65, 0.8):
        g, u = line_endpoint(c)
        val = rate_along_path(dist, constant_split_path(1.0, g),
                              quad_nodes=6, subintervals=8)
        expected = c * np.log(c) + (1 - c) * np.log(1 - c) + np.log(2)
        assert val == pytest.approx(expected, abs=1e-9)


def test_rate_infinite_off_domain(dist):
    # velocity leaves the finiteness line: total transfer too fast
    path = ClosedFormPath2(
        g1=lambda t: 0.8 * t, g2=lambda t: 0.0,
        d1=lambda t: 0.8, d2=lambda t: 0.0)
    assert np.isinf(rate_along_path(dist, path, quad_nodes=2, subintervals=4))


def test_theta_split_rate_exceeds_constant_split(dist):
    # same endpoint, oscillating split: strictly more expensive than the
    # constant split (the conjugate is strictly convex on the line interior)
    path = theta_split_path()
    g = GroupElement(path.point(1.0))
    osc = rate_along_path(dist, path, quad_nodes=6, subintervals=16)
    const = rate_along_path(dist, constant_split_path(1.0, g),
                            quad_nodes=6, subintervals=16)
    assert osc > const + 1e-3


# ---------------------------------------------------------------------------
# the constant-split path

def test_optimal_path_endpoint_reproduction():
    for c in (0.0, 0.3, 1.0):
        g, _ = line_endpoint(c)
        path = constant_split_path(1.0, g)
        assert np.abs(path.point(1.0) - g.entries).max() < 1e-12
        assert np.abs(path.point(0.0) - np.eye(2)).max() == 0.0


def test_optimal_path_total_flow_ode():
    g, _ = line_endpoint(0.7, alpha=1.3)
    path = constant_split_path(1.3, g)
    for t in (0.1, 0.6, 0.95):
        psi = path.g1(t) + path.g2(t)
        dpsi = path.d1(t) + path.d2(t)
        assert dpsi == pytest.approx(1.3 * (1 - psi), abs=1e-12)
    assert path.g1(0.0) + path.g2(0.0) == 0.0


def test_optimal_path_mean_split_is_one_parameter(dist, model):
    g, _ = line_endpoint(0.5)
    path = constant_split_path(1.0, g)
    for t in (0.2, 0.5, 0.9):
        expected = exp_matrix(t * model.mean_increment).entries
        np.testing.assert_allclose(path.point(t), expected, atol=1e-13)


def test_optimal_path_rejects_off_constraint():
    g = GroupElement([[0.7, 0.3], [0.2, 0.8]])  # 0.3 + 0.2 != 1 - e^-1
    with pytest.raises(InvalidArgumentError):
        constant_split_path(1.0, g)


# ---------------------------------------------------------------------------
# discretized minimum

def test_discretized_zero_at_mean(dist, model):
    g = exp_matrix(model.mean_increment)
    for m in (4, 8):
        res = discretized_rate(dist, g, m)
        assert res.value <= 1e-8
        assert res.constraint_residual < 1e-9
        for seg in res.segments:
            assert (seg - (1.0 / m) * model.mean_increment).norm < 1e-6


def test_discretized_single_segment_is_conjugate(dist):
    g, u = line_endpoint(0.63)
    res = discretized_rate(dist, g, 1)
    assert res.value == pytest.approx(legendre(dist, u).value, abs=1e-9)


def exact_two_segment_scan(dist, g, grid=4001):
    """Independent oracle: exhaustive scan of the one-parameter family of
    feasible two-segment splits (second segment closed by the exact log)."""
    from liewalk.legendre import _support_geometry, lstar_interior_stack

    geom = _support_geometry(dist)
    mx1 = geom.xbar + np.linspace(-0.72, 0.72, grid)[:, None, None] * geom.frame[0]
    mx2 = np.full_like(mx1, np.nan)  # a split with no log stays NaN, which costs +inf
    for k, first in enumerate(_expm(mx1 / 2.0)):
        try:
            mx2[k] = 2.0 * reference_logm(np.linalg.solve(first, g.entries))
        except (OutOfDomainError, np.linalg.LinAlgError):
            pass
    starts = np.zeros((grid, geom.rank))
    v1, _ = lstar_interior_stack(geom, mx1, starts)
    v2, _ = lstar_interior_stack(geom, mx2, starts)
    return float(np.min(0.5 * (v1 + v2)))


def test_discretized_two_segments_matches_scan_oracle(dist):
    g, _ = line_endpoint(0.8)
    oracle = exact_two_segment_scan(dist, g)
    res = discretized_rate(dist, g, 2)
    assert res.value == pytest.approx(oracle, abs=2e-5)
    assert res.constraint_residual < 1e-9


def test_discretized_beats_constant_split(dist):
    # ordered exponentials reach the endpoint with cheaper mixes than the
    # constant-velocity curve: the variational minimum is strictly below
    g, u = line_endpoint(0.8)
    res = discretized_rate(dist, g, 4)
    const_cost = legendre(dist, u).value
    assert res.value < const_cost - 5e-3


def test_refinement_monotone(dist):
    g, _ = line_endpoint(0.7)
    ladder = refinement_ladder(dist, g, [2, 4, 8])
    assert ladder[4].value <= ladder[2].value + 1e-6
    assert ladder[8].value <= ladder[4].value + 1e-6


def test_normalized_consistency_moderate_endpoints(dist):
    # |discretized(32) - quadrature| / max(1, value) stays below 1e-2 for
    # endpoints of moderate mixture; the quadrature runs along the
    # constant-split path, an upper bound that is not the minimizer off
    # c = 1/2, so the normalized gap grows with distance from the mean
    # (acceptance criterion 5 compares against the minimizing path instead)
    for c in (0.55, 0.65, 0.7):
        g, _ = line_endpoint(c)
        ladder = refinement_ladder(dist, g, [2, 4, 8, 16, 32])
        quad = rate_along_path(dist, constant_split_path(1.0, g),
                               quad_nodes=6, subintervals=16)
        gap = abs(ladder[32].value - quad)
        assert gap / max(1.0, quad) <= 0.01, (c, gap)


def test_discretized_values_nonnegative(dist):
    for c in (0.5, 0.7):
        g, _ = line_endpoint(c)
        res = discretized_rate(dist, g, 4)
        assert res.value >= -1e-12


def test_discretized_seed_path(dist):
    g, u = line_endpoint(0.6)
    seed = [0.25 * u for _ in range(4)]
    res = discretized_rate(dist, g, 4, seed_segments=seed)
    assert np.isfinite(res.value)
    assert res.constraint_residual < 1e-9


def test_discretized_point_mass_endpoint():
    x = AlgebraVector([[-0.4, 0.4], [0.3, -0.3]])
    pm = IncrementDistribution.point_mass(x)
    res = discretized_rate(pm, exp_matrix(x), 4)
    assert res.value == pytest.approx(0.0, abs=1e-10)
    off = exp_matrix(AlgebraVector([[-0.5, 0.5], [0.1, -0.1]]))
    res_off = discretized_rate(pm, off, 4)
    assert np.isinf(res_off.value)


def test_point_mass_has_no_variables():
    # its one segment list reaches exp(x) at every m, and nothing else on
    # the determinant line: this endpoint has the trace of x
    x = AlgebraVector([[-0.4, 0.4], [0.3, -0.3]])
    pm = IncrementDistribution.point_mass(x)
    for m in (1, 4):
        res = discretized_rate(pm, exp_matrix(x), m)
        assert res.value == pytest.approx(0.0, abs=1e-10)
        assert res.constraint_residual <= 1e-12 and len(res.segments) == m
    on_line = exp_matrix(AlgebraVector([[-0.5, 0.5], [0.2, -0.2]]))
    res = discretized_rate(pm, on_line, 4)
    assert np.isinf(res.value) and res.segments is None
    assert res.diagnostics["reason"].startswith("point mass")


# ---------------------------------------------------------------------------
# convexity/averaging and segment-log consistency on explicit paths

def quadrature_segment_integral(path, t0, t1, nodes=24):
    xs, ws = np.polynomial.legendre.leggauss(nodes)
    mid, half = (t0 + t1) / 2, (t1 - t0) / 2
    acc = np.zeros((2, 2))
    for xi, wi in zip(xs, ws):
        acc += half * wi * path.log_derivative(mid + half * xi).entries
    return acc


def test_jensen_direction_on_oscillating_path(dist):
    # block-averaged velocities cost no more than the full path integral
    path = theta_split_path()
    total = rate_along_path(dist, path, quad_nodes=6, subintervals=16)
    for m in (4, 8):
        acc = 0.0
        for i in range(1, m + 1):
            y_tilde = quadrature_segment_integral(path, (i - 1) / m, i / m)
            val = legendre(dist, AlgebraVector(m * y_tilde)).value
            acc += val / m
        assert acc <= total + 1e-8


def test_segment_log_matches_integral_decay(dist):
    # the mismatch between block logs and block velocity integrals decays
    scaled = [m * segment_mismatch(theta_split_path(), m) for m in (8, 16, 32)]
    assert scaled[1] < scaled[0] and scaled[2] < scaled[1]


def test_segment_log_exact_on_one_parameter_path():
    g, u = line_endpoint(0.8)
    path = constant_split_path(1.0, g)
    for m in (8, 64):
        worst = 0.0
        for i in range(1, m + 1):
            a, b = (i - 1) / m, i / m
            seg_log = reference_logm(np.linalg.solve(path.point(a), path.point(b)))
            worst = max(worst, np.linalg.norm(seg_log - u.entries / m))
        assert worst < 1e-12


@pytest.mark.parametrize("c", [0.52, 0.58, 0.4 / (1 - np.exp(-1.0)), 0.7, 0.8])
def test_sampled_replay_of_the_ladder_is_its_cost(dist, c):
    # the partial products of a discretized minimizer, read as a sampled path,
    # have its segments' exact velocities: the quadrature replays the cost at
    # every level (acceptance criterion 5 asks 1e-9 at m = 32 alone)
    g, _ = line_endpoint(c)
    ladder = refinement_ladder(dist, g, [2, 4, 8, 16, 32])
    for m in (4, 8, 16, 32):
        replay = rate_along_path(dist, sampled_minimizer(ladder[m].segments))
        assert abs(replay - ladder[m].value) <= 1e-13, (m, replay - ladder[m].value)


# ---------------------------------------------------------------------------
# bundled report

def test_rate_report_triple(dist):
    # the ladder, its residuals and minimizer, and the solver's diagnostics
    g, _ = line_endpoint(0.8)
    report = rate_report(dist, g, [2, 4])
    payload = report.to_jsonable()
    assert list(payload) == ["endpoint", "m_values", "discretized", "constraint_residuals",
                             "minimizer_mixture", "diagnostics"]
    assert list(payload["diagnostics"]) == ["iterations", "status", "reasons"]
    ladder = refinement_ladder(dist, g, [2, 4])
    assert payload["discretized"] == {"2": ladder[2].value, "4": ladder[4].value}
    assert payload["minimizer_mixture"] == [x.entries.tolist() for x in ladder[4].segments]


# ---------------------------------------------------------------------------
# stacked penalties, the determinant line, and values of the looped solver

def reference_penalty(prod, g):
    """|log(prod^-1 g)|_F^2 by the per-matrix reference log, inf without one."""
    try:
        lg = reference_logm(np.linalg.solve(prod, g))
    except (OutOfDomainError, np.linalg.LinAlgError):
        return float("inf")
    return float(np.sum(lg * lg))


def test_penalties_bit_identical_to_loop(rng):
    g, _ = line_endpoint(0.7)
    g = g.entries
    near = g @ (np.eye(2) + 0.05 * rng.standard_normal((20, 2, 2)))
    far = g @ (np.eye(2) + 0.6 * rng.standard_normal((10, 2, 2)))
    # rel = prod^-1 g with a negative eigenvalue has no principal log
    no_log = np.array([g @ np.linalg.inv(np.diag([-1.0, 2.0]))])
    prods = np.concatenate([near, far, no_log]).reshape(31, 1, 2, 2)
    loop = np.array([reference_penalty(p, g) for p in prods[:, 0]]).reshape(31, 1)
    assert np.isinf(loop[-1, 0]) and np.isfinite(loop[:20]).all()
    assert np.array_equal(np.array([_penalty(p, g) for p in prods[:, 0]]).reshape(31, 1), loop)
    # a singular product has no solve
    singular = np.concatenate([near[:3], [[[1.0, 1.0], [1.0, 1.0]]]])
    loop = np.array([reference_penalty(p, g) for p in singular])
    assert np.isinf(loop[-1])
    assert np.array_equal(np.array([_penalty(p, g) for p in singular]), loop)


def test_penalties_of_a_nan_product_are_infinite(rng):
    g, _ = line_endpoint(0.7)
    g = g.entries
    prods = g @ (np.eye(2) + 0.05 * rng.standard_normal((4, 2, 2)))
    prods[2, 0, 0] = np.nan
    got = np.array([_penalty(p, g) for p in prods])
    assert got[2] == np.inf
    assert np.isfinite(got[[0, 1, 3]]).all()
    assert np.array_equal(got[[0, 1, 3]], [_penalty(p, g) for p in prods[[0, 1, 3]]])


def test_off_determinant_line_is_infinite_at_once(dist):
    # det exp(X/n) = e^{tr X / n} forces det g = e^-1 on this model
    g = GroupElement([[0.7, 0.3], [0.2, 0.8]])
    for m in (4, 8):
        res = discretized_rate(dist, g, m)
        assert np.isinf(res.value) and res.segments is None
        assert res.diagnostics["reason"] == "determinant"
        assert res.diagnostics["iterations"] == 0
    report = rate_report(dist, g, [4, 8])
    assert report.diagnostics["reasons"] == {4: "determinant", 8: "determinant"}


def test_on_determinant_line_within_rounding_runs_solver(dist):
    g, _ = line_endpoint(0.6)
    # move log det g by 1e-12 along the line: still reachable, within rounding
    nudged = GroupElement(g.entries + 1e-12 * np.array([[-1.0, 1.0], [-1.0, 1.0]]))
    res = discretized_rate(dist, nudged, 4)
    assert "reason" not in res.diagnostics and res.diagnostics["iterations"] > 0
    assert np.isfinite(res.value)


def test_ladder_values_of_looped_solver(dist):
    # where the penalty loop that preceded SLSQP stopped, at the rate-ladder
    # endpoints: upper bounds now, with the Euler-Lagrange minimum below
    expected = {0.58: (0.011953054580261389, 0.011907368008878247),
                0.7: (0.076868484082665, 0.07659910100084666)}
    for c, values in expected.items():
        g, _ = line_endpoint(c)
        floor = rate_along_path(dist, minimizing_path_s2(1.0, g)) - 1e-9
        ladder = refinement_ladder(dist, g, [4, 8])
        for m, value in zip((4, 8), values):
            assert floor <= ladder[m].value <= value + 1e-12, (c, m)
            assert ladder[m].constraint_residual <= 1e-9
        assert ladder[8].value <= ladder[4].value


# ---------------------------------------------------------------------------
# the SLSQP solve: near the hull boundary, alpha != beta, 3x3, and its reports

@pytest.mark.parametrize("c", [0.97, 0.99])
def test_ladder_near_the_hull_boundary_reaches_the_minimum(dist, c):
    g, _ = line_endpoint(c)
    minimum = rate_along_path(dist, minimizing_path_s2(1.0, g))
    ladder = refinement_ladder(dist, g, [4, 8, 16, 32])
    values = [ladder[m].value for m in (4, 8, 16, 32)]
    assert all(b < a for a, b in zip(values, values[1:])), values
    assert minimum - 1e-9 <= values[-1] <= 1.01 * minimum, (values[-1], minimum)
    assert max(ladder[m].constraint_residual for m in ladder) <= 1e-12


def test_unequal_rates_reach_a_product_endpoint():
    # two segments with mixes c and 1 - c of the atoms build g; each costs h(c)
    dist2 = example_model(1.0, 2.0).distribution()
    a, b = np.array([[-1.0, 1.0], [0.0, 0.0]]), np.array([[0.0, 0.0], [2.0, -2.0]])
    c = 0.457
    g = GroupElement(_expm(0.5 * (c * a + (1 - c) * b)) @ _expm(0.5 * ((1 - c) * a + c * b)))
    h = c * np.log(c) + (1 - c) * np.log(1 - c) + np.log(2.0)
    results = {m: discretized_rate(dist2, g, m) for m in (2, 4, 8)}
    for res in results.values():
        assert np.isfinite(res.value) and res.constraint_residual <= 1e-12
    assert results[2].value == pytest.approx(h, abs=1e-10)


def test_3x3_ladder_is_finite_and_monotone():
    law = generator_law_3x3()
    hull_points = np.random.default_rng(0).dirichlet(np.ones(4), size=4) @ \
        law.atom_stack().reshape(4, 9)
    g = np.eye(3)
    for p in hull_points:
        g = g @ _expm(p.reshape(3, 3) / 4)
    ladder = refinement_ladder(law, GroupElement(g), [4, 8, 16])
    values = [ladder[m].value for m in (4, 8, 16)]
    assert np.isfinite(values).all()
    assert values[0] <= 0.3519      # the cost of the path through the hull points
    assert values[2] <= values[1] <= values[0]
    assert max(ladder[m].constraint_residual for m in ladder) <= 1e-12


def test_discretized_rate_at_a_vertex_endpoint_is_minus_log_weight(dist):
    # the only path to exp(A) runs along the vertex A, where legendre() gives
    # the face value -log w = log 2 and dual Newton only approaches it from below
    for atom in dist.atoms:
        g = GroupElement(_expm(atom.entries))
        for m in (1, 2, 4, 8):
            assert discretized_rate(dist, g, m).value == pytest.approx(np.log(2.0), abs=1e-15)


@pytest.mark.parametrize("m", [2.5, True, "4", 0, -1])
def test_discretized_rate_rejects_a_bad_m(dist, m):
    g, _ = line_endpoint(0.7)
    with pytest.raises(InvalidArgumentError, match="positive integer"):
        discretized_rate(dist, g, m)


def test_discretized_rate_takes_numpy_integers(dist):
    g, _ = line_endpoint(0.7)
    assert discretized_rate(dist, g, np.int64(2)).m == 2


def test_rate_report_needs_a_level(dist):
    g, _ = line_endpoint(0.7)
    with pytest.raises(InvalidArgumentError):
        rate_report(dist, g, [])


def test_rate_report_carries_the_solver_status(dist):
    g, _ = line_endpoint(0.7)
    report = rate_report(dist, g, [2, 4])
    assert report.diagnostics["status"] == {2: 0, 4: 0}
    assert all(n > 0 for n in report.diagnostics["iterations"].values())
    assert report.diagnostics["reasons"] == {2: None, 4: None}


def test_infeasible_final_iterate_is_infinite_with_the_slsqp_message(dist, monkeypatch):
    g, u = line_endpoint(0.7)
    solve = scipy.optimize.minimize

    def stray(fun, x0, **kwargs):
        res = solve(fun, x0, **kwargs)
        res.x = res.x + 0.01          # off the constraint, inside the hull
        res.message = "stopped elsewhere"
        return res

    monkeypatch.setattr(scipy.optimize, "minimize", stray)
    # a seed that misses g: nothing feasible to report
    _, v = line_endpoint(0.6)
    res = discretized_rate(dist, g, 4, seed_segments=[0.25 * v] * 4)
    assert np.isinf(res.value) and res.segments is None
    assert res.diagnostics["reason"] == "slsqp: stopped elsewhere"
    assert res.diagnostics["residual"] > 1e-12
    # the default start, exp(u / 4) four times, reaches g: it is reported
    res = discretized_rate(dist, g, 4)
    assert res.value == pytest.approx(legendre(dist, u).value, abs=1e-9)
    assert "reason" not in res.diagnostics and res.constraint_residual <= 1e-12
