"""rate_along_path on one stack of node velocities, against the per-node loop.

The reference (legendre_reference.rate_along_path) takes one velocity and
one legendre() call, with the one-matrix dual Newton, per node.  The stacked
quadrature must return the same float, bit for bit, and raise or return
+inf where the loop does: at the first node, in node order, whose velocity
raises or leaves the conjugate domain.
"""

import numpy as np
import pytest

import liewalk as lw
import liewalk.rate as rate_module
from liewalk import (
    AlgebraVector,
    ClosedFormPath2,
    GroupElement,
    IncrementDistribution,
    InvalidArgumentError,
    OutOfDomainError,
    SampledPath,
    SingularMatrixError,
    logarithmic_derivative,
    rate_along_path,
)
from liewalk.legendre import DOMAIN_TOL
from liewalk.lie import _expm
from legendre_reference import logarithmic_derivative as reference_log_derivative
from legendre_reference import rate_along_path as reference_rate_along_path
from test_acceptance import ALPHA, line_endpoint, minimizing_path_s2, sampled_minimizer
from test_legendre import generator_law_3x3
from test_rate import theta_split_path, vertex_path

CRITERION_5 = [0.52, 0.58, 0.4 / (1 - np.exp(-ALPHA)), 0.7, 0.8]
FEW_NODES = dict(quad_nodes=4, subintervals=8)


def assert_bit_identical(dist, path, **kwargs):
    new = rate_along_path(dist, path, **kwargs)
    old = reference_rate_along_path(dist, path, **kwargs)
    assert type(new) is float
    assert np.float64(new).tobytes() == np.float64(old).tobytes(), (new, old)
    return new


def criterion_5_paths(dist, c):
    """Constant-split, minimizing and sampled-replay paths to criterion 5's endpoint c.

    The replay runs through the discretized minimizer at m = 4, where
    criterion 5 replays m = 32's.
    """
    g, _ = line_endpoint(c)
    best = lw.refinement_ladder(dist, g, [2, 4])[4]
    return [lw.optimal_path_s2(ALPHA, g), minimizing_path_s2(ALPHA, g),
            sampled_minimizer(best.segments)]


@pytest.mark.parametrize("c", CRITERION_5)
def test_criterion_5_paths_match_node_loop(dist, c):
    for path in criterion_5_paths(dist, c):
        assert np.isfinite(assert_bit_identical(dist, path, **FEW_NODES))


def test_criterion_5_paths_match_node_loop_at_default_nodes(dist):
    for path in criterion_5_paths(dist, 0.7):
        assert_bit_identical(dist, path)


def test_vertex_path_matches_node_loop(dist):
    # every velocity is the atom A, a vertex: legendre()'s face value log 2
    val = assert_bit_identical(dist, vertex_path(), **FEW_NODES)
    assert val == pytest.approx(np.log(2.0), abs=1e-10)


def test_theta_split_path_matches_node_loop(dist):
    assert_bit_identical(dist, theta_split_path(), quad_nodes=6, subintervals=16)


def test_off_domain_path_is_infinite(dist):
    path = ClosedFormPath2(g1=lambda t: 0.8 * t, g2=lambda t: 0.0,
                           d1=lambda t: 0.8, d2=lambda t: 0.0)
    assert assert_bit_identical(dist, path, **FEW_NODES) == np.inf


def test_infinite_node_before_a_raising_node_wins(dist):
    # velocities off the finiteness line from t = 0; the path leaves the
    # invertible region (1 - g1 - g2 <= 0) only from t = 0.625 on
    path = ClosedFormPath2(g1=lambda t: 0.8 * t, g2=lambda t: 0.8 * t,
                           d1=lambda t: 0.8, d2=lambda t: 0.8)
    with pytest.raises(OutOfDomainError):
        path.log_derivative(0.7)
    assert assert_bit_identical(dist, path, **FEW_NODES) == np.inf


def test_raising_node_after_finite_nodes_raises(dist):
    # constant split up to t = 1/2, then a jump out of the invertible region
    g, _ = line_endpoint(0.7)
    split = lw.optimal_path_s2(ALPHA, g)
    path = ClosedFormPath2(g1=lambda t: np.where(t < 0.5, split.g1(t), 0.9),
                           g2=lambda t: np.where(t < 0.5, split.g2(t), 0.9),
                           d1=split.d1, d2=split.d2)
    for quadrature in (rate_along_path, reference_rate_along_path):
        with pytest.raises(OutOfDomainError, match="invertible region at t=0.5"):
            quadrature(dist, path, **FEW_NODES)


def test_interior_path_calls_no_legendre(dist, monkeypatch):
    calls = []
    monkeypatch.setattr(rate_module, "legendre",
                        lambda d, x: calls.append(x) or lw.legendre(d, x))
    g, _ = line_endpoint(0.7)
    rate_along_path(dist, lw.optimal_path_s2(ALPHA, g))
    assert calls == []
    rate_along_path(dist, vertex_path(), **FEW_NODES)
    assert len(calls) == 32


def piecewise_path(velocities):
    """SampledPath whose velocity is velocities[j] on the j-th of len(velocities)
    equal segments of [0, 1]."""
    h = 1.0 / len(velocities)
    mats = [np.eye(velocities[0].shape[0])]
    for u in velocities:
        mats.append(mats[-1] @ _expm(h * u))
    return SampledPath(np.linspace(0.0, 1.0, len(mats)), np.array(mats))


def test_legendre_runs_on_the_nodes_within_domain_tol_of_a_facet(dist, monkeypatch):
    # velocities A + s (B - A) on five segments; the hull is the interval from
    # A to B, 2 long in Frobenius norm, so a node lies 2 s from vertex A
    a, b = (atom.entries for atom in dist.atoms)
    shares = [0.0, 0.25 * DOMAIN_TOL, 2 * DOMAIN_TOL, 0.3, 1.0 - 0.4 * DOMAIN_TOL]
    near = [True, True, False, False, True]
    path = piecewise_path([a + s * (b - a) for s in shares])
    calls = []
    monkeypatch.setattr(rate_module, "legendre",
                        lambda d, x: calls.append(x) or lw.legendre(d, x))
    assert np.isfinite(assert_bit_identical(dist, path, **FEW_NODES))
    nodes, _ = np.polynomial.legendre.leggauss(FEW_NODES["quad_nodes"])
    width = 1.0 / FEW_NODES["subintervals"]
    ts = ((np.arange(FEW_NODES["subintervals"]) * width)[:, None]
          + 0.5 * (nodes + 1.0) * width).ravel()
    expected = [logarithmic_derivative(path, t) for t in ts
                if near[min(int(t * len(shares)), len(shares) - 1)]]
    assert 0 < len(expected) < len(ts)
    assert [x.entries.tobytes() for x in calls] == [x.entries.tobytes() for x in expected]


def test_3x3_sampled_minimizer_matches_node_loop():
    law = generator_law_3x3()
    hull_points = np.random.default_rng(0).dirichlet(np.ones(4), size=4) @ \
        law.atom_stack().reshape(4, 9)
    g = np.eye(3)
    for p in hull_points:
        g = g @ _expm(p.reshape(3, 3) / 4)
    best = lw.discretized_rate(law, GroupElement(g), 4)
    path = piecewise_path([4 * x.entries for x in best.segments])
    assert np.isfinite(assert_bit_identical(law, path))
    assert np.isfinite(assert_bit_identical(law, path, **FEW_NODES))


def test_point_mass_quadrature_is_zero_along_its_exponential_only():
    x = np.array([[-0.4, 0.3, 0.1], [0.2, -0.2, 0.0], [0.0, 0.5, -0.5]])
    law = IncrementDistribution(atoms=(AlgebraVector(x),), weights=(1.0,))
    value = rate_along_path(law, piecewise_path([x, x, x]))
    assert type(value) is float and value == 0.0
    assert rate_along_path(law, piecewise_path([x, 1.1 * x, x])) == np.inf


def test_singular_sample_raises_singular_matrix_error():
    mats = np.array([np.eye(2), [[0.5, 0.5], [0.5, 0.5]], np.eye(2)])
    with pytest.raises(SingularMatrixError, match="sample 1 .t=0.5. is singular"):
        SampledPath([0.0, 0.5, 1.0], mats)


def test_sampled_path_velocities_match_node_loop(dist):
    path = theta_split_path()
    ts = np.linspace(0, 1, 101)
    sampled = SampledPath(ts, np.array([path.point(t) for t in ts]))
    for t in (0.0, 1e-3, 0.3, 0.37, 0.5, 1 - 1e-3, 1.0):
        new = logarithmic_derivative(sampled, t).entries
        assert new.tobytes() == reference_log_derivative(sampled, t).entries.tobytes()
    for t in (-1e-3, 1.01):         # off the path's time interval
        with pytest.raises(InvalidArgumentError, match="t must lie in"):
            logarithmic_derivative(sampled, t)


def test_sampled_path_segment_without_log_is_rejected():
    # the segment logs are one stacked log, taken when the path is built
    first = _expm(np.array([[-0.3, 0.3], [0.2, -0.2]]))
    mats = np.array([np.eye(2), first, first @ np.array([[-0.2, 1.2], [1.3, -0.3]])])
    with pytest.raises(OutOfDomainError, match="segment 1 has no principal log"):
        SampledPath([0.0, 0.5, 1.0], mats)


@pytest.mark.parametrize("kwargs", [
    dict(subintervals=-3), dict(subintervals=0), dict(quad_nodes=0),
    dict(quad_nodes=-1), dict(quad_nodes=2.0), dict(subintervals=True),
])
def test_bad_quadrature_sizes_raise(dist, kwargs):
    g, _ = line_endpoint(0.7)
    with pytest.raises(InvalidArgumentError):
        rate_along_path(dist, lw.optimal_path_s2(ALPHA, g), **kwargs)


def test_numpy_integer_sizes_are_accepted(dist):
    g, _ = line_endpoint(0.7)
    path = lw.optimal_path_s2(ALPHA, g)
    assert (rate_along_path(dist, path, quad_nodes=np.int64(4), subintervals=np.int32(8))
            == rate_along_path(dist, path, **FEW_NODES))


def test_dimension_mismatch_raises(dist):
    x = np.array([[-0.3, 0.3, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    path = SampledPath([0.0, 1.0], np.array([np.eye(3), _expm(x)]))
    with pytest.raises(InvalidArgumentError, match="dimension mismatch"):
        rate_along_path(dist, path)
