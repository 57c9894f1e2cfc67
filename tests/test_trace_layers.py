"""The traced benchmark finds every layer it wraps.

perfbench/tracing.py wraps liewalk functions by module and name and records
a name it cannot find as absent; the traced result line then leaves out that
layer's declared metrics.  These tests catch a deleted or reshaped traced
name inside the tier-1 suite.
"""

import importlib.util
from pathlib import Path

import liewalk
import liewalk.cli  # a traced module that the package does not import
from liewalk import AlgebraVector, BallEvent, exp_matrix

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_is_present():
    tracing = load_tracing()
    tracer = tracing.Tracer()
    original = liewalk.legendre
    tracing.install(tracer)
    try:
        assert liewalk.legendre is not original
    finally:
        tracer.restore()
    assert tracer.absent == []
    assert liewalk.legendre is original


def test_wrapped_legendre_counts_newton_iterations(dist):
    tracing = load_tracing()
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        res = liewalk.legendre(dist, AlgebraVector([[-0.7, 0.7], [0.3, -0.3]]))
    finally:
        tracer.restore()
    assert res.classification == "inside"
    assert tracer.calls["legendre.legendre"] == 1
    assert tracer.calls["legendre.dual_newton"] == 1
    iterations = tracer.counts["legendre.dual_newton.iterations"]
    assert isinstance(iterations, float) and iterations.is_integer()
    assert iterations == res.iterations >= 1


def test_traced_walk_counts_every_step_product(dist):
    # the walk's products and points go through the names the tracer wraps:
    # _kernels.partial_products, WalkTrajectory.point and simulate_walk
    tracing = load_tracing()
    tracer = tracing.Tracer()
    original_point = liewalk.WalkTrajectory.point
    tracing.install(tracer)
    try:
        assert liewalk.WalkTrajectory.point is not original_point
        traj = liewalk.simulate_walk(dist, 1_000, seed=7)
        traj.point(1_000)
    finally:
        tracer.restore()
    assert tracer.counts["kernels.partial_products.products"] == 1_000
    assert tracer.calls["kernels.partial_products"] == 1
    assert tracer.calls["walk.simulate_walk"] == 1
    assert tracer.calls["walk.point"] == 1
    assert liewalk.WalkTrajectory.point is original_point


def test_traced_exponential_is_one_call_per_exp_matrix():
    # one matrix is a one-row stack inside _expm, not a second call to it
    tracing = load_tracing()
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        for x in ([[-0.7, 0.7], [0.3, -0.3]], [[-3.0, 2.0, 1.0], [0.5, -1.0, 0.5], [0.0, 0.0, 0.0]]):
            liewalk.exp_matrix(AlgebraVector(x))
    finally:
        tracer.restore()
    assert tracer.calls["lie.expm"] == 2


def test_traced_rate_curve_counts_draws_products_and_hits(dist):
    # the estimator draws through IncrementDistribution.sample_indices and
    # multiplies through _kernels.indexed_products inside mc._event_distances
    tracing = load_tracing()
    tracer = tracing.Tracer()
    event = BallEvent(exp_matrix(dist.mean), 0.1)
    tracing.install(tracer)
    try:
        liewalk.empirical_rate_curve(dist, event, [20, 37], 500, seed=3, shards=2)
    finally:
        tracer.restore()
    assert tracer.counts["distributions.sample_indices.draws"] == 500 * (20 + 37)
    assert tracer.counts["kernels.indexed_products.products"] == 500 * (20 + 37)
    assert tracer.calls["mc.event_distances"] == tracer.calls["kernels.indexed_products"] == 4
    assert tracer.calls["mc.tilted_estimator"] == 2
    assert tracer.counts["mc.plain.n20.hits"] > 0 and tracer.counts["mc.plain.n37.hits"] > 0
