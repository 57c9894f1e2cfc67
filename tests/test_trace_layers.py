"""The traced benchmark finds every layer it wraps, and its commands parse.

perfbench/tracing.py wraps liewalk functions by module and name and records
a name it cannot find as absent; the traced result line then leaves out that
layer's declared metrics.  perfbench/workloads.py runs liewalk CLI command
lines.  These tests catch a deleted or reshaped traced name, and a dropped
or renamed flag of a benchmark command, inside the tier-1 suite.
"""

import importlib
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

import liewalk
import liewalk.cli  # a traced module that the package does not import
from liewalk import AlgebraVector, BallEvent, exp_matrix
from liewalk.lie import _expm

REPO = Path(__file__).resolve().parents[1]
TRACING = REPO / "perfbench" / "tracing.py"
BENCHMARK_WORKLOADS = [w["name"] for w in
                       json.loads((REPO / "BENCHMARK.json").read_text())["workloads"]]


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
    # the estimator draws block codes through IncrementDistribution.sample_codes,
    # which the tracer does not wrap, so sample_indices (walks only) counts
    # no draw; _kernels.indexed_products, inside mc._event_distances, counts
    # one product per code: ceil(n / 8) per sample for two atoms
    tracing = load_tracing()
    tracer = tracing.Tracer()
    event = BallEvent(exp_matrix(dist.mean), 0.1)
    tracing.install(tracer)
    try:
        liewalk.empirical_rate_curve(dist, event, [20, 37], 500, seed=3, shards=2)
    finally:
        tracer.restore()
    assert tracer.counts["distributions.sample_indices.draws"] == 0
    assert tracer.calls["distributions.sample_indices"] == 0
    assert tracer.counts["kernels.indexed_products.products"] == 500 * (3 + 5)
    assert tracer.calls["mc.event_distances"] == tracer.calls["kernels.indexed_products"] == 4
    assert tracer.calls["mc.tilted_estimator"] == 2
    assert tracer.counts["mc.plain.n20.hits"] > 0 and tracer.counts["mc.plain.n37.hits"] > 0


def write_matrix(path, u):
    path.write_text(json.dumps(_expm(np.array(u)).tolist()))
    return str(path)


@pytest.mark.parametrize("argv, roots", [
    (["rate", "--alpha", "1", "--m", "4,8", "--endpoint", "{endpoint}"], 0),
    (["exp-log-selftest", "--dims", "2"], 0),
    (["mc-estimate", "--alpha", "1", "--beta", "1", "--center", "{center}", "--radius", "0.05",
      "--ns", "20", "--samples", "500", "--tilt", "auto"], 0),
    (["exp-log-selftest", "--dims", "3"], 2),
], ids=["rate", "selftest-d2", "mc-auto-tilt", "selftest-d3"])
def test_traced_cli_takes_square_roots_only_off_the_2x2_group(argv, roots, tmp_path):
    # every 2x2 unit-row-sum log takes the closed form; only the 3x3 logs
    # of the d = 3 self-test run Denman-Beavers square roots
    files = {"endpoint": write_matrix(tmp_path / "g.json", [[-0.8, 0.8], [0.2, -0.2]]),
             "center": write_matrix(tmp_path / "c.json", [[-0.6, 0.6], [0.3, -0.3]])}
    argv = [a.format(**files) for a in argv] + ["--out-json", str(tmp_path / "out.json")]
    tracing = load_tracing()
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        assert liewalk.cli.main(argv) == 0
    finally:
        tracer.restore()
    assert tracer.calls["lie.sqrtm_db"] == roots


@pytest.mark.parametrize("workload", BENCHMARK_WORKLOADS)
def test_every_benchmark_command_line_parses(workload, tmp_path, monkeypatch):
    # each op's argv goes through the parser and the config resolution that
    # cli.main applies before it runs a subcommand
    monkeypatch.syspath_prepend(str(REPO / "perfbench"))
    workloads = importlib.import_module("workloads")
    ops = workloads.WORKLOADS[workload](7, str(tmp_path))
    assert ops
    for op in ops:
        args = liewalk.cli.build_parser().parse_args(op.argv)
        _, _, keys = liewalk.cli.COMMANDS[args.subcommand]
        liewalk.cli._resolve(args, {}, keys)


@pytest.mark.parametrize("seed", [7, 301])
def test_mc_tilted_workload_passes_its_checks(seed, tmp_path, monkeypatch):
    # the benchmark's Monte Carlo gate: every mc-tilted op exits 0 and its
    # check, a window on the rate around the minimal cost, finds nothing
    monkeypatch.syspath_prepend(str(REPO / "perfbench"))
    workloads = importlib.import_module("workloads")
    ops = workloads.mc_tilted(seed, str(tmp_path))
    assert ops
    for op in ops:
        assert liewalk.cli.main(op.argv) == 0, op.label
        assert op.check() == [], op.label
