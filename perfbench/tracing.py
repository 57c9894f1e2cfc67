"""Spans and counters around the calls into liewalk's layers.

The tracer replaces a layer function, wherever a liewalk module binds it by
name, with a wrapper that records one span per call: name, parent span,
start and end.  A span's self time is its duration minus the time covered
by its child spans.  Spans stay in memory, in flat arrays, and are written
once, when the run ends.  A function that a later version of the program no
longer has is reported as absent; the run goes on without it.
"""

import contextlib
import functools
import inspect
import os
import sys
import time
from array import array
from collections import defaultdict

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []      # [span index, child time, name id, start]
        self.calls = defaultdict(int)     # name -> calls
        self.self_s = defaultdict(float)  # name -> self time
        self.counts = defaultdict(float)  # counter name -> value
        self.pending_hits = 0             # ball hits since the last estimator returned
        self.absent: list[str] = []
        self._undo: list[tuple] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # -- spans ---------------------------------------------------------------

    def enter(self, nid: int) -> None:
        start = time.perf_counter()
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_start.append(start)
        self.span_end.append(0.0)
        self._stack.append([len(self.span_start) - 1, 0.0, nid, start])

    def exit(self) -> float:
        end = time.perf_counter()
        index, child, nid, start = self._stack.pop()
        self.span_end[index] = end
        duration = end - start
        name = self.names[nid]
        self.calls[name] += 1
        self.self_s[name] += duration - child
        if self._stack:
            self._stack[-1][1] += duration
        return duration

    @contextlib.contextmanager
    def span(self, name: str):
        """A span the benchmark opens itself, around one CLI command."""
        self.enter(self._id(name))
        try:
            yield
        finally:
            self.exit()

    # -- wrapping ------------------------------------------------------------

    def _wrapper(self, name: str, orig, hook):
        nid = self._id(name)
        tracer = self
        if inspect.isgeneratorfunction(orig):
            # one span per resumption, so time spent by the consumer between
            # items is not charged to the generator
            @functools.wraps(orig)
            def gen_wrapper(*args, **kwargs):
                it = orig(*args, **kwargs)
                while True:
                    tracer.enter(nid)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer.exit()
                    yield item

            return gen_wrapper

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            tracer.enter(nid)
            try:
                result = orig(*args, **kwargs)
            finally:
                duration = tracer.exit()
            if hook is not None:
                hook(tracer, duration, result, args, kwargs)
            return result

        return wrapper

    def wrap(self, name: str, module: str, qualname: str, hook=None) -> None:
        """Wrap liewalk.`module`.`qualname` everywhere liewalk binds it.

        A qualname "Class.method" wraps the method on the class.  When the
        module has no such name, `name` is recorded as absent.
        """
        owner_name, _, attr = qualname.rpartition(".")
        owner = sys.modules.get(f"liewalk.{module}")
        if owner_name:
            owner = getattr(owner, owner_name, None)
        if owner is None or attr not in vars(owner):
            self.absent.append(name)
            return
        orig = vars(owner)[attr]
        wrapper = self._wrapper(name, orig, hook)
        if owner_name:
            self._replace(owner, attr, orig, wrapper)
            return
        for mname, other in list(sys.modules.items()):
            if mname == "liewalk" or mname.startswith("liewalk."):
                for key, value in list(vars(other).items()):
                    if value is orig:
                        self._replace(other, key, orig, wrapper)

    def _replace(self, owner, attr, orig, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, orig))

    def restore(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def write(self, path: str) -> None:
        """Write every span at once, as numpy arrays (times from perf_counter)."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez(path, names=np.array(self.names),
                 name=np.frombuffer(self.span_name, dtype=np.int32),
                 parent=np.frombuffer(self.span_parent, dtype=np.int32),
                 start=np.frombuffer(self.span_start, dtype=np.float64),
                 end=np.frombuffer(self.span_end, dtype=np.float64))


# ---------------------------------------------------------------------------
# counters recorded at the layer boundaries

def _count_partial(tracer, duration, result, args, kwargs):
    tracer.counts["kernels.partial_products.products"] += args[0].shape[0]


def _count_indexed(tracer, duration, result, args, kwargs):
    step_mats, idx = args[0], args[1]
    d = step_mats.shape[-1]
    products = idx.shape[0] * idx.shape[1]
    tracer.counts["kernels.indexed_products.products"] += products
    # each d x d product reads two float64 operands and writes one
    tracer.counts["kernels.indexed_products.bytes_computed"] += products * 3 * d * d * 8


def _count_draws(tracer, duration, result, args, kwargs):
    tracer.counts["distributions.sample_indices.draws"] += result.size


def _count_newton(tracer, duration, result, args, kwargs):
    tracer.counts["legendre.dual_newton.iterations"] += result[3]


def _count_discretized(tracer, duration, result, args, kwargs):
    m = args[2] if len(args) > 2 else kwargs["m"]
    tracer.counts[f"rate.discretized_rate.m{m}.s"] += duration
    tracer.counts[f"rate.discretized_rate.m{m}.iterations"] += result.diagnostics.get("iterations", 0)


def _count_csv(tracer, duration, result, args, kwargs):
    tracer.counts["cli.write_csv.bytes"] += os.path.getsize(args[0])


def _count_hits(tracer, duration, result, args, kwargs):
    tracer.pending_hits += int(np.count_nonzero(result <= args[2].radius))


def _count_estimate(tracer, duration, result, args, kwargs):
    n = args[1] if len(args) > 1 else kwargs["n"]
    kind = "tilted" if result.tilted else "plain"
    tracer.counts[f"mc.{kind}.n{n}.samples"] += result.samples
    tracer.counts[f"mc.{kind}.n{n}.hits"] += tracer.pending_hits
    tracer.counts[f"mc.{kind}.n{n}.ess"] += result.ess
    tracer.pending_hits = 0


# (span name, liewalk module, qualified name, counter hook)
LAYERS = [
    ("lie.expm", "lie", "_expm", None),
    ("lie.logm", "lie", "_logm", None),
    ("lie.sqrtm_db", "lie", "_sqrtm_db", None),
    ("lie.operator_norm", "lie", "operator_norm", None),
    ("lie.ad_operator", "lie", "ad_operator", None),
    ("kernels.partial_products", "_kernels", "partial_products", _count_partial),
    ("kernels.indexed_products", "_kernels", "indexed_products", _count_indexed),
    ("kernels.stoch2_log_norms", "_kernels", "stoch2_log_norms", None),
    ("distributions.sample_indices", "distributions",
     "IncrementDistribution.sample_indices", _count_draws),
    ("legendre.legendre", "legendre", "legendre", None),
    ("legendre.dual_newton", "legendre", "_dual_newton", _count_newton),
    ("legendre.linprog", "legendre", "linprog", None),
    ("rate.discretized_rate", "rate", "discretized_rate", _count_discretized),
    ("rate.penalty", "rate", "_penalty", None),
    ("rate.rate_along_path", "rate", "rate_along_path", None),
    ("walk.simulate_walk", "walk", "simulate_walk", None),
    ("walk.replacement_deviation", "walk", "replacement_deviation", None),
    ("walk.point", "walk", "WalkTrajectory.point", None),
    ("mc.tilted_estimator", "mc", "tilted_estimator", _count_estimate),
    ("mc.event_distances", "mc", "_event_distances", _count_hits),
    ("bch.validate_bch_radius", "bch", "validate_bch_radius", None),
    ("cli.write_csv", "cli", "write_csv", _count_csv),
    ("cli.write_json", "cli", "write_json", None),
]


def install(tracer: Tracer) -> None:
    for name, module, qualname, hook in LAYERS:
        tracer.wrap(name, module, qualname, hook)


def layer_metrics(tracer: Tracer, declared, time_scale: float = 1.0) -> dict[str, float]:
    """Values of the declared per-layer metric names.

    <span>.calls and <span>.self_s come from the spans; mc.hit_fraction.n<N>
    and mc.ess_fraction.n<N> are hits and ESS over samples of the tilted
    estimates at that n, mc.plain_hit_fraction.n<N> the same for plain ones;
    other names are counters.  Times (self_s and .s) are multiplied by
    time_scale.  Names of absent spans are left out.
    """
    out = {}
    for metric in declared:
        span, _, field = metric.rpartition(".")
        if any(metric.startswith(a + ".") for a in tracer.absent):
            continue
        if field == "calls":
            out[metric] = float(tracer.calls.get(span, 0))
        elif field == "self_s":
            out[metric] = tracer.self_s.get(span, 0.0) * time_scale
        elif metric.startswith(("mc.hit_fraction.", "mc.ess_fraction.", "mc.plain_hit_fraction.")):
            n = metric.rsplit(".", 1)[1]
            kind = "plain" if "plain_" in metric else "tilted"
            key = "ess" if "ess_fraction" in metric else "hits"
            samples = tracer.counts.get(f"mc.{kind}.{n}.samples", 0.0)
            value = tracer.counts.get(f"mc.{kind}.{n}.{key}", 0.0)
            out[metric] = value / samples if samples else 0.0
        else:
            value = float(tracer.counts.get(metric, 0.0))
            out[metric] = value * time_scale if field == "s" else value
    return out
