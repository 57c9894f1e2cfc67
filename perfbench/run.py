"""Benchmark of the liewalk CLI: four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload rate-ladder --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  Each operation is one liewalk CLI command,
called through liewalk.cli.main in this process, pinned to one CPU with
BLAS threads set to 1.  A run repeats whole rounds of its workload's
commands until --seconds have passed (at least one round) and checks every
output against the oracles in oracles.py.  --workload all runs the four
workloads in turn.

With --trace 0 the last line of standard output is a JSON object holding the
end-to-end metrics named in BENCHMARK.json.  With --trace 1 the run is one
untraced round followed by one traced round, whatever --seconds says, and
the line holds the per-layer metrics of the traced round; trace.overhead_s
is the traced round's time minus the untraced one's.  Times are scaled to
a reference CPU speed; see speed.py.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# before numpy is first imported, which happens with liewalk
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3


def _die(message: str) -> None:
    sys.stderr.write(f"perfbench: {message}\n")
    sys.exit(2)


def measure_setup(meter) -> float:
    """Median time for a fresh interpreter to import liewalk.cli and build its parser."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = "import liewalk.cli as cli; cli.build_parser()"
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL, timeout=120)
        times.append(meter.scaled(t0, time.perf_counter()))
    return statistics.median(times)


class Run:
    """Rounds of one workload's operations, with their times and failures."""

    def __init__(self, ops, cli_main, meter):
        self.ops = ops
        self.cli_main = cli_main
        self.meter = meter
        self.rounds: list[list[float]] = []      # times at the reference speed
        self.wall_rounds: list[list[float]] = []
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def op(self, op, tracer=None) -> tuple[float, float]:
        for path in op.outputs:
            if os.path.exists(path):
                os.remove(path)
        t0 = time.perf_counter()
        try:
            if tracer is None:
                code = self.cli_main(op.argv)
            else:
                with tracer.span("cli.main"):
                    code = self.cli_main(op.argv)
            error = f"exit code {code}"
        except Exception:  # an operation that raises is counted as failed
            code, error = None, traceback.format_exc(limit=4)
        t1 = time.perf_counter()
        if code != 0:
            problems = [error]
        else:
            try:
                problems = op.check()
            except Exception:  # a check that cannot read the output fails the op
                problems = [traceback.format_exc(limit=4)]
        self.attempted += 1
        if problems:
            self.failed += 1
            known = op.known_fault is not None and any(op.known_fault in p for p in problems)
            self.correct = self.correct and known
            tag = "known fault" if known else "FAILED"
            for p in problems:
                sys.stderr.write(f"  {tag}: {op.label}: {p}\n")
        return self.meter.scaled(t0, t1), t1 - t0

    def rounds_for(self, seconds: float | None, count: int | None = None, tracer=None):
        """Run rounds until `seconds` have passed (at least one), or `count` rounds."""
        start = time.perf_counter()
        done = 0
        while True:
            scaled, wall = zip(*(self.op(op, tracer) for op in self.ops))
            self.rounds.append(list(scaled))
            self.wall_rounds.append(list(wall))
            done += 1
            if count is not None and done >= count:
                break
            if count is None and time.perf_counter() - start >= seconds:
                break
        return done


def figures(ops, rounds) -> dict[str, tuple[float, str]]:
    """The workload's own figures, printed beside the metrics."""
    times = {}
    work = {}
    for r in rounds:
        for op, t in zip(ops, r):
            times.setdefault(op.kind, []).append(t)
            work[op.kind] = work.get(op.kind, 0.0) + op.work
    out = {}
    if "rate_reachable" in times:
        out["rate_report_s"] = (statistics.median(times["rate_reachable"]), "s")
    if "rate_unreachable" in times:
        out["rate_infinite_s"] = (statistics.median(times["rate_unreachable"]), "s")
    for kind, name, unit in (("walk", "walk_steps_per_s", "steps/s"),
                             ("mc", "mc_steps_per_s", "steps/s"),
                             ("bch", "bch_pairs_per_s", "pairs/s")):
        if kind in times:
            out[name] = (work[kind] / sum(times[kind]), unit)
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    import liewalk.cli
    import speed
    import tracing
    import workloads

    work = HERE / "out" / name
    work.mkdir(parents=True, exist_ok=True)
    ops = workloads.WORKLOADS[name](seed, str(work))
    with speed.SpeedMeter() as meter:
        setup_s = None if trace else measure_setup(meter)
        run = Run(ops, liewalk.cli.main, meter)
        # a traced run compares one untraced round with one traced round
        n_rounds = run.rounds_for(None, count=1) if trace else run.rounds_for(seconds)
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        plain = list(run.rounds)
        plain_wall = list(run.wall_rounds)

        print(f"workload {name}  seed {seed}  rounds {n_rounds}  "
              f"ops {run.attempted}  failed {run.failed}")
        scaled_figures = figures(ops, plain)
        for fig, (value, unit) in figures(ops, plain_wall).items():
            print(f"  {fig:<24s} {value:>14.6g} {unit:<8s} wall, "
                  f"{scaled_figures[fig][0]:.6g} at the reference speed")

        if trace:
            tracer = tracing.Tracer()
            tracing.install(tracer)
            try:
                run.rounds_for(None, count=1, tracer=tracer)
            finally:
                tracer.restore()
            tracer.write(str(HERE / "out" / f"trace-{name}.npz"))
            if tracer.absent:
                print(f"  absent layers: {', '.join(tracer.absent)}")
            print(f"  spans {len(tracer.span_start)}")
            declared = spec["per_layer"]
            traced, traced_wall = sum(run.rounds[-1]), sum(run.wall_rounds[-1])
            values = tracing.layer_metrics(tracer, [m["name"] for m in declared],
                                           time_scale=traced / traced_wall)
            values["trace.overhead_s"] = traced - sum(plain[0])
        else:
            declared = spec["end_to_end"]
            values = {
                "setup_s": setup_s,
                "peak_rss_mib": peak_rss_mib,
                "round_s": statistics.median(sum(r) for r in plain),
                "slowest_op_s": statistics.median(max(r) for r in plain),
                "fastest_op_s": statistics.median(min(r) for r in plain),
            }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared if m["name"] in values}
    for metric, v in metrics.items():
        print(f"  {metric:<44s} {v['value']:>14.6g} {v['unit']}")
    return {"correct": run.correct, "attempted": run.attempted,
            "failed": run.failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "liewalk" / "cli.py").is_file():
        _die(f"no liewalk sources at {SRC / 'liewalk'}; run from the root of a checkout")
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        _die("BENCHMARK.json not found at the checkout root")
    spec = json.loads(spec_path.read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names + ["all"]:
        _die(f"unknown workload {args.workload!r}; choose from {', '.join(names)} or all")

    # one CPU, shared by the workload and the speed sampler
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    import liewalk

    if Path(liewalk.__file__).resolve().parent != (SRC / "liewalk").resolve():
        _die(f"liewalk imported from {liewalk.__file__}, not from {SRC}")

    chosen = names if args.workload == "all" else [args.workload]
    results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace), spec)
               for w in chosen}
    if len(chosen) == 1:
        print(json.dumps(results[chosen[0]]))
    else:
        for w, res in results.items():
            print(json.dumps({"workload": w, **res}))
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
