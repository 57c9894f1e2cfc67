"""The four workloads: which CLI commands one round runs, and their checks.

Every command is a liewalk CLI invocation with --out-json (and --out-csv
where a table is checked).  Its check reads those files and returns a list
of problems; an empty list means the output passed.  Inputs come from the
workload seed, except where a comment says they are fixed.
"""

import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import oracles

ALPHA = 1.0
S = 1.0 - math.exp(-ALPHA)
UNREACHABLE = [[0.7, 0.3], [0.2, 0.8]]   # det 0.5 != e^-1


@dataclass
class Op:
    label: str
    argv: list[str]
    check: Callable[[], list[str]]
    kind: str                 # figure the op counts towards, see run.figures
    work: float = 0.0         # walk steps, MC steps or BCH pairs
    known_fault: str | None = None   # words its failure message must contain
    outputs: list[str] = field(default_factory=list)


def _seeds(seed: int, k: int) -> list[int]:
    rng = np.random.default_rng(seed)
    return [int(v) for v in rng.integers(0, 2**31 - 1, size=k)]


def _write_matrix(path: str, g) -> str:
    with open(path, "w") as fh:
        json.dump(np.asarray(g, dtype=float).tolist(), fh)
    return path


def _results(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)["results"]


def rate_ladder(seed: int, work: str) -> list[Op]:
    """`rate --m 4,8,16` at c = 0.58 and 0.7 on the finiteness line, and
    `rate --m 4,8` at an endpoint off it.  The endpoints are fixed; the seed
    only sets the CLI's --seed, which the rate solver does not use."""
    (cli_seed,) = _seeds(seed, 1)
    ops = []
    for c in (0.58, 0.7):
        g = oracles.line_endpoint(c, ALPHA)
        oracle = oracles.minimal_cost(float(g[0, 1]), ALPHA)
        end = _write_matrix(os.path.join(work, f"endpoint_c{c}.json"), g)
        out = os.path.join(work, f"rate_c{c}.json")
        ops.append(Op(
            f"rate c={c}",
            ["rate", "--alpha", "1", "--m", "4,8,16", "--endpoint", end,
             "--seed", str(cli_seed), "--out-json", out],
            lambda out=out, g=g, oracle=oracle: oracles.check_rate_ladder(
                _results(out), g, ALPHA, oracle),
            kind="rate_reachable", outputs=[out]))
    end = _write_matrix(os.path.join(work, "endpoint_off.json"), UNREACHABLE)
    out = os.path.join(work, "rate_off.json")
    ops.append(Op(
        "rate unreachable",
        ["rate", "--alpha", "1", "--m", "4,8", "--endpoint", end,
         "--seed", str(cli_seed), "--out-json", out],
        lambda: oracles.check_rate_ladder(_results(out), np.array(UNREACHABLE), ALPHA),
        kind="rate_unreachable", outputs=[out]))
    return ops


def walk_certify(seed: int, work: str) -> list[Op]:
    """Three `simulate --n 10000 --m 20 --out-csv` runs and one
    `simulate --n 200000 --m 10`, all with seeds drawn from the workload seed."""
    seeds = _seeds(seed, 4)
    ops = []
    for i, s in enumerate(seeds[:3]):
        out = os.path.join(work, f"walk{i}.json")
        csv = os.path.join(work, f"walk{i}.csv")
        ops.append(Op(
            f"simulate n=10000 seed={s}",
            ["simulate", "--alpha", "1", "--beta", "1", "--n", "10000", "--m", "20",
             "--seed", str(s), "--out-json", out, "--out-csv", csv],
            lambda out=out, csv=csv: (oracles.check_walk(_results(out), 10000, 20, ALPHA)
                                      + oracles.check_walk_csv(csv, 10000, ALPHA)),
            kind="walk", work=10000, outputs=[out, csv]))
    out = os.path.join(work, "walk_long.json")
    ops.append(Op(
        f"simulate n=200000 seed={seeds[3]}",
        ["simulate", "--alpha", "1", "--beta", "1", "--n", "200000", "--m", "10",
         "--seed", str(seeds[3]), "--out-json", out],
        lambda: oracles.check_walk(_results(out), 200000, 10, ALPHA),
        kind="walk", work=200000, outputs=[out]))
    return ops


def mc_tilted(seed: int, work: str) -> list[Op]:
    """Plain estimates on the mean ball, tilted ones on the c = 0.8 ball, and
    one long tilted walk.  The long walk's inputs, seed included, are fixed:
    it fails on every run, because its summed weights underflow."""
    seeds = _seeds(seed, 2)
    target = oracles.minimal_cost(0.8 * S, ALPHA)
    mean = _write_matrix(os.path.join(work, "center_mean.json"), oracles.line_endpoint(0.5, ALPHA))
    c08 = _write_matrix(os.path.join(work, "center_c0.8.json"), oracles.line_endpoint(0.8, ALPHA))
    common = ["mc-estimate", "--alpha", "1", "--beta", "1"]
    ops = []
    out = os.path.join(work, "mc_plain.json")
    ops.append(Op(
        "mc plain n=20..160",
        common + ["--center", mean, "--radius", "0.05", "--ns", "20,40,80,160",
                  "--samples", "100000", "--seed", str(seeds[0]), "--out-json", out],
        lambda: oracles.check_plain_curve(_results(out)["rows"]),
        kind="mc", work=100000 * (20 + 40 + 80 + 160), outputs=[out]))
    out_t = os.path.join(work, "mc_tilted.json")
    ops.append(Op(
        "mc tilted n=20..160",
        common + ["--center", c08, "--radius", "0.03", "--ns", "20,40,80,160",
                  "--samples", "100000", "--tilt", "auto", "--seed", str(seeds[1]),
                  "--out-json", out_t],
        lambda: oracles.check_tilted_curve(_results(out_t)["rows"], target),
        kind="mc", work=100000 * (20 + 40 + 80 + 160), outputs=[out_t]))
    out_l = os.path.join(work, "mc_long.json")
    # four shards keep one shard's uniform draws at 500 x 20000 doubles (80 MB)
    ops.append(Op(
        "mc tilted n=20000",
        common + ["--center", c08, "--radius", "0.03", "--ns", "20000",
                  "--samples", "2000", "--shards", "4", "--tilt", "auto", "--seed", "2026",
                  "--out-json", out_l],
        lambda: oracles.check_tilted_curve(_results(out_l)["rows"], target),
        kind="mc", work=2000 * 20000, known_fault="underflow", outputs=[out_l]))
    return ops


SELFTEST_SAMPLES = 2000


def bch_suite(seed: int, work: str) -> list[Op]:
    """`exp-log-selftest --strict --samples 2000` at d = 2 and at d = 3, with
    seeds drawn from the workload seed: exp/log round trips on the ball of
    radius 0.7 and the BCH contraction norm on 400 boundary pairs of radius 0.2.

    `verify-bounds` is left out: its random pairs include, on some seeds, an
    X so small that lie.operator_norm stops early and the certificate fails.
    """
    seeds = _seeds(seed, 2)
    kappa = oracles.kappa(oracles.two_state_atoms(ALPHA))
    ops = []
    for d, s in zip((2, 3), seeds):
        out = os.path.join(work, f"selftest_d{d}.json")
        ops.append(Op(
            f"exp-log-selftest d={d} seed={s}",
            ["exp-log-selftest", "--strict", "--dims", str(d),
             "--samples", str(SELFTEST_SAMPLES), "--seed", str(s), "--out-json", out],
            lambda out=out, d=d, s=s: oracles.check_selftest(
                _results(out)[str(d)], d, SELFTEST_SAMPLES, s,
                model_kappa=kappa if d == 2 else None),
            kind="bch", work=max(20, SELFTEST_SAMPLES // 5), outputs=[out]))
    return ops


WORKLOADS = {
    "rate-ladder": rate_ladder,
    "walk-certify": walk_certify,
    "mc-tilted": mc_tilted,
    "bch-suite": bch_suite,
}
