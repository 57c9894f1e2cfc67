"""Experiment runner: one reproducible configuration format, six subcommands.

    simulate         walk simulation + replacement certificate
    legendre         conjugate values at points or along the model grid
    rate             discretized/quadrature/closed-form rate report
    mc-estimate      empirical rate curve with optional tilting
    verify-bounds    deviation-bound certificate suite
    exp-log-selftest validation of the exp/log neighborhood constants

Configuration is a flat key = value file (JSON for matrices); command-line
flags override file values, and every output embeds the fully resolved
configuration.  Outputs are written atomically (temp file + rename).  The
timestamp lives in a separate "meta" key so payloads are byte-identical
across reruns with the same config and seed.  Exit codes: 0 success,
1 usage error, 2 certificate failure under --strict, 3 numeric failure.
"""

import argparse
import datetime
import hashlib
import json
import os
import sys
import tempfile

import numpy as np

from . import __version__
from .bch import run_log_product_suite, validate_bch_radius
from .errors import LieWalkError, UsageError
from .legendre import legendre, legendre_closed_form_s2
from .lie import AlgebraVector, _frobenius_norms, validate_injectivity
from .mc import BallEvent, empirical_rate_curve
from .rate import rate_report
from .serialize import load_algebra_matrix, load_group_matrix, matrix_to_jsonable
from .stochastic import example_model
from .walk import kappa_support, replacement_deviation, segment_decomposition, simulate_walk

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CERTIFICATE = 2
EXIT_NUMERIC = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    if isinstance(x, bool):
        return "1" if x else "0"
    return str(x)


def write_csv(path: str, header: list[str], rows) -> None:
    """Comma-separated, '.' decimal, LF endings, floats at 17 significant digits."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    _atomic_write(path, "\n".join(lines) + "\n")


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".liewalk-")
    try:
        with os.fdopen(fd, "w", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _np_default(o):
    if isinstance(o, np.bool_):
        return bool(o)
    if isinstance(o, np.integer):
        return int(o)
    if isinstance(o, np.floating):
        return float(o)
    if isinstance(o, np.ndarray):
        return o.tolist()
    raise TypeError(f"not JSON serializable: {type(o).__name__}")


def write_json(path: str | None, config: dict, results: dict) -> str:
    payload = {
        "meta": {
            "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
            "version": __version__,
        },
        "config": config,
        "results": results,
    }
    text = json.dumps(payload, sort_keys=True, indent=2, default=_np_default) + "\n"
    if path:
        _atomic_write(path, text)
    return text


def parse_config_file(path: str) -> dict:
    """Flat key = value lines; values parsed as JSON when possible."""
    out = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            try:
                out[key] = json.loads(value)
            except json.JSONDecodeError:
                out[key] = value
    return out


def _resolve(args, file_cfg: dict, keys: dict) -> dict:
    """Merge config file values with CLI flags (flags win); fill defaults."""
    resolved = {}
    for key, default in keys.items():
        flag = getattr(args, key.replace("-", "_"), None)
        if flag is not None:
            resolved[key] = flag
        elif key in file_cfg:
            resolved[key] = file_cfg[key]
        else:
            resolved[key] = default
    missing = [k for k, v in resolved.items() if v is None]
    if missing:
        raise UsageError(f"missing required configuration keys: {', '.join(missing)}")
    return resolved


def _int_list(spec) -> list[int]:
    """Integers of a comma-separated flag or a config-file list."""
    tokens = [str(tok) for tok in spec] if isinstance(spec, list) else str(spec).split(",")
    try:
        values = [int(tok) for tok in tokens if tok.strip()]
    except ValueError:
        values = []
    if not values:
        raise UsageError(f"expected comma-separated integers, got {spec!r}")
    return values


def _inputs_digest(cfg: dict) -> str:
    return hashlib.sha256(json.dumps(cfg, sort_keys=True).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# subcommands

def _cmd_simulate(args, file_cfg) -> int:
    cfg = _resolve(args, file_cfg, {
        "alpha": None, "beta": None, "n": None, "m": None, "seed": 0,
    })
    model = example_model(float(cfg["alpha"]), float(cfg["beta"]))
    dist = model.distribution()
    traj = simulate_walk(dist, int(cfg["n"]), int(cfg["seed"]))
    cert = replacement_deviation(traj, int(cfg["m"]))
    seg = segment_decomposition(traj, int(cfg["m"]))
    results = {
        "endpoint": matrix_to_jsonable(traj.endpoint.entries),
        "deviation_certificate": {
            "m": cert.m, "checked_steps": cert.checked_steps,
            "max_deviation": cert.max_deviation, "argmax_k": cert.argmax_k,
            "bound": cert.bound, "kappa": cert.kappa,
            "support_bound": cert.support_bound, "passed": cert.passed,
        },
        "segment_log_norms": [x.norm for x in seg.segment_logs],
    }
    text = write_json(args.out_json, {"subcommand": "simulate", **cfg}, results)
    if args.out_csv:
        proxy = _frobenius_norms(traj.step_logs())
        inc = _frobenius_norms(dist.atom_stack())[traj.atom_indices] / traj.n
        rows = list(zip(range(1, traj.n + 1), proxy.tolist(), inc.tolist()))
        write_csv(args.out_csv, ["k", "proxy_distance", "increment_norm_over_n"], rows)
    if not args.out_json:
        sys.stdout.write(text)
    if args.strict and not cert.passed:
        return EXIT_CERTIFICATE
    return EXIT_OK


def _cmd_legendre(args, file_cfg) -> int:
    cfg = _resolve(args, file_cfg, {
        "alpha": None, "beta": None, "x1": "", "x2": "", "x": "", "grid": "",
    })
    model = example_model(float(cfg["alpha"]), float(cfg["beta"]))
    dist = model.distribution()
    points = []
    if cfg["grid"]:
        npts = int(cfg["grid"])
        alpha, beta = model.alpha, model.beta
        for x1 in np.linspace(0.0, alpha, npts):
            x2 = beta * (1.0 - x1 / alpha)
            points.append(AlgebraVector([[-x1, x1], [x2, -x2]]))
    elif cfg["x"]:
        points.append(load_algebra_matrix(str(cfg["x"])))
    elif cfg["x1"] != "" and cfg["x2"] != "":
        x1, x2 = float(cfg["x1"]), float(cfg["x2"])
        points.append(AlgebraVector([[-x1, x1], [x2, -x2]]))
    else:
        raise UsageError("provide --x1/--x2, --x, or --grid")
    rows = []
    results = []
    for x in points:
        res = legendre(dist, x)
        lam = res.maximizer.entries if res.maximizer is not None else np.full((dist.dim,) * 2, np.nan)
        x1, x2 = float(x.entries[0, 1]), float(x.entries[1, 0])
        closed = legendre_closed_form_s2(x1, x2, model.alpha, model.beta)
        rows.append((x1, x2, res.value, int(res.is_finite), lam[0, 1], lam[1, 0],
                     res.grad_norm if np.isfinite(res.value) else float("nan"),
                     closed))
        results.append({
            "x": matrix_to_jsonable(x.entries), "value": res.value,
            "finite": res.is_finite, "classification": res.classification,
            "closed_form": closed,
            "maximizer": None if res.maximizer is None else matrix_to_jsonable(lam),
        })
    if args.out_csv:
        write_csv(args.out_csv,
                  ["x1", "x2", "value", "finite", "lambda1", "lambda2",
                   "grad_norm", "closed_form"], rows)
    text = write_json(args.out_json, {"subcommand": "legendre", **cfg},
                      {"points": results})
    if not args.out_json:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_rate(args, file_cfg) -> int:
    cfg = _resolve(args, file_cfg, {
        "alpha": None, "endpoint": None, "m": "8,16,32", "seed": 0,
    })
    alpha = float(cfg["alpha"])
    model = example_model(alpha, alpha)
    dist = model.distribution()
    g = load_group_matrix(str(cfg["endpoint"]))
    ms = _int_list(cfg["m"])
    report = rate_report(dist, g, ms, alpha=alpha)
    results = report.to_jsonable()
    text = write_json(args.out_json, {"subcommand": "rate", **cfg}, results)
    if args.out_csv:
        rows = [(m, report.discretized[m], report.constraint_residuals[m])
                for m in report.m_values]
        write_csv(args.out_csv, ["m", "value", "constraint_residual"], rows)
    if not args.out_json:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_mc(args, file_cfg) -> int:
    cfg = _resolve(args, file_cfg, {
        "alpha": None, "beta": None, "center": None, "radius": None,
        "ns": None, "samples": None, "tilt": "none", "seed": 0,
        "shards": 1,
    })
    model = example_model(float(cfg["alpha"]), float(cfg["beta"]))
    dist = model.distribution()
    event = BallEvent(load_group_matrix(str(cfg["center"])), float(cfg["radius"]))
    tilt = cfg["tilt"]
    if tilt not in ("none", "auto"):
        tilt = load_algebra_matrix(str(tilt))
    curve = empirical_rate_curve(dist, event, _int_list(cfg["ns"]),
                                 int(cfg["samples"]), int(cfg["seed"]),
                                 tilt_policy=tilt, shards=int(cfg["shards"]))
    rows = [(r.n, r.samples, r.weighted_hits, r.p, r.p_lo, r.p_hi,
             r.rate, r.rate_lo, r.rate_hi, r.ess, int(r.degenerate))
            for r in curve.rows]
    if args.out_csv:
        write_csv(args.out_csv,
                  ["n", "samples", "weighted_hits", "p", "p_lo", "p_hi",
                   "rate", "rate_lo", "rate_hi", "ess", "degenerate"], rows)
    results = {
        "rows": [dict(zip(("n", "samples", "weighted_hits", "p", "p_lo", "p_hi",
                           "rate", "rate_lo", "rate_hi", "ess", "degenerate"), row))
                 for row in rows],
        "metadata": curve.metadata,
    }
    text = write_json(args.out_json,
                      {"subcommand": "mc-estimate",
                       **{k: (v if not isinstance(v, AlgebraVector) else "matrix")
                          for k, v in cfg.items()}},
                      results)
    if not args.out_json:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_verify_bounds(args, file_cfg) -> int:
    cfg = _resolve(args, file_cfg, {
        "dim": 2, "radius": 0.2, "pairs": 1000, "seed": 0,
    })
    rows = []
    failures = 0
    worst_ratio = 0.0
    for row in run_log_product_suite(int(cfg["dim"]), float(cfg["radius"]),
                                     int(cfg["pairs"]), int(cfg["seed"])):
        rows.append(row)
        if not row[-1]:
            failures += 1
        if row[5] > 0:
            worst_ratio = max(worst_ratio, row[4] / row[5])
    if args.out_csv:
        write_csv(args.out_csv,
                  ["seed", "norm_x", "norm_y", "ad_norm", "lhs", "rhs", "pass"],
                  rows)
    results = {"pairs": len(rows), "failures": failures,
               "worst_ratio": worst_ratio}
    text = write_json(args.out_json, {"subcommand": "verify-bounds", **cfg}, results)
    if not args.out_json:
        sys.stdout.write(text)
    if args.strict and failures:
        return EXIT_CERTIFICATE
    return EXIT_OK


def _cmd_selftest(args, file_cfg) -> int:
    cfg = _resolve(args, file_cfg, {"dims": "2,3", "samples": 100, "seed": 0})
    dims = _int_list(cfg["dims"])
    report = {}
    all_ok = True
    for d in dims:
        inj = validate_injectivity(d, n_samples=int(cfg["samples"]), seed=int(cfg["seed"]))
        rad = validate_bch_radius(d, n_samples=max(20, int(cfg["samples"]) // 5),
                                  seed=int(cfg["seed"]))
        model_kappa = None
        if d == 2:
            model_kappa = kappa_support(example_model(1.0, 1.0).distribution())
        ok = inj.passed and rad.series_converges
        all_ok = all_ok and ok
        report[str(d)] = {
            "injectivity": {
                "eps": inj.eps, "radius": inj.radius,
                "max_roundtrip_error": inj.max_roundtrip_error,
                "max_log_norm": inj.max_log_norm, "passed": inj.passed,
            },
            "bch_radius": {
                "radius": rad.radius,
                "max_contraction_norm": rad.max_contraction_norm,
                "series_converges": rad.series_converges,
                "within_proof_constant": rad.within_proof_constant,
            },
            "model_kappa": model_kappa,
            "passed": ok,
        }
    text = write_json(args.out_json, {"subcommand": "exp-log-selftest", **cfg}, report)
    if not args.out_json:
        sys.stdout.write(text)
    if args.strict and not all_ok:
        return EXIT_CERTIFICATE
    return EXIT_OK


# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="liewalk", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--config", help="flat key = value configuration file")
        p.add_argument("--out-json", help="write the JSON report here")
        p.add_argument("--out-csv", help="write the CSV table here")
        p.add_argument("--strict", action="store_true",
                       help="exit 2 when a certificate fails")
        p.add_argument("--seed", type=int)

    p = sub.add_parser("simulate", help="simulate a walk and check the replacement bound")
    common(p)
    p.add_argument("--alpha", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("legendre", help="conjugate values at points or on the model grid")
    common(p)
    p.add_argument("--alpha", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--x1", type=float)
    p.add_argument("--x2", type=float)
    p.add_argument("--x", help="JSON matrix file")
    p.add_argument("--grid", type=int, help="number of constraint-line points")
    p.set_defaults(func=_cmd_legendre)

    p = sub.add_parser("rate", help="rate report for an endpoint (equal-parameter model)")
    common(p)
    p.add_argument("--alpha", type=float)
    p.add_argument("--endpoint", help="JSON matrix file")
    p.add_argument("--m", help="comma-separated segment counts")
    p.set_defaults(func=_cmd_rate)

    p = sub.add_parser("mc-estimate", help="empirical rate curve")
    common(p)
    p.add_argument("--alpha", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--center", help="JSON matrix file (ball center)")
    p.add_argument("--radius", type=float)
    p.add_argument("--ns", help="comma-separated walk lengths")
    p.add_argument("--samples", type=int)
    p.add_argument("--tilt", help="none | auto | JSON matrix file")
    p.add_argument("--shards", type=int)
    p.set_defaults(func=_cmd_mc)

    p = sub.add_parser("verify-bounds", help="deviation-bound certificate suite")
    common(p)
    p.add_argument("--dim", type=int)
    p.add_argument("--radius", type=float)
    p.add_argument("--pairs", type=int)
    p.set_defaults(func=_cmd_verify_bounds)

    p = sub.add_parser("exp-log-selftest", help="validate exp/log neighborhood constants")
    common(p)
    p.add_argument("--dims", help="comma-separated dimensions")
    p.add_argument("--samples", type=int)
    p.set_defaults(func=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        file_cfg = parse_config_file(args.config) if args.config else {}
        return args.func(args, file_cfg)
    except UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return EXIT_USAGE
    except LieWalkError as exc:
        diag = {
            "error": type(exc).__name__,
            "message": str(exc),
            "inputs_digest": _inputs_digest({"argv": argv or sys.argv[1:]}),
        }
        sys.stderr.write(json.dumps(diag, sort_keys=True) + "\n")
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
