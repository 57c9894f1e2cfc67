"""Experiment runner: one table declares the six subcommands, one path writes their output.

COMMANDS maps each subcommand to its function, its help text and its config
keys, as key: (flag type, default[, flag help]); a default of None marks a
required key.  build_parser() adds the common --config, --out-json,
--out-csv, --strict and --seed flags and one flag per key; it builds the
parser once per process and returns that same parser on every call, so
repeated main() calls in one process do not rebuild the six subparsers.
main() resolves the config (flag, else --config file value converted with
the key's flag type, else the table's default; a file key the subcommand
does not take is a usage error), calls the command for
(results, table, passed), then writes the JSON report with the config
embedded, the CSV when --out-csv is given and the command has a table, and
the JSON text on stdout when there is no --out-json.  DESCRIPTION is the
--help text; it states the file formats.

Exit codes: 0 success; 1 usage error, including an input file that cannot
be read or decoded and an output path that cannot be written; 2 certificate
failure under --strict; 3 numeric failure.
"""

import argparse
import dataclasses
import datetime
import functools
import hashlib
import itertools
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

DESCRIPTION = """Experiment runner: one reproducible configuration format, six subcommands.

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


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    if isinstance(x, bool):
        return "1" if x else "0"
    return str(x)


CSV_BLOCK_ROWS = 4096     # rows formatted by one %-template


def _column_format(values) -> str | None:
    """The %-format that writes every value as _fmt does, or None if mixed."""
    types = set(map(type, values))
    if all(issubclass(t, float) for t in types):
        return "%.17g"
    if types <= {int, bool}:
        return "%d"
    return None


def _csv_blocks(header: list[str], rows):
    """The CSV text: the header line, then blocks of up to CSV_BLOCK_ROWS rows.

    A block's columns of floats, or of ints and bools, are formatted by one
    %-template; a column of other or mixed types goes through _fmt, and so
    does every row of a block whose rows differ in length.
    """
    yield ",".join(header) + "\n"
    rows = iter(rows)
    while block := list(itertools.islice(rows, CSV_BLOCK_ROWS)):
        if len(set(map(len, block))) > 1:
            yield "".join(",".join(map(_fmt, row)) + "\n" for row in block)
            continue
        columns = list(zip(*block))
        formats = [_column_format(col) for col in columns]
        values = itertools.chain.from_iterable(block)
        if None in formats:
            columns = [col if f else [_fmt(v) for v in col] for col, f in zip(columns, formats)]
            formats = [f or "%s" for f in formats]
            values = itertools.chain.from_iterable(zip(*columns))
        template = ",".join(formats) + "\n"
        yield (template * len(block)) % tuple(values)


def write_csv(path: str, header: list[str], rows) -> None:
    """Comma-separated, '.' decimal, LF endings, floats at 17 significant digits."""
    _atomic_write(path, _csv_blocks(header, rows))


def _atomic_write(path: str, chunks) -> None:
    """Write text chunks through a temp file and a rename; an unwritable path is a usage error."""
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)),
                                   prefix=".liewalk-")
        with os.fdopen(fd, "w", newline="\n") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror or exc}") from None
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def _read(load, path):
    """load(path), with a file that cannot be opened or decoded as a usage error."""
    try:
        return load(str(path))
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc.strerror or exc}") from None
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot parse {path}: {exc}") from None


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
        _atomic_write(path, [text])
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


def _file_value(key: str, kind: type, default, value):
    """A --config file value with its flag's type: a string converted as the
    flag converts it, a number taken by a float key, or by an int key when
    integral, never a bool.  A str key keeps the value as read (_int_list also
    reads a list), and "" stays "" where it is the table's unset default, so
    a report's config reads back."""
    if kind is str or value == default == "":
        return value
    try:
        if isinstance(value, str):
            return kind(value)
        if isinstance(value, (int, float)) and not isinstance(value, bool) and (
                kind is float or float(value).is_integer()):
            return kind(value)
    except (ValueError, OverflowError):
        pass
    raise UsageError(f"config key {key}: expected {kind.__name__}, got {value!r}")


def _resolve(args, file_cfg: dict, keys: dict) -> dict:
    """Merge config file values with CLI flags (flags win); fill the table's defaults.

    A file key must be one of the subcommand's keys, or seed, which every
    subcommand takes as a flag, so a misspelled key is not dropped.
    """
    known = set(keys) | {"seed"}
    for key in file_cfg:
        if key not in known:
            raise UsageError(f"config key {key}: not a key of this subcommand; "
                             f"expected one of {', '.join(sorted(known))}")
    resolved = {}
    for key, (kind, default, *_) in keys.items():
        flag = getattr(args, key.replace("-", "_"), None)
        if flag is not None:
            resolved[key] = flag
        elif key in file_cfg:
            resolved[key] = _file_value(key, kind, default, file_cfg[key])
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
# subcommands: each takes the resolved config and returns (results, table,
# passed), where table is None or a function returning (header, rows)

def _cmd_simulate(cfg):
    dist = example_model(float(cfg["alpha"]), float(cfg["beta"])).distribution()
    traj = simulate_walk(dist, int(cfg["n"]), int(cfg["seed"]))
    cert = replacement_deviation(traj, int(cfg["m"]))
    seg = segment_decomposition(traj, int(cfg["m"]))
    results = {
        "endpoint": matrix_to_jsonable(traj.endpoint.entries),
        "deviation_certificate": dataclasses.asdict(cert),
        "segment_log_norms": [x.norm for x in seg.segment_logs],
    }

    def table():
        proxy = _frobenius_norms(traj.step_logs())
        inc = _frobenius_norms(dist.atom_stack())[traj.atom_indices] / traj.n
        return (["k", "proxy_distance", "increment_norm_over_n"],
                zip(range(1, traj.n + 1), proxy.tolist(), inc.tolist()))
    return results, table, cert.passed


def _cmd_legendre(cfg):
    model = example_model(float(cfg["alpha"]), float(cfg["beta"]))
    dist = model.distribution()
    points = []
    if cfg["grid"] != "":
        npts = cfg["grid"]
        if npts < 1:
            raise UsageError(f"--grid must be at least 1, got {npts}")
        alpha, beta = model.alpha, model.beta
        for x1 in np.linspace(0.0, alpha, npts):
            x2 = beta * (1.0 - x1 / alpha)
            points.append(AlgebraVector([[-x1, x1], [x2, -x2]]))
    elif cfg["x"]:
        points.append(_read(load_algebra_matrix, cfg["x"]))
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
    header = ["x1", "x2", "value", "finite", "lambda1", "lambda2", "grad_norm", "closed_form"]
    return {"points": results}, lambda: (header, rows), True


def _cmd_rate(cfg):
    alpha = float(cfg["alpha"])
    dist = example_model(alpha, alpha).distribution()
    g = _read(load_group_matrix, cfg["endpoint"])
    report = rate_report(dist, g, _int_list(cfg["m"]), alpha=alpha)
    rows = [(m, report.discretized[m], report.constraint_residuals[m]) for m in report.m_values]
    return report.to_jsonable(), lambda: (["m", "value", "constraint_residual"], rows), True


def _cmd_mc(cfg):
    dist = example_model(float(cfg["alpha"]), float(cfg["beta"])).distribution()
    event = BallEvent(_read(load_group_matrix, cfg["center"]), float(cfg["radius"]))
    tilt = cfg["tilt"]
    if tilt not in ("none", "auto"):
        tilt = _read(load_algebra_matrix, tilt)
    curve = empirical_rate_curve(dist, event, _int_list(cfg["ns"]),
                                 int(cfg["samples"]), int(cfg["seed"]),
                                 tilt_policy=tilt, shards=int(cfg["shards"]))
    header = ["n", "samples", "weighted_hits", "p", "p_lo", "p_hi",
              "rate", "rate_lo", "rate_hi", "ess", "degenerate"]
    rows = [(r.n, r.samples, r.weighted_hits, r.p, r.p_lo, r.p_hi,
             r.rate, r.rate_lo, r.rate_hi, r.ess, int(r.degenerate))
            for r in curve.rows]
    results = {"rows": [dict(zip(header, row)) for row in rows],
               "metadata": curve.metadata}
    return results, lambda: (header, rows), True


def _cmd_verify_bounds(cfg):
    rows = list(run_log_product_suite(int(cfg["dim"]), float(cfg["radius"]),
                                      int(cfg["pairs"]), int(cfg["seed"])))
    failures = sum(not row[-1] for row in rows)
    worst_ratio = max([0.0] + [row[4] / row[5] for row in rows if row[5] > 0])
    results = {"pairs": len(rows), "failures": failures, "worst_ratio": worst_ratio}
    header = ["seed", "norm_x", "norm_y", "ad_norm", "lhs", "rhs", "pass"]
    return results, lambda: (header, rows), failures == 0


def _cmd_selftest(cfg):
    report = {}
    for d in _int_list(cfg["dims"]):
        inj = validate_injectivity(d, n_samples=int(cfg["samples"]), seed=int(cfg["seed"]))
        rad = validate_bch_radius(d, n_samples=max(20, int(cfg["samples"]) // 5),
                                  seed=int(cfg["seed"]))
        model_kappa = None
        if d == 2:
            model_kappa = kappa_support(example_model(1.0, 1.0).distribution())
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
            "passed": inj.passed and rad.series_converges,
        }
    return report, None, all(entry["passed"] for entry in report.values())


# ---------------------------------------------------------------------------

COMMANDS = {
    "simulate": (_cmd_simulate, "simulate a walk and check the replacement bound", {
        "alpha": (float, None), "beta": (float, None), "n": (int, None),
        "m": (int, None), "seed": (int, 0),
    }),
    "legendre": (_cmd_legendre, "conjugate values at points or on the model grid", {
        "alpha": (float, None), "beta": (float, None), "x1": (float, ""),
        "x2": (float, ""), "x": (str, "", "JSON matrix file"),
        "grid": (int, "", "number of constraint-line points"),
    }),
    "rate": (_cmd_rate, "rate report for an endpoint (equal-parameter model)", {
        "alpha": (float, None), "endpoint": (str, None, "JSON matrix file"),
        "m": (str, "8,16,32", "comma-separated segment counts"), "seed": (int, 0),
    }),
    "mc-estimate": (_cmd_mc, "empirical rate curve", {
        "alpha": (float, None), "beta": (float, None),
        "center": (str, None, "JSON matrix file (ball center)"),
        "radius": (float, None), "ns": (str, None, "comma-separated walk lengths"),
        "samples": (int, None), "tilt": (str, "none", "none | auto | JSON matrix file"),
        "seed": (int, 0), "shards": (int, 1),
    }),
    "verify-bounds": (_cmd_verify_bounds, "deviation-bound certificate suite", {
        "dim": (int, 2), "radius": (float, 0.2), "pairs": (int, 1000), "seed": (int, 0),
    }),
    "exp-log-selftest": (_cmd_selftest, "validate exp/log neighborhood constants", {
        "dims": (str, "2,3", "comma-separated dimensions"), "samples": (int, 100),
        "seed": (int, 0),
    }),
}


@functools.cache
def build_parser() -> _Parser:
    parser = _Parser(prog="liewalk", description=DESCRIPTION,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (_, help_text, keys) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="flat key = value configuration file")
        p.add_argument("--out-json", help="write the JSON report here")
        p.add_argument("--out-csv", help="write the CSV table here")
        p.add_argument("--strict", action="store_true",
                       help="exit 2 when a certificate fails")
        # every subcommand takes --seed; legendre draws nothing and echoes none
        p.add_argument("--seed", type=int)
        for key, (kind, _, *doc) in keys.items():
            if key != "seed":
                p.add_argument(f"--{key}", type=kind, help=doc[0] if doc else None)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        func, _, keys = COMMANDS[args.subcommand]
        file_cfg = _read(parse_config_file, args.config) if args.config else {}
        cfg = _resolve(args, file_cfg, keys)
        results, table, passed = func(cfg)
        text = write_json(args.out_json, {"subcommand": args.subcommand, **cfg}, results)
        if args.out_csv and table:
            write_csv(args.out_csv, *table())
        if not args.out_json:
            sys.stdout.write(text)
        return EXIT_CERTIFICATE if args.strict and not passed else EXIT_OK
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
