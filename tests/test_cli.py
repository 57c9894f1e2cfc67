import argparse
import dataclasses
import json

import numpy as np
import pytest

from liewalk import cli, example_model, replacement_deviation, simulate_walk
from liewalk.cli import build_parser, main, parse_config_file, write_csv
from liewalk.lie import _expm
from logm_reference import logm as reference_logm
from stoch2_reference import explicit_solve, stoch2_log


@pytest.fixture()
def endpoint_file(tmp_path):
    u = np.array([[-0.8, 0.8], [0.2, -0.2]])
    path = tmp_path / "M.json"
    path.write_text(json.dumps([[float(v) for v in row] for row in _expm(u)]))
    return str(path)


@pytest.fixture()
def center_file(tmp_path):
    u = np.array([[-0.5, 0.5], [0.5, -0.5]])
    path = tmp_path / "center.json"
    path.write_text(json.dumps([[float(v) for v in row] for row in _expm(u)]))
    return str(path)


def load(path):
    with open(path) as fh:
        return json.load(fh)


def test_simulate_smoke(tmp_path):
    out = tmp_path / "sim.json"
    code = main(["simulate", "--alpha", "1", "--beta", "1", "--n", "500",
                 "--m", "10", "--seed", "7", "--out-json", str(out)])
    assert code == 0
    payload = load(out)
    assert payload["results"]["deviation_certificate"]["passed"]
    assert payload["config"]["n"] == 500
    ep = np.array(payload["results"]["endpoint"])
    np.testing.assert_allclose(ep.sum(axis=1), 1.0, atol=1e-12)


def test_simulate_reproducible_modulo_meta(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        assert main(["simulate", "--alpha", "1", "--beta", "2", "--n", "200",
                     "--m", "5", "--seed", "3", "--out-json", str(out)]) == 0
    pa, pb = load(a), load(b)
    pa.pop("meta")
    pb.pop("meta")
    assert json.dumps(pa, sort_keys=True) == json.dumps(pb, sort_keys=True)


def test_simulate_csv(tmp_path):
    csv = tmp_path / "steps.csv"
    main(["simulate", "--alpha", "1", "--beta", "1", "--n", "50", "--m", "5",
          "--seed", "1", "--out-json", str(tmp_path / "s.json"),
          "--out-csv", str(csv)])
    lines = csv.read_text().splitlines()
    assert lines[0] == "k,proxy_distance,increment_norm_over_n"
    assert len(lines) == 51
    # proxy distance equals |X_k|/n step by step
    for line in lines[1:6]:
        _, d, ref = line.split(",")
        assert float(d) == pytest.approx(float(ref), abs=1e-12)


def test_simulate_csv_matches_looped_rows(tmp_path):
    # the stacked rows are byte-identical to the per-step definition with the
    # one-matrix explicit inverse and closed-form log, and within 4 eps of
    # the LU solve and Mercator loop (measured 1.9 eps): the displacement's
    # O(1) entries round apart by an eps or so, and its log is near D - I
    csv = tmp_path / "steps.csv"
    assert main(["simulate", "--alpha", "1", "--beta", "2", "--n", "2000", "--m", "20",
                 "--seed", "5", "--out-json", str(tmp_path / "s.json"),
                 "--out-csv", str(csv)]) == 0
    traj = simulate_walk(example_model(1.0, 2.0).distribution(), 2000, 5)
    increments = traj.increments
    rows, mercator = [], []
    for k in range(1, traj.n + 1):
        rel = explicit_solve(traj.point(k - 1), traj.point(k))
        rows.append((k, float(np.linalg.norm(stoch2_log(rel))),
                     float(np.linalg.norm(increments[k - 1]) / traj.n)))
        rel = np.linalg.solve(traj.point(k - 1), traj.point(k))
        mercator.append(float(np.linalg.norm(reference_logm(rel))))
    looped = tmp_path / "looped.csv"
    write_csv(str(looped), ["k", "proxy_distance", "increment_norm_over_n"], rows)
    assert csv.read_bytes() == looped.read_bytes()
    proxy = np.loadtxt(csv, delimiter=",", skiprows=1)[:, 1]
    assert np.abs(proxy - mercator).max() <= 4 * np.finfo(float).eps


def test_write_csv_blocks_match_per_value_format(tmp_path, monkeypatch):
    # three rows per block: the first block has a float and an int column,
    # the second mixes ints, floats, numpy scalars and None in its columns,
    # the third has rows of different lengths
    monkeypatch.setattr(cli, "CSV_BLOCK_ROWS", 3)
    rows = [(1, 0.1, True), (2, float("nan"), False), (3, -0.0, 1),
            (4.0, 10**20, np.float64(1 / 3)), (np.int64(5), None, np.True_), (6, 5e-324, "x"),
            (7,), (8, float("inf"), 2), ()]
    want = "".join(",".join(cli._fmt(v) for v in row) + "\n" for row in [("a", "b", "c"), *rows])
    path = tmp_path / "t.csv"
    write_csv(str(path), ["a", "b", "c"], iter(rows))
    assert path.read_bytes() == want.encode()


def test_legendre_point_and_grid(tmp_path):
    out = tmp_path / "leg.json"
    code = main(["legendre", "--alpha", "1", "--beta", "1", "--x1", "0.25",
                 "--x2", "0.75", "--out-json", str(out)])
    assert code == 0
    point = load(out)["results"]["points"][0]
    assert point["value"] == pytest.approx(0.1308120359411369, abs=1e-9)
    assert point["closed_form"] == pytest.approx(point["value"], abs=1e-7)

    csv = tmp_path / "grid.csv"
    code = main(["legendre", "--alpha", "1", "--beta", "1", "--grid", "9",
                 "--out-json", str(tmp_path / "g.json"), "--out-csv", str(csv)])
    assert code == 0
    lines = csv.read_text().splitlines()
    assert len(lines) == 10
    first = lines[1].split(",")
    assert float(first[2]) == pytest.approx(np.log(2), abs=1e-9)  # vertex value


def test_legendre_requires_a_point():
    assert main(["legendre", "--alpha", "1", "--beta", "1"]) == 1


@pytest.mark.parametrize("grid", ["-3", "0"])
def test_legendre_grid_below_one_is_usage_error(grid, capsys):
    assert main(["legendre", "--alpha", "1", "--beta", "1", "--x1", "0.25", "--x2", "0.75",
                 "--grid", grid]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"usage error: --grid must be at least 1, got {grid}\n"


def test_rate_report_cli(tmp_path, endpoint_file):
    out = tmp_path / "rate.json"
    csv = tmp_path / "rate.csv"
    code = main(["rate", "--alpha", "1", "--endpoint", endpoint_file,
                 "--m", "2,4", "--out-json", str(out), "--out-csv", str(csv)])
    assert code == 0
    doc = load(out)
    res = doc["results"]
    assert set(res) == {"endpoint", "m_values", "discretized", "constraint_residuals",
                        "minimizer_mixture", "diagnostics"}
    assert set(res["diagnostics"]) == {"iterations", "status", "reasons"}
    assert doc["config"]["alpha"] == 1.0
    assert set(res["discretized"]) == {"2", "4"}
    # below the cost of the constant-split path, h(0.8), an upper bound
    assert 0.0 < res["discretized"]["4"] <= res["discretized"]["2"] < 0.19274475702 - 1e-3
    lines = csv.read_text().splitlines()
    assert lines[0] == "m,value,constraint_residual"
    assert len(lines) == 3


def test_mc_estimate_cli(tmp_path, center_file):
    csv = tmp_path / "mc.csv"
    code = main(["mc-estimate", "--alpha", "1", "--beta", "1",
                 "--center", center_file, "--radius", "0.1",
                 "--ns", "10,20", "--samples", "2000", "--seed", "5",
                 "--out-json", str(tmp_path / "mc.json"), "--out-csv", str(csv)])
    assert code == 0
    lines = csv.read_text().splitlines()
    assert lines[0].startswith("n,samples,weighted_hits,p,")
    assert len(lines) == 3
    payload = load(tmp_path / "mc.json")
    assert payload["results"]["metadata"]["disclaimer"]


def test_mc_estimate_shards_ignore_environment(tmp_path, center_file, monkeypatch):
    # the shard count picks the random streams, so only the flag or config sets it
    monkeypatch.setenv("LIEWALK_WORKERS", "3")
    code = main(["mc-estimate", "--alpha", "1", "--beta", "1",
                 "--center", center_file, "--radius", "0.1",
                 "--ns", "10", "--samples", "200", "--seed", "5",
                 "--out-json", str(tmp_path / "mc.json")])
    assert code == 0
    assert load(tmp_path / "mc.json")["config"]["shards"] == 1


def test_verify_bounds_cli(tmp_path):
    out = tmp_path / "vb.json"
    code = main(["verify-bounds", "--dim", "2", "--radius", "0.2",
                 "--pairs", "300", "--seed", "1", "--strict",
                 "--out-json", str(out), "--out-csv", str(tmp_path / "vb.csv")])
    assert code == 0
    res = load(out)["results"]
    assert res["failures"] == 0 and res["pairs"] == 300
    header = (tmp_path / "vb.csv").read_text().splitlines()[0]
    assert header == "seed,norm_x,norm_y,ad_norm,lhs,rhs,pass"


def test_selftest_cli(tmp_path):
    out = tmp_path / "self.json"
    code = main(["exp-log-selftest", "--dims", "2", "--samples", "30",
                 "--out-json", str(out), "--strict"])
    assert code == 0
    res = load(out)["results"]["2"]
    assert res["injectivity"]["passed"]
    assert res["bch_radius"]["series_converges"]


def test_config_file_merging_and_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("alpha = 1.0\nbeta = 1.0\nn = 100\nm = 5\nseed = 2\n# comment\n")
    out = tmp_path / "out.json"
    code = main(["simulate", "--config", str(cfg), "--n", "64",
                 "--out-json", str(out)])
    assert code == 0
    resolved = load(out)["config"]
    assert resolved["n"] == 64       # flag overrides the file value
    assert resolved["m"] == 5        # file value used
    # the resolved config round-trips through the flat format losslessly
    text = "\n".join(f"{k} = {json.dumps(v)}" for k, v in resolved.items()
                     if k != "subcommand")
    reparsed = parse_config_file(_write(tmp_path / "echo.cfg", text))
    assert reparsed == {k: v for k, v in resolved.items() if k != "subcommand"}


@pytest.mark.parametrize("line, key, error", [
    ("alpha = abc", "alpha", "expected float, got 'abc'"),
    ("n = 100.7", "n", "expected int, got 100.7"),
    ("n = true", "n", "expected int, got True"),
    ("n = \"100.7\"", "n", "expected int, got '100.7'"),
    ("m = [5]", "m", "expected int, got [5]"),
], ids=["float-word", "int-fraction", "int-bool", "int-string", "int-list"])
def test_config_file_value_of_the_wrong_type_is_usage_error(line, key, error, tmp_path, capsys):
    cfg = _write(tmp_path / "run.cfg", "alpha = 1\nbeta = 1\nn = 100\nm = 5\n" + line)
    assert main(["simulate", "--config", cfg]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"usage error: config key {key}: {error}\n"


def test_config_file_values_take_the_flag_types(tmp_path, capsys):
    # numbers and strings from the file become what the same flags would give
    cfg = _write(tmp_path / "run.cfg", 'alpha = 1\nbeta = "2.5"\nn = 1e2\nm = "5"\nseed = 3')
    assert main(["simulate", "--config", cfg]) == 0
    from_file = json.loads(capsys.readouterr().out)
    assert main(["simulate", "--alpha", "1", "--beta", "2.5", "--n", "100", "--m", "5",
                 "--seed", "3"]) == 0
    from_flags = json.loads(capsys.readouterr().out)
    assert from_file["config"] == from_flags["config"]
    assert from_file["results"] == from_flags["results"]
    assert [type(from_file["config"][k]) for k in ("alpha", "beta", "n", "m")] == [
        float, float, int, int]


def test_config_file_keeps_the_unset_default_and_integer_lists(tmp_path, capsys, endpoint_file):
    # a legendre report's config, with its "" for the unset grid, reads back
    cfg = _write(tmp_path / "leg.cfg", 'alpha = 1\nbeta = 1\nx1 = 0.25\nx2 = 0.75\n'
                 'x = ""\ngrid = ""')
    assert main(["legendre", "--config", cfg]) == 0
    assert json.loads(capsys.readouterr().out)["config"]["grid"] == ""
    cfg = _write(tmp_path / "rate.cfg", f"alpha = 1\nendpoint = {endpoint_file}\nm = [2, 4]")
    assert main(["rate", "--config", cfg]) == 0
    assert json.loads(capsys.readouterr().out)["results"]["m_values"] == [2, 4]


def test_config_file_key_the_subcommand_does_not_take_is_usage_error(tmp_path, capsys):
    # a misspelled seed would otherwise be dropped and the run echo seed 0
    cfg = _write(tmp_path / "run.cfg", "alpha = 1\nbeta = 1\nn = 100\nm = 5\nsede = 9")
    assert main(["simulate", "--config", cfg]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("usage error: config key sede: not a key of this subcommand; "
                            "expected one of alpha, beta, m, n, seed\n")
    # seed is every subcommand's flag, so legendre takes it from a file too
    cfg = _write(tmp_path / "leg.cfg", "alpha = 1\nbeta = 1\nx1 = 0.25\nx2 = 0.75\nseed = 9")
    assert main(["legendre", "--config", cfg]) == 0
    assert "seed" not in json.loads(capsys.readouterr().out)["config"]


def test_failed_certificate_under_strict_exits_2_and_still_writes(tmp_path, monkeypatch, capsys):
    def failing(traj, m):
        return dataclasses.replace(replacement_deviation(traj, m), passed=False)
    monkeypatch.setattr(cli, "replacement_deviation", failing)
    argv = ["simulate", "--alpha", "1", "--beta", "1", "--n", "200", "--m", "5", "--seed", "3"]
    strict, plain = tmp_path / "strict.json", tmp_path / "plain.json"
    assert main(argv + ["--strict", "--out-json", str(strict)]) == cli.EXIT_CERTIFICATE == 2
    assert main(argv + ["--out-json", str(plain)]) == 0
    assert capsys.readouterr() == ("", "")
    reports = [load(path) for path in (strict, plain)]
    assert [r["results"]["deviation_certificate"]["passed"] for r in reports] == [False, False]
    assert reports[0]["results"] == reports[1]["results"]


def _write(path, text):
    path.write_text(text + "\n")
    return str(path)


def test_missing_required_key_is_usage_error(tmp_path):
    assert main(["simulate", "--alpha", "1", "--beta", "1",
                 "--out-json", str(tmp_path / "x.json")]) == 1


def test_bad_matrix_file_is_numeric_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps([[1.0, 0.5], [0.0, 1.0]]))  # row sums off
    code = main(["rate", "--alpha", "1", "--endpoint", str(bad), "--m", "2"])
    assert code == 3
    diag = json.loads(capsys.readouterr().err.strip())
    assert diag["error"] == "MembershipError"
    assert "unit_row_sum" in diag["message"]


@pytest.mark.parametrize("m", ["0", "-3", "51"])
def test_simulate_m_outside_one_to_n_is_numeric_error(m, capsys):
    assert main(["simulate", "--alpha", "1", "--beta", "1", "--n", "50", "--m", m]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    diag = json.loads(captured.err.strip())
    assert diag["error"] == "InvalidArgumentError"
    assert f"must lie in [1, n] = [1, 50], got {int(m)}" in diag["message"]


def test_simulate_through_a_singular_point_is_numeric_error(capsys):
    # at rates 50 and n = 50 the walk's points from k = 40 on are singular in float64
    assert main(["simulate", "--alpha", "50", "--beta", "50", "--n", "50", "--m", "5",
                 "--seed", "1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    diag = json.loads(captured.err.strip())
    assert diag["error"] == "SingularMatrixError"
    assert diag["message"] == "walk point k=40 is singular"


def test_unknown_subcommand_is_usage_error():
    assert main(["frobnicate"]) == 1


@pytest.mark.parametrize("argv, error", [
    (["verify-bounds", "--pairs", "-3"], "InvalidArgumentError"),
    (["verify-bounds", "--radius", "0.5", "--pairs", "10"], "OutOfDomainError"),
    (["exp-log-selftest", "--dims", "2", "--samples", "-5"], "InvalidArgumentError"),
])
def test_suites_that_would_certify_nothing_are_numeric_errors(argv, error, capsys):
    assert main(argv + ["--strict"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err.strip())["error"] == error


def test_verify_bounds_csv_prints_pass_flags_as_digits(tmp_path):
    csv = tmp_path / "vb.csv"
    assert main(["verify-bounds", "--pairs", "3", "--out-json", str(tmp_path / "vb.json"),
                 "--out-csv", str(csv)]) == 0
    assert [line.rsplit(",", 1)[1] for line in csv.read_text().splitlines()[1:]] == ["1"] * 3


@pytest.mark.parametrize("ms", [",", "4,x", "2.5"])
def test_bad_integer_list_is_usage_error(ms, endpoint_file, capsys):
    assert main(["rate", "--alpha", "1", "--endpoint", endpoint_file, "--m", ms]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error:") and "Traceback" not in captured.err


@pytest.mark.parametrize("argv, path", [
    (["rate", "--alpha", "1", "--endpoint", "{missing}"], "{missing}"),
    (["rate", "--alpha", "1", "--endpoint", "{notjson}"], "{notjson}"),
    (["legendre", "--alpha", "1", "--beta", "1", "--x", "{missing}"], "{missing}"),
    (["mc-estimate", "--alpha", "1", "--beta", "1", "--center", "{missing}",
      "--radius", "0.1", "--ns", "10", "--samples", "10"], "{missing}"),
    (["mc-estimate", "--alpha", "1", "--beta", "1", "--center", "{center}",
      "--radius", "0.1", "--ns", "10", "--samples", "10", "--tilt", "{missing}"], "{missing}"),
    (["simulate", "--config", "{missing}"], "{missing}"),
    (["verify-bounds", "--pairs", "3", "--out-json", "{nodir}"], "{nodir}"),
    (["verify-bounds", "--pairs", "3", "--out-csv", "{nodir}"], "{nodir}"),
], ids=["endpoint", "not-json", "x", "center", "tilt", "config", "out-json", "out-csv"])
def test_unreadable_or_unwritable_file_is_usage_error(argv, path, tmp_path, center_file, capsys):
    notjson = tmp_path / "notjson.json"
    notjson.write_text("[[1, 0], [0, 1")
    names = {"missing": str(tmp_path / "missing.json"), "notjson": str(notjson),
             "center": center_file, "nodir": str(tmp_path / "no-such-dir" / "out")}
    assert main([arg.format(**names) for arg in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error:") and path.format(**names) in captured.err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["center.json", "notjson.json"]


COMMON_OPTIONS = {"--config": str, "--out-json": str, "--out-csv": str, "--seed": int}


@pytest.mark.parametrize("name, options, required, defaults", [
    ("simulate", {"--alpha": float, "--beta": float, "--n": int, "--m": int},
     ["--alpha", "1", "--beta", "1", "--n", "10", "--m", "2"], {"seed": 0}),
    ("legendre", {"--alpha": float, "--beta": float, "--x1": float, "--x2": float,
                  "--x": str, "--grid": int},
     ["--alpha", "1", "--beta", "1", "--x1", "0.25", "--x2", "0.75", "--seed", "3"],
     {"x": "", "grid": ""}),
    ("rate", {"--alpha": float, "--endpoint": str, "--m": str},
     ["--alpha", "1", "--endpoint", "{endpoint}"], {"m": "8,16,32", "seed": 0}),
    ("mc-estimate", {"--alpha": float, "--beta": float, "--center": str, "--radius": float,
                     "--ns": str, "--samples": int, "--tilt": str, "--shards": int},
     ["--alpha", "1", "--beta", "1", "--center", "{center}", "--radius", "0.1",
      "--ns", "10", "--samples", "100"], {"tilt": "none", "shards": 1, "seed": 0}),
    ("verify-bounds", {"--dim": int, "--radius": float, "--pairs": int},
     [], {"dim": 2, "radius": 0.2, "pairs": 1000, "seed": 0}),
    ("exp-log-selftest", {"--dims": str, "--samples": int},
     [], {"dims": "2,3", "samples": 100, "seed": 0}),
])
def test_each_subcommand_keeps_its_options_types_and_defaults(
        name, options, required, defaults, endpoint_file, center_file, capsys):
    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    accepted = set(sub.choices[name]._option_string_actions)
    expected = {**COMMON_OPTIONS, **options}
    assert accepted == {"-h", "--help", "--strict"} | set(expected)
    for option, kind in expected.items():
        value = getattr(parser.parse_args([name, option, "7"]), option[2:].replace("-", "_"))
        assert type(value) is kind, option
    argv = [arg.format(endpoint=endpoint_file, center=center_file) for arg in required]
    assert main([name] + argv) == 0
    config = json.loads(capsys.readouterr().out)["config"]
    given = {flag[2:] for flag in argv[::2]} - ({"seed"} if name == "legendre" else set())
    assert set(config) == {"subcommand"} | given | set(defaults)
    assert {key: config[key] for key in defaults} == defaults


def test_build_parser_is_built_once():
    assert build_parser() is build_parser()


def test_shared_parser_runs_like_separate_processes(capsys, fresh_python):
    # a failing --strict run must leave nothing behind for the next run of the parser
    failing = ["verify-bounds", "--radius", "0.5", "--pairs", "10", "--strict"]
    plain = ["verify-bounds", "--pairs", "20", "--seed", "4"]
    in_process = []
    for argv in (failing, plain):
        code = main(argv)
        captured = capsys.readouterr()
        in_process.append((code, captured.out, captured.err))
    cli = "import sys; from liewalk.cli import main; sys.exit(main(sys.argv[1:]))"
    separate = [(done.returncode, done.stdout, done.stderr)
                for done in (fresh_python(cli, *argv) for argv in (failing, plain))]
    assert [code for code, _, _ in in_process] == [code for code, _, _ in separate] == [3, 0]
    assert in_process[0] == separate[0]       # no stdout; the same diagnostic on stderr
    got, want = json.loads(in_process[1][1]), json.loads(separate[1][1])
    assert got["config"] == want["config"] and got["config"]["radius"] == 0.2
    assert got["results"] == want["results"]
