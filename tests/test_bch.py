import numpy as np
import pytest

import liewalk.bch as bch
from liewalk import (
    InvalidArgumentError,
    NonConvergenceError,
    OutOfDomainError,
    R_BCH,
    bch_log,
    c_constant,
    coords,
    empirical_lipschitz_constant,
    exp_matrix,
    f_operator,
    from_coords,
    g_operator,
    log_matrix,
    run_log_product_suite,
    validate_bch_radius,
    verify_lipschitz,
    verify_log_product,
)
from liewalk.bch import (
    C_SERIES,
    CERT_TOL,
    SERIES_MAX_ORDER,
    SERIES_TOL,
    SQRT2M1,
    _g_series,
    _log_product_bounds,
    _pair_rng,
    g_tail,
    sample_ball,
)
from liewalk.lie import (
    AlgebraVector,
    _expm,
    _logm_stack,
    ad_operator,
    operator_norm,
    validate_injectivity,
)
import bch_reference as reference


def rand_pair(rng, d, radius):
    return (sample_ball(d, radius, rng, surface=True),
            sample_ball(d, radius, rng, surface=True))


# ---------------------------------------------------------------------------
# series operators

def test_f_operator_at_zero_is_identity():
    z = from_coords(np.zeros(2), 2)
    np.testing.assert_array_equal(f_operator(z), np.eye(2))


def test_f_operator_distance_to_identity_bound(rng):
    for _ in range(30):
        x = sample_ball(3, 0.5, rng)
        op = f_operator(x)
        dev = np.linalg.norm(op - np.eye(len(op)), 2)
        assert dev <= np.expm1(np.linalg.svd(ad_operator(x), compute_uv=False)[0]) + 1e-12


def test_f_operator_inverts_log_curve_derivative(rng):
    # d/dt log(exp X exp tY) at 0, pushed through f(ad_X), recovers Y
    h = 1e-4
    for _ in range(10):
        x = sample_ball(2, 0.15, rng)
        y = sample_ball(2, 0.15, rng)
        plus = log_matrix(exp_matrix(x) @ exp_matrix(h * y))
        minus = log_matrix(exp_matrix(x) @ exp_matrix(-h * y))
        deriv = (plus - minus) * (1.0 / (2 * h))
        back = from_coords(f_operator(x) @ coords(deriv), 2)
        assert (back - y).norm < 1e-6


def test_g_operator_identity_at_zero():
    z = from_coords(np.zeros(2), 2)
    np.testing.assert_allclose(g_operator(z, z, 0.5), np.eye(2), atol=1e-15)


def test_g_operator_commuting_fixes_y(rng):
    x = sample_ball(2, 0.15, rng)
    y = 2.0 * x
    for s in (0.0, 0.3, 1.0):
        out = from_coords(g_operator(x, y, s) @ coords(y), 2)
        assert (out - y).norm < 1e-12


def test_g_operator_matches_combined_exponent(rng):
    # e^{ad_X} e^{s ad_Y} = e^{ad_Z(s)} with Z(s) = log(exp X exp sY)
    for _ in range(10):
        x = sample_ball(2, 0.15, rng)
        y = sample_ball(2, 0.15, rng)
        s = rng.uniform(0, 1)
        direct = g_operator(x, y, s)
        z = log_matrix(exp_matrix(x) @ exp_matrix(s * y))
        via_z = _g_series(_expm(ad_operator(z)))
        np.testing.assert_allclose(direct, via_z, atol=1e-8)


def test_g_operator_contraction_violation_reports_norm():
    x = from_coords(np.array([3.0, 0.0]), 2)
    with pytest.raises(OutOfDomainError) as err:
        g_operator(x, x, 1.0)
    assert ">= 1" in str(err.value)


def test_series_tail_decreases():
    q = 0.4
    tails = [g_tail(q, m) for m in range(1, 30)]
    assert all(b < a for a, b in zip(tails, tails[1:]))
    assert tails[0] == pytest.approx(q ** 2 / (2 * 3 * (1 - q)))


# the order cap: at SERIES_MAX_ORDER terms a series whose tail bound is still
# at or above SERIES_TOL raises, where it used to return a truncated sum

SHEAR = np.array([[-1.0, 1.0], [0.3, -0.3]])


def f_reference(ad):
    """int_0^1 e^{-s ad} ds, the top-right block of expm([[-ad, I], [0, 0]])."""
    import scipy.linalg

    big = len(ad)
    block = np.zeros((2 * big, 2 * big))
    block[:big, :big], block[:big, big:] = -ad, np.eye(big)
    return scipy.linalg.expm(block)[:big, big:]


def test_f_operator_within_the_order_cap_matches_the_integral():
    # ||ad_X|| = 14.8: 60 terms bring the factorial tail bound below 1e-14
    x = AlgebraVector(10.0 * SHEAR)
    np.testing.assert_allclose(f_operator(x), f_reference(ad_operator(x)), rtol=0, atol=1e-12)


@pytest.mark.parametrize("scale, norm", [(20.0, "29.529646"), (40.0, "59.059292")])
def test_f_operator_raises_past_the_order_cap(scale, norm):
    # the truncated sums were off by 3.56 and 6.3e18 on entries of at most 0.78
    with pytest.raises(NonConvergenceError) as err:
        f_operator(AlgebraVector(scale * SHEAR))
    msg = str(err.value)
    assert f"order {SERIES_MAX_ORDER}" in msg and f"||ad_X|| = {norm}" in msg
    assert "tail bound" in msg


def test_g_operator_raises_past_the_order_cap():
    # contraction q = 0.831: the 60-term sum was off by 5.5e-10 and its tail
    # bound is 2.0e-8
    x = AlgebraVector(0.3 * np.array([[-1.0, 1.0], [0.0, 0.0]]))
    y = AlgebraVector(0.3 * np.array([[0.0, 0.0], [1.0, -1.0]]))
    with pytest.raises(NonConvergenceError) as err:
        g_operator(x, y, 1.0)
    msg = str(err.value)
    assert f"order {SERIES_MAX_ORDER}" in msg and "= 0.831181" in msg
    assert "tail bound 1.978e-08" in msg
    assert g_tail(0.831181, SERIES_MAX_ORDER) > SERIES_TOL


# ---------------------------------------------------------------------------
# bch_log

def test_bch_log_with_zero_y(rng):
    x = sample_ball(2, 0.2, rng)
    z = from_coords(np.zeros(2), 2)
    assert (bch_log(x, z) - x).norm < 1e-14


def test_bch_log_commuting_adds(rng):
    x = sample_ball(2, 0.1, rng)
    y = 0.7 * x
    assert (bch_log(x, y) - (x + y)).norm < 1e-12


def test_bch_log_matches_direct_log(rng):
    for d in (2, 3):
        for _ in range(40):
            x = sample_ball(d, R_BCH, rng)
            y = sample_ball(d, R_BCH, rng)
            direct = log_matrix(exp_matrix(x) @ exp_matrix(y))
            assert (bch_log(x, y) - direct).norm < 1e-8


def test_bch_log_reverse_identity(rng):
    x = sample_ball(2, 0.15, rng)
    y = sample_ball(2, 0.15, rng)
    lhs = bch_log(-1.0 * y, -1.0 * x)
    rhs = -1.0 * bch_log(x, y)
    assert (lhs - rhs).norm < 1e-10


def test_bch_log_radius_gate(rng):
    x = sample_ball(2, 0.5, rng, surface=True)
    with pytest.raises(OutOfDomainError):
        bch_log(x, x)


def test_log_products_raise_the_reason_of_a_pair_without_a_log():
    # exp(shear / 2) exp(rot / 2), the two steps of a 3x3 walk, has a pair of
    # negative eigenvalues; it sits between two small pairs that have logs
    cyc = np.roll(np.eye(3), 1, axis=1)
    rot = 2.7 * (cyc - cyc.T)
    shear = np.array([[-3.0, 3.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    x = np.stack([rot / 40, shear / 2, shear / 40])
    y = np.stack([shear / 40, rot / 2, rot / 40])
    e = _expm(np.stack((x, y), axis=1))
    _, ok, reasons = _logm_stack(e[:, 0] @ e[:, 1])
    assert ok.tolist() == [True, False, True]
    with pytest.raises(OutOfDomainError) as info:
        _log_product_bounds(x, y)
    assert str(info.value) == reasons[1]


def test_quadrature_convergence_monotone(rng):
    x = sample_ball(2, 0.2, rng, surface=True)
    y = sample_ball(2, 0.2, rng, surface=True)
    direct = log_matrix(exp_matrix(x) @ exp_matrix(y))
    errs = [(bch_log(x, y, quad_nodes=q) - direct).norm for q in (4, 8, 16, 32)]
    for a, b in zip(errs, errs[1:]):
        assert b <= max(1.1 * a, 1e-13)


# ---------------------------------------------------------------------------
# constants and certificates

def test_c_constant_zero():
    assert c_constant(0.0) == 0.0


def test_series_constant_direct_summation_oracle():
    total, power, m = 0.0, 1.0, 1
    while True:
        inc = power / (m * (m + 1))
        total += inc
        if inc < 1e-16:
            break
        power *= SQRT2M1
        m += 1
    assert C_SERIES == pytest.approx(total, abs=1e-15)


def test_c_constant_monotone():
    grid = np.linspace(0.0, 2.0, 40)
    vals = [c_constant(a) for a in grid]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_verify_log_product_zero_x(rng):
    z = from_coords(np.zeros(2), 2)
    y = sample_ball(2, 0.2, rng)
    cert = verify_log_product(z, y)
    assert cert.lhs < 1e-13 and cert.rhs < 1e-13 and cert.passed


def test_verify_log_product_commuting(rng):
    x = sample_ball(2, 0.15, rng)
    cert = verify_log_product(x, 0.5 * x)
    assert cert.lhs < 1e-12 and cert.passed


def test_log_product_suite_small(rng):
    for d in (2, 3):
        rows = list(run_log_product_suite(d, R_BCH, 500, seed=5))
        assert all(r[-1] for r in rows), "deviation bound violated"


def test_verify_lipschitz_equal_arguments(rng):
    x = sample_ball(2, 0.2, rng)
    cert = verify_lipschitz(x, x, 1.0)
    assert cert.lhs < 1e-12 and cert.passed


def test_verify_lipschitz_zero_y(rng):
    x = sample_ball(2, 0.2, rng)
    cert = verify_lipschitz(x, from_coords(np.zeros(2), 2), 1.0)
    assert cert.lhs == pytest.approx(x.norm, abs=1e-12)
    assert cert.passed


def test_empirical_lipschitz_constant_finite():
    c = empirical_lipschitz_constant(2, 0.2, 300, seed=9)
    assert 0.9 < c < 3.0
    # the constant is stable: fresh pairs stay within 10% headroom of it
    rng = np.random.default_rng(10)
    for _ in range(200):
        x, y = rand_pair(rng, 2, 0.2)
        assert verify_lipschitz(x, y, 1.1 * c).passed


def test_radius_report():
    rep = validate_bch_radius(2, n_samples=60, seed=3)
    assert rep.series_converges
    # the sqrt(2)-1 contraction is measurably exceeded at the working radius
    assert not rep.within_proof_constant
    assert rep.max_contraction_norm < 1.0


def test_operator_norm_hot_path_vs_svd(rng):
    # the norm used by certificates agrees with a plain dense SVD
    for _ in range(20):
        x = sample_ball(3, rng.uniform(0.05, 0.5), rng)
        op = ad_operator(x)
        assert operator_norm(op) == pytest.approx(np.linalg.svd(op, compute_uv=False)[0],
                                                  abs=1e-10)


def test_ad_norm_bounds_svd_at_criterion_3_pair():
    # pair 8617 of criterion 3's d = 3 suite, where power iteration settled
    # on the second singular value, 0.84% low
    x = sample_ball(3, R_BCH, _pair_rng(7, 8617))
    op = ad_operator(x)
    assert operator_norm(op) >= np.linalg.svd(op, compute_uv=False)[0]


# ---------------------------------------------------------------------------
# single-pair certificates against the one-pair formulas, byte for byte

@pytest.mark.parametrize("d", [2, 3])
def test_single_pair_certificates_match_the_one_pair_formulas(d):
    zero = from_coords(np.zeros(d * d - d), d)
    for i in range(300):
        rng = _pair_rng(31, i)
        x, y = sample_ball(d, R_BCH, rng), sample_ball(d, R_BCH, rng)
        for a, b in ((x, y), (zero, y), (x, zero), (x, 0.5 * x)):
            assert reference.cert_bits(verify_log_product(a, b)) == reference.cert_bits(
                reference.verify_log_product(a, b))
            assert reference.cert_bits(verify_lipschitz(a, b, 1.3)) == reference.cert_bits(
                reference.verify_lipschitz(a, b, 1.3))


# ---------------------------------------------------------------------------
# stacked suites against per-pair loops with the SVD norm

NORM_TOL = 1e-15      # |X|, |Y| and lhs, absolute
AD_REL = 1e-13        # ad_norm and rhs, relative to the SVD loop
CONTRACTION_REL = 1e-12


def svd_norm(m):
    return float(np.linalg.svd(m, compute_uv=False)[0])


def loop_rows(d, radius, indices, seed):
    for i in indices:
        rng = _pair_rng(seed, i)
        x = sample_ball(d, radius, rng)
        y = sample_ball(d, radius, rng)
        ad_norm = svd_norm(ad_operator(x))
        lhs = (log_matrix(exp_matrix(x) @ exp_matrix(y)) - x - y).norm
        rhs = c_constant(ad_norm) * y.norm
        yield (i, x.norm, y.norm, ad_norm, lhs, rhs, bool(lhs <= rhs + CERT_TOL))


def loop_contraction(d, radius, n_samples, seed):
    worst = 0.0
    for i in range(n_samples):
        rng = _pair_rng(seed, i)
        x = sample_ball(d, radius, rng, surface=True)
        y = sample_ball(d, radius, rng, surface=True)
        wx = _expm(ad_operator(x))
        ad_y = ad_operator(y)
        for s in (0.25, 0.5, 0.75, 1.0):
            w = wx @ _expm(s * ad_y)
            worst = max(worst, svd_norm(w - np.eye(w.shape[0])))
    return worst


def loop_lipschitz(d, radius, n_pairs, seed):
    worst = 0.0
    for i in range(n_pairs):
        rng = _pair_rng(seed, i)
        x = sample_ball(d, radius, rng)
        y = sample_ball(d, radius, rng)
        gap = (x - y).norm
        if gap >= 1e-12:
            worst = max(worst, log_matrix(exp_matrix(x) @ exp_matrix(-y)).norm / gap)
    return worst


def assert_rows_match(rows, refs):
    for row, ref in zip(rows, refs, strict=True):
        assert all(type(v) is type(w) for v, w in zip(row, ref))
        assert row[0] == ref[0]
        assert row[1:3] == pytest.approx(ref[1:3], rel=0, abs=NORM_TOL)
        assert ref[3] <= row[3] == pytest.approx(ref[3], rel=AD_REL, abs=0)
        assert row[4] == pytest.approx(ref[4], rel=0, abs=NORM_TOL)
        assert row[5] == pytest.approx(ref[5], rel=AD_REL, abs=0)
        assert row[6] == ref[6]


@pytest.mark.parametrize("d", [2, 3])
def test_log_product_rows_match_loop_across_a_block_edge(d):
    n = bch._BLOCK + 1
    picked = [0, 1, n // 2, n - 2, n - 1]
    rows = list(run_log_product_suite(d, R_BCH, n, seed=4))
    assert [r[0] for r in rows] == list(range(n))
    assert_rows_match([rows[i] for i in picked], loop_rows(d, R_BCH, picked, 4))


@pytest.mark.parametrize("d", [2, 3])
def test_max_suites_match_loops_across_a_block_edge(monkeypatch, d):
    monkeypatch.setattr(bch, "_BLOCK", 16)
    rep = validate_bch_radius(d, R_BCH, n_samples=17, seed=6)
    want = loop_contraction(d, R_BCH, 17, 6)
    assert want <= rep.max_contraction_norm == pytest.approx(want, rel=CONTRACTION_REL, abs=0)
    assert empirical_lipschitz_constant(d, R_BCH, 17, seed=6) == pytest.approx(
        loop_lipschitz(d, R_BCH, 17, 6), rel=AD_REL, abs=0)


@pytest.mark.parametrize("d", [2, 3])
def test_suites_do_not_depend_on_the_block_size(monkeypatch, d):
    def outputs():
        return (list(run_log_product_suite(d, R_BCH, 50, seed=2)),
                validate_bch_radius(d, R_BCH, n_samples=50, seed=2),
                empirical_lipschitz_constant(d, R_BCH, 50, seed=2))

    default = outputs()
    monkeypatch.setattr(bch, "_BLOCK", 7)
    assert outputs() == default


def test_pass_flags_match_loop_on_criterion_3_suites():
    # a flag can differ from the SVD loop's only where lhs - rhs - CERT_TOL
    # is within the row tolerances of zero; recompute those pairs in the loop
    for d in (2, 3):
        rows = list(run_log_product_suite(d, 0.2, 10_000, seed=7))
        close = [r for r in rows if abs(r[5] + CERT_TOL - r[4]) <= 2 * NORM_TOL + AD_REL * r[5]]
        assert_rows_match(close, loop_rows(d, 0.2, [r[0] for r in close], 7))
        assert all(r[6] for r in rows)


# ---------------------------------------------------------------------------
# suite arguments

SUITES = [
    lambda n, r: list(run_log_product_suite(2, r, n, seed=0)),
    lambda n, r: validate_bch_radius(2, r, n_samples=n, seed=0),
    lambda n, r: empirical_lipschitz_constant(2, r, n, seed=0),
    lambda n, r: validate_injectivity(2, radius=r, n_samples=n, seed=0),
]


@pytest.mark.parametrize("suite", SUITES)
@pytest.mark.parametrize("n, radius", [(0, 0.1), (-3, 0.1), (5, 0.0), (5, -0.1),
                                       (5, np.inf), (5, np.nan)])
def test_suites_reject_empty_samples_and_bad_radii(suite, n, radius):
    with pytest.raises(InvalidArgumentError):
        suite(n, radius)


def test_log_product_suites_reject_radii_past_r_bch():
    with pytest.raises(OutOfDomainError):
        run_log_product_suite(2, 0.5, 10, seed=0)     # raises at the call
    with pytest.raises(OutOfDomainError):
        empirical_lipschitz_constant(2, 0.5, 10, seed=0)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("surface", [False, True])
def test_pair_blocks_draw_as_sample_ball(d, surface):
    # pair i is sample_ball twice on the stream spawn_key=(i,), bit for bit,
    # across a block edge
    n = bch._BLOCK + 3
    seen = 0
    for start, x, y in bch._pair_blocks(d, 0.2, n, 7, surface=surface):
        for j in range(len(x)):
            rng = _pair_rng(7, start + j)
            assert sample_ball(d, 0.2, rng, surface).entries.tobytes() == x[j].tobytes()
            assert sample_ball(d, 0.2, rng, surface).entries.tobytes() == y[j].tobytes()
            seen += 1
    assert seen == n
