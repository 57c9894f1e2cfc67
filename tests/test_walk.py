import numpy as np
import pytest
from scipy.stats import ks_2samp

from liewalk import (
    AlgebraVector,
    IncrementDistribution,
    InvalidArgumentError,
    OutOfDomainError,
    distance_proxy,
    estimate_continuity_constant,
    example_model,
    exp_matrix,
    kappa_support,
    log_matrix,
    psi_m,
    psi_m_continuity_check,
    replacement_deviation,
    segment_decomposition,
    simulate_walk,
    verify_lipschitz,
)
from liewalk.bch import sample_ball
from liewalk.cli import main
from liewalk._kernels import stoch2_logs
from liewalk.lie import GroupElement, _expm
from liewalk.walk import _logs_or_raise
import bch_reference as reference
from logm_reference import logm as reference_logm
from stoch2_reference import LOG_ATOL, LOG_RTOL, explicit_solve, stoch2_log
from test_legendre import generator_law_3x3


def test_point_mass_walk_is_one_parameter():
    x = AlgebraVector([[-0.8, 0.8], [0.3, -0.3]])
    traj = simulate_walk(IncrementDistribution.point_mass(x), 64, seed=1)
    np.testing.assert_allclose(traj.endpoint.entries, exp_matrix(x).entries,
                               atol=1e-12)


def test_single_step_walk(dist):
    traj = simulate_walk(dist, 1, seed=3)
    atom = dist.atoms[traj.atom_indices[0]]
    np.testing.assert_allclose(traj.endpoint.entries, exp_matrix(atom).entries,
                               atol=1e-14)


def test_walk_points_stay_in_group(dist):
    traj = simulate_walk(dist, 100, seed=5)
    pts = traj.points
    np.testing.assert_allclose(pts.sum(axis=2), 1.0, atol=1e-12)
    assert pts.min() >= 0.0  # transition matrices for positive-cone increments
    # strictly positive once both atom types have occurred
    both_seen = 1 + int(np.argmax(traj.atom_indices != traj.atom_indices[0])) + 1
    assert pts[both_seen:].min() > 0.0


def test_walk_determinism(dist):
    a = simulate_walk(dist, 500, seed=42)
    b = simulate_walk(dist, 500, seed=42)
    np.testing.assert_array_equal(a.atom_indices, b.atom_indices)
    np.testing.assert_array_equal(a.points, b.points)
    c = simulate_walk(dist, 500, seed=43)
    assert not np.array_equal(a.atom_indices, c.atom_indices)


def test_step_recurrence_invariant(dist):
    traj = simulate_walk(dist, 50, seed=9)
    from liewalk.lie import _expm

    for k in range(1, 51):
        step = _expm(traj.increments[k - 1] / traj.n)
        np.testing.assert_allclose(traj.point(k), traj.point(k - 1) @ step,
                                   atol=1e-10)


def test_per_step_proxy_distance(dist):
    traj = simulate_walk(dist, 40, seed=11)
    for k in range(1, 41):
        d = distance_proxy(GroupElement(traj.point(k - 1)),
                           GroupElement(traj.point(k)))
        expected = np.linalg.norm(traj.increments[k - 1]) / traj.n
        assert d == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_simulate_csv_proxy_distance_matches_increment_norm(tmp_path, seed):
    # every step of the two-state law has |X| / n = sqrt(2) / n; rounding in
    # the stored points is all that separates the CSV's proxy from it
    # (measured at most 9.3e-12 relative over 40 seeds)
    csv = tmp_path / "steps.csv"
    assert main(["simulate", "--alpha", "1", "--beta", "1", "--n", "10000", "--m", "20",
                 "--seed", str(seed), "--out-json", str(tmp_path / "s.json"),
                 "--out-csv", str(csv)]) == 0
    table = np.loadtxt(csv, delimiter=",", skiprows=1)
    expect = np.sqrt(2.0) / 10_000
    np.testing.assert_allclose(table[:, 2], expect, rtol=1e-15)
    assert np.abs(table[:, 1] - expect).max() <= 1e-10 * expect


def test_triangle_accumulation(dist):
    traj = simulate_walk(dist, 2000, seed=13)
    b = dist.support_bound
    for k in range(1, 2001, 37):
        lg = log_matrix(GroupElement(traj.point(k)))
        assert lg.norm <= (k / traj.n) * b + 1e-9


def test_point_takes_integers_in_range_only(dist):
    traj = simulate_walk(dist, 120, seed=17)
    np.testing.assert_array_equal(traj.point(np.int64(77)), traj.points[77])
    for k in (2.5, 2.0, "3", None, -1, 121):
        with pytest.raises(InvalidArgumentError):
            traj.point(k)


# ---------------------------------------------------------------------------
# segment decomposition

def test_single_step_segments(dist):
    traj = simulate_walk(dist, 16, seed=19)
    seg = segment_decomposition(traj, 16)
    for l, y in enumerate(seg.segment_logs, start=1):
        xi = traj.increments[l - 1] / traj.n
        assert np.abs(y.entries - xi).max() < 1.0 / traj.n ** 2 + 1e-12
        # round trip through the exponential
        rel = np.linalg.solve(traj.point(l - 1), traj.point(l))
        assert np.abs(exp_matrix(y).entries - rel).max() < 1e-10


def test_whole_walk_segment(dist):
    traj = simulate_walk(dist, 10, seed=21)
    seg = segment_decomposition(traj, 1)
    expected = log_matrix(traj.endpoint)
    assert (seg.segment_logs[0] - expected).norm < 1e-12


def test_segment_reassembly(dist):
    traj = simulate_walk(dist, 1000, seed=23)
    seg = segment_decomposition(traj, 10)
    assert distance_proxy(psi_m(seg.segment_logs), traj.endpoint) < 1e-8


def test_segment_log_at(dist):
    traj = simulate_walk(dist, 100, seed=25)
    seg = segment_decomposition(traj, 4)
    y = seg.log_at(2, 25)
    rel = np.linalg.solve(traj.point(25), traj.point(50))
    np.testing.assert_allclose(exp_matrix(y).entries, rel, atol=1e-12)
    with pytest.raises(InvalidArgumentError):
        seg.log_at(5, 1)


def test_segment_exchangeability(dist):
    # norms of block logs from different block positions share a distribution
    first, middle = [], []
    for seed in range(1000):
        traj = simulate_walk(dist, 100, seed=seed)
        seg = segment_decomposition(traj, 10)
        first.append(seg.segment_logs[0].norm)
        middle.append(seg.segment_logs[6].norm)
    stat = ks_2samp(first, middle).statistic
    assert stat < 0.07, f"KS statistic {stat}"


# ---------------------------------------------------------------------------
# replacement certificate

def test_replacement_point_mass_zero_deviation():
    x = AlgebraVector([[-0.5, 0.5], [0.2, -0.2]])
    traj = simulate_walk(IncrementDistribution.point_mass(x), 200, seed=1)
    cert = replacement_deviation(traj, 10)
    assert cert.max_deviation < 1e-12
    assert cert.passed


def test_replacement_certificate_example(dist):
    traj = simulate_walk(dist, 4000, seed=31)
    for m in (20, 80):
        cert = replacement_deviation(traj, m)
        assert cert.passed, (cert.max_deviation, cert.bound)
        assert cert.checked_steps == 4000 // m


def test_replacement_bound_shrinks_with_m(dist):
    traj = simulate_walk(dist, 4000, seed=33)
    c1 = replacement_deviation(traj, 20)
    c2 = replacement_deviation(traj, 40)
    assert c2.bound < 0.5 * c1.bound
    assert c2.max_deviation <= c1.max_deviation  # nested prefixes


@pytest.mark.parametrize("m", [0, -3, 201])
def test_replacement_rejects_m_outside_one_to_n(dist, m):
    traj = simulate_walk(dist, 200, seed=1)
    with pytest.raises(InvalidArgumentError, match=r"\[1, n\] = \[1, 200\], got "):
        replacement_deviation(traj, m)


def _looped_replacement(traj, m, logm=reference_logm):
    """The per-step loop the stacked certificate replaces: (max_deviation, argmax_k)."""
    n = traj.n
    k_max = n // m
    cums = np.cumsum(traj.dist.atom_stack()[traj.atom_indices[:k_max]], axis=0) / n
    worst, arg = -1.0, 0
    for k in range(1, k_max + 1):
        try:
            lg = logm(traj.point(k))
        except OutOfDomainError as exc:
            raise OutOfDomainError(f"prefix log undefined at k={k}: {exc}")
        dev = float(np.linalg.norm(lg - cums[k - 1]))
        if dev > worst:
            worst, arg = dev, k
    return worst, arg


def _looped_segment_logs(traj, m, logm=reference_logm):
    block = traj.n // m
    bounds = [l * block for l in range(m)] + [traj.n]
    return [logm(np.linalg.solve(traj.point(lo), traj.point(hi)))
            for lo, hi in zip(bounds, bounds[1:])]


def _assert_matches_loop(traj, m):
    """A 2x2 walk's certificate and segment logs are byte for byte those of
    the one-matrix closed form, and within LOG_RTOL of the Mercator loop's;
    a larger walk's are byte for byte the Mercator loop's."""
    cert = replacement_deviation(traj, m)
    seg = [y.entries for y in segment_decomposition(traj, m).segment_logs]
    mercator = _looped_replacement(traj, m)
    if traj.dim > 2:
        assert (cert.max_deviation, cert.argmax_k) == mercator
        np.testing.assert_array_equal(seg, _looped_segment_logs(traj, m))
        return
    assert (cert.max_deviation, cert.argmax_k) == _looped_replacement(traj, m, stoch2_log)
    np.testing.assert_array_equal(seg, _looped_segment_logs(traj, m, stoch2_log))
    # every prefix log is within LOG_RTOL |log| of the loop's, and |log| is
    # at most the support bound (up to BCH terms far below it)
    assert cert.argmax_k == mercator[1]
    assert abs(cert.max_deviation - mercator[0]) <= LOG_RTOL * traj.dist.support_bound
    for y, ref in zip(seg, _looped_segment_logs(traj, m)):
        assert np.linalg.norm(y - ref) <= LOG_RTOL * np.linalg.norm(ref) + LOG_ATOL


@pytest.mark.parametrize("m", [1, 20])
def test_stacked_certificate_matches_loop_stored_points(dist, m):
    traj = simulate_walk(dist, 4000, seed=35)
    _assert_matches_loop(traj, m)


def test_stacked_certificate_matches_loop_checkpointed(dist):
    # a long walk: every point is stored, and the stacked certificate reads
    # the same points as the per-point loop
    traj = simulate_walk(dist, 100_001, seed=37)
    _assert_matches_loop(traj, 1000)


def test_stacked_certificate_matches_loop_far_prefixes():
    # large atoms at small n: later prefixes lie beyond the Mercator switch,
    # where the loop takes square roots before its series, the first ones do not
    traj = simulate_walk(example_model(3.0, 3.0).distribution(), 40, seed=39)
    offsets = np.linalg.norm(traj.points[1:] - np.eye(2), axis=(1, 2))
    assert offsets.min() < 0.25 <= offsets.max()
    _assert_matches_loop(traj, 1)


@pytest.mark.parametrize("m", [1, 20])
def test_stacked_certificate_of_a_3x3_walk_is_the_loop(m):
    traj = simulate_walk(generator_law_3x3(), 400, seed=41)
    offsets = np.linalg.norm(traj.points[1:] - np.eye(3), axis=(1, 2))
    assert offsets.min() < 0.25 <= offsets.max()
    _assert_matches_loop(traj, m)
    pts = traj.points
    looped = [reference_logm(np.linalg.solve(pts[k - 1], pts[k])) for k in range(1, traj.n + 1)]
    assert np.array_equal(traj.step_logs(), looped)


def test_step_logs_of_a_2x2_walk_are_the_closed_form(dist):
    traj = simulate_walk(dist, 2000, seed=43)
    pts, got = traj.points, traj.step_logs()
    for k in range(1, traj.n + 1):
        assert np.array_equal(got[k - 1], stoch2_log(explicit_solve(pts[k - 1], pts[k])))


@pytest.mark.parametrize("bad", [[[0.2, 0.8], [0.9, 0.1]], [[0.5, 0.5], [0.5, 0.5]]],
                         ids=["s=-0.7", "s=0"])
def test_2x2_stack_without_a_log_raises_the_loop_message(bad):
    # a row with s <= 0 sends the whole stack to the Denman-Beavers and
    # Mercator path, whose reason the error carries as before
    good = _expm(np.array([[[-0.3, 0.3], [0.1, -0.1]], [[-1.0, 1.0], [2.0, -2.0]]]))
    mats = np.concatenate([good, [bad], good])
    assert np.array_equal(stoch2_logs(mats)[1], [True, True, False, True, True])
    with pytest.raises(OutOfDomainError) as looped:
        reference_logm(np.array(bad))
    with pytest.raises(OutOfDomainError) as stacked:
        _logs_or_raise(mats, lambda i: f"row {i}: ")
    assert str(stacked.value) == f"row 3: {looped.value}"


def test_stacked_certificate_out_of_domain_names_k():
    # on a 3x3 law, a large shear followed by a large rotation has a pair of
    # negative eigenvalues: the second prefix has no principal log
    cyc = np.roll(np.eye(3), 1, axis=1)
    rot = AlgebraVector(2.7 * (cyc - cyc.T))
    shear = AlgebraVector([[-3.0, 3.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    traj = simulate_walk(IncrementDistribution(atoms=(rot, shear), weights=(0.5, 0.5)),
                         2, seed=0)
    assert traj.atom_indices.tolist() == [1, 0]
    with pytest.raises(OutOfDomainError) as looped:
        _looped_replacement(traj, 1)
    with pytest.raises(OutOfDomainError, match="prefix log undefined at k=2: ") as stacked:
        replacement_deviation(traj, 1)
    assert str(stacked.value) == str(looped.value)
    with pytest.raises(OutOfDomainError, match="segment 1 displacement"):
        segment_decomposition(traj, 1)


def test_kappa_support_two_state(dist):
    assert kappa_support(dist) == pytest.approx(1.0, abs=1e-12)


def test_kappa_support_matches_the_atom_loop(dist):
    law = generator_law_3x3()
    with_zero = IncrementDistribution(atoms=(*law.atoms, AlgebraVector(np.zeros((3, 3)))),
                                      weights=(0.2,) * 5)
    for d in (dist, law, with_zero):
        got, want = kappa_support(d), reference.kappa_support(d)
        assert type(got) is type(want) and np.float64(got).tobytes() == np.float64(want).tobytes()
    assert kappa_support(dist) == 1.0000000000000013


def test_kappa_support_of_a_point_mass_at_zero_is_zero():
    law = IncrementDistribution.point_mass(AlgebraVector(np.zeros((2, 2))))
    assert kappa_support(law) == 0.0 and type(kappa_support(law)) is float


# ---------------------------------------------------------------------------
# repeated exponential continuity

def test_psi_of_zeros_is_identity():
    zeros = [AlgebraVector(np.zeros((2, 2))) for _ in range(4)]
    np.testing.assert_allclose(psi_m(zeros).entries, np.eye(2), atol=1e-15)


def test_psi_single_segment(rng):
    x = sample_ball(2, 0.4, rng)
    np.testing.assert_allclose(psi_m([x]).entries, exp_matrix(x).entries)


def test_continuity_check_equal_paths(rng):
    xs = [sample_ball(2, 0.5 / 4, rng) for _ in range(4)]
    cert = psi_m_continuity_check(xs, xs, r=0.5, c_emp=2.0)
    assert cert.lhs < 1e-13 and cert.passed


def test_continuity_single_factor_matches_lipschitz(rng):
    # m = 1 reduces to the log-Lipschitz comparison
    x = sample_ball(2, 0.2, rng)
    y = sample_ball(2, 0.2, rng)
    cert = psi_m_continuity_check([x], [y], r=0.2, c_emp=1.3)
    lip = verify_lipschitz(y, -1.0 * x, 1.3)  # |log(exp(y) exp(x)^-1)|-style
    assert cert.lhs == pytest.approx(
        distance_proxy(exp_matrix(x), exp_matrix(y)), abs=1e-14)
    assert cert.passed == lip.passed or cert.passed


def test_continuity_constant_stable_across_m():
    c4 = estimate_continuity_constant(2, r=0.5, m=4, n_pairs=500, seed=7)
    c16 = estimate_continuity_constant(2, r=0.5, m=16, n_pairs=500, seed=7)
    assert 0.5 < c4 / c16 < 2.0, (c4, c16)
    for m, c in ((4, c4), (16, c16)):
        rng = np.random.default_rng(99)
        xs = [sample_ball(2, 0.5 / m, rng) for _ in range(m)]
        ys = [x + sample_ball(2, 0.04 / m, rng) for x in xs]
        ys = [y if y.norm <= 0.5 / m else (0.5 / m / y.norm) * y for y in ys]
        assert psi_m_continuity_check(xs, ys, 0.5, 1.1 * c).passed


@pytest.mark.parametrize("d", [2, 3])
def test_continuity_matches_the_segment_list_formulas(rng, d):
    for m in (1, 4, 16):
        got = estimate_continuity_constant(d, r=0.5, m=m, n_pairs=60, seed=7)
        want = reference.estimate_continuity_constant(d, 0.5, m, 60, 7)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()
        for _ in range(20):
            xs = [sample_ball(d, 0.5 / m, rng) for _ in range(m)]
            ys = [sample_ball(d, 0.5 / m, rng) for _ in range(m)]
            assert reference.cert_bits(psi_m_continuity_check(xs, ys, 0.5, 1.2)) == (
                reference.cert_bits(reference.psi_m_continuity_check(xs, ys, 1.2)))


def test_continuity_norm_precondition(rng):
    big = [sample_ball(2, 1.0, rng, surface=True) for _ in range(2)]
    with pytest.raises(InvalidArgumentError):
        psi_m_continuity_check(big, big, r=0.5, c_emp=1.0)
