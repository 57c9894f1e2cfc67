import warnings

import numpy as np
import pytest

from liewalk import (
    AlgebraVector,
    BallEvent,
    IncrementDistribution,
    InvalidArgumentError,
    OutOfDomainError,
    auto_tilt,
    empirical_rate_curve,
    estimate_probability,
    exp_matrix,
    legendre,
    replacement_deviation,
    segment_decomposition,
    simulate_walk,
    tilted_estimator,
    wilson_interval,
)
from liewalk._kernels import indexed_products, stoch2_log_norms
from liewalk.lie import GroupElement, _expm
from liewalk.mc import _atom_counts, _event_distances
from logm_reference import logm as reference_logm


def line_x(c):
    return AlgebraVector([[-c, c], [1 - c, c - 1.0]])


@pytest.fixture(scope="module")
def mean_ball(dist):
    return BallEvent(exp_matrix(dist.mean), 0.1)


def test_event_requires_positive_radius(dist):
    with pytest.raises(InvalidArgumentError):
        BallEvent(exp_matrix(dist.mean), 0.0)


def test_wilson_interval_shape():
    lo, hi = wilson_interval(50, 100)
    assert 0 < lo < 0.5 < hi < 1
    lo0, hi0 = wilson_interval(0, 100)
    assert lo0 == 0.0
    z = 1.6448536269514722
    assert hi0 == pytest.approx(z * z / (100 + z * z))


@pytest.mark.parametrize("hits, n", [(5, 3), (-1, 10)])
def test_wilson_interval_rejects_hits_outside_zero_to_n(hits, n):
    with warnings.catch_warnings():
        warnings.simplefilter("error")      # no sqrt of a negative on the way
        with pytest.raises(InvalidArgumentError, match=r"hits must lie in \[0, n\]"):
            wilson_interval(hits, n)


COUNTS = {
    "simulate_walk-n": lambda dist, ball, v: simulate_walk(dist, v, seed=0),
    "segment_decomposition-m": lambda dist, ball, v: segment_decomposition(
        simulate_walk(dist, 50, seed=0), v),
    "replacement_deviation-m": lambda dist, ball, v: replacement_deviation(
        simulate_walk(dist, 50, seed=0), v),
    "tilted_estimator-n": lambda dist, ball, v: tilted_estimator(dist, v, ball, 10, None, 0),
    "tilted_estimator-samples": lambda dist, ball, v: tilted_estimator(dist, 20, ball, v, None, 0),
    "tilted_estimator-shards": lambda dist, ball, v: tilted_estimator(
        dist, 20, ball, 10, None, 0, shards=v),
    "empirical_rate_curve-ns": lambda dist, ball, v: empirical_rate_curve(dist, ball, [v], 10, 0),
}


@pytest.mark.parametrize("value", [20.7, True, "4", None, 0])
@pytest.mark.parametrize("call", COUNTS.values(), ids=COUNTS.keys())
def test_counts_must_be_positive_integers(dist, mean_ball, call, value):
    # one check for every count: no float truncated, no bool taken for 1
    with pytest.raises(InvalidArgumentError, match="positive integer|must lie in"):
        call(dist, mean_ball, value)


def test_point_mass_walk_hits_its_endpoint():
    x = AlgebraVector([[-0.7, 0.7], [0.1, -0.1]])
    pm = IncrementDistribution.point_mass(x)
    event = BallEvent(exp_matrix(x), 0.1)
    est = estimate_probability(pm, 25, event, 500, seed=1)
    assert est.p == 1.0 and est.lo <= 1.0 <= est.hi + 1e-12


def test_zero_tilt_bit_identical(dist, mean_ball):
    plain = estimate_probability(dist, 30, mean_ball, 4000, seed=7)
    zero = tilted_estimator(dist, 30, mean_ball, 4000,
                            AlgebraVector(np.zeros((2, 2))), seed=7)
    assert plain.p == zero.p
    assert plain.lo == zero.lo and plain.hi == zero.hi
    assert not zero.tilted


def test_seed_determinism(dist, mean_ball):
    a = estimate_probability(dist, 40, mean_ball, 3000, seed=11)
    b = estimate_probability(dist, 40, mean_ball, 3000, seed=11)
    assert (a.p, a.lo, a.hi, a.weighted_hits) == (b.p, b.lo, b.hi, b.weighted_hits)
    c = estimate_probability(dist, 40, mean_ball, 3000, seed=12)
    assert a.p != c.p


def test_widening_ball_never_loses_mass(dist):
    center = exp_matrix(dist.mean)
    for seed in range(5):
        small = estimate_probability(dist, 30, BallEvent(center, 0.05), 2000, seed=seed)
        big = estimate_probability(dist, 30, BallEvent(center, 0.10), 2000, seed=seed)
        assert big.p >= small.p


def test_out_of_domain_points_are_non_members(dist):
    # a ball centered far from the walk's reach counts zero members
    far = GroupElement([[6.0, -5.0], [-5.0, 6.0]])
    est = estimate_probability(dist, 20, BallEvent(far, 0.01), 500, seed=3)
    assert est.p == 0.0 and est.hi > 0.0


def test_samples_positive_required(dist, mean_ball):
    with pytest.raises(InvalidArgumentError):
        estimate_probability(dist, 10, mean_ball, 0, seed=1)


def test_shard_merge_deterministic(dist, mean_ball):
    one = estimate_probability(dist, 25, mean_ball, 3000, seed=5, shards=3)
    two = estimate_probability(dist, 25, mean_ball, 3000, seed=5, shards=3)
    assert one.p == two.p and one.lo == two.lo


def test_tilted_unbiasedness(dist):
    # plain and tilted target the same probability: across seeds their means
    # differ by less than three combined standard errors
    event = BallEvent(exp_matrix(dist.mean), 0.3)
    tilt = legendre(dist, line_x(0.65)).maximizer
    plain_vals, tilt_vals = [], []
    for seed in range(50):
        plain_vals.append(estimate_probability(dist, 15, event, 1500, seed=seed).p)
        tilt_vals.append(
            tilted_estimator(dist, 15, event, 1500, tilt, seed=1000 + seed).p)
    plain_vals, tilt_vals = np.array(plain_vals), np.array(tilt_vals)
    se = np.sqrt(plain_vals.var() / 50 + tilt_vals.var() / 50)
    assert abs(plain_vals.mean() - tilt_vals.mean()) < 3 * se


def test_tilting_boosts_rare_hits(dist):
    # near-vertex target: plain MC at n = 50 sees (almost) nothing, the
    # tilted sampler hits constantly and still resolves the probability
    x = line_x(0.999)
    center = exp_matrix(AlgebraVector(x.entries))
    event = BallEvent(center, 0.05)
    tilt = legendre(dist, line_x(0.98)).maximizer
    plain = estimate_probability(dist, 50, event, 5000, seed=21)
    tilted = tilted_estimator(dist, 50, event, 5000, tilt, seed=21)
    assert plain.weighted_hits == 0.0
    # the zero-hit upper bound still certifies a substantial empirical rate
    assert -np.log(plain.hi) / 50 >= 0.1
    assert tilted.ess > 10 and 0.0 < tilted.p < plain.hi
    # at small n both resolve and the intervals overlap
    plain15 = estimate_probability(dist, 15, event, 40000, seed=22)
    tilted15 = tilted_estimator(dist, 15, event, 40000, tilt, seed=23)
    assert max(plain15.lo, tilted15.lo) <= min(plain15.hi, tilted15.hi)


def test_degenerate_tilt_flagged(dist, mean_ball):
    wild = AlgebraVector([[-40.0, 40.0], [0.0, 0.0]])
    est = tilted_estimator(dist, 40, mean_ball, 200, wild, seed=2)
    assert est.degenerate


def test_auto_tilt_at_reachable_center(dist):
    center = exp_matrix(line_x(0.8))
    tilt = auto_tilt(dist, BallEvent(center, 0.05))
    assert tilt is not None
    # tilted one-step law drifts the mean toward the target mixture
    scores = np.array([tilt.inner(a) for a in dist.atoms])
    q = np.array(dist.weights) * np.exp(scores)
    q /= q.sum()
    assert q[0] == pytest.approx(0.8, abs=1e-6)


def test_auto_tilt_unreachable_center_is_none(dist):
    center = GroupElement([[0.7, 0.3], [0.2, 0.8]])  # off the reachable set
    assert auto_tilt(dist, BallEvent(center, 0.05)) is None


def test_rate_curve_monotone_trend(dist):
    event = BallEvent(exp_matrix(dist.mean), 0.1)
    curve = empirical_rate_curve(dist, event, [10, 20, 40], 4000, seed=31)
    rates = [r.rate for r in curve.rows]
    los = [r.rate_lo for r in curve.rows]
    his = [r.rate_hi for r in curve.rows]
    # non-increasing up to interval overlap
    for i in range(len(rates) - 1):
        assert los[i + 1] <= his[i]
    assert curve.metadata["disclaimer"]
    assert curve.metadata["tilt_policy"] == "none"


def test_rate_curve_requires_increasing_ns(dist, mean_ball):
    with pytest.raises(InvalidArgumentError):
        empirical_rate_curve(dist, mean_ball, [20, 20], 100, seed=1)


def test_rate_curve_auto_tilt_near_atypical(dist):
    center = exp_matrix(line_x(0.8))
    event = BallEvent(center, 0.05)
    curve = empirical_rate_curve(dist, event, [40, 80], 20000, seed=37,
                                 tilt_policy="auto")
    assert curve.metadata["tilt_policy"] == "auto"
    assert curve.metadata["tilt_matrix"] is not None
    for row in curve.rows:
        assert np.isfinite(row.rate)
        assert row.ess > 100


def test_generic_dimension_path():
    # three-state model goes through the generic (non 2x2) distance code
    a = AlgebraVector([[-1.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    b = AlgebraVector([[0.0, 0.0, 0.0], [0.5, -1.0, 0.5], [0.0, 0.0, 0.0]])
    c = AlgebraVector([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 1.0, -1.0]])
    d3 = IncrementDistribution(atoms=(a, b, c), weights=(0.4, 0.3, 0.3))
    center = exp_matrix(d3.mean)
    est = estimate_probability(d3, 15, BallEvent(center, 0.25), 400, seed=41)
    assert 0.0 < est.p <= 1.0


def test_event_distances_3x3_match_logm_loop():
    # endpoints near the center, far from it, and two without a principal
    # log (a large rotation and a large shear, in either order)
    cyc = np.roll(np.eye(3), 1, axis=1)
    rot = AlgebraVector(2.7 * (cyc - cyc.T))
    shear = AlgebraVector([[-3.0, 3.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    small = AlgebraVector([[0.0, 0.0, 0.0], [0.0, -0.02, 0.02], [0.0, 0.0, 0.0]])
    law = IncrementDistribution(atoms=(rot, shear, small), weights=(0.3, 0.3, 0.4))
    event = BallEvent(GroupElement(np.eye(3)), 0.5)
    idx = np.array([[2, 2], [0, 0], [0, 1], [1, 0], [1, 1], [2, 0]], dtype=np.uint8)
    got = _event_distances(law, 2, event, idx)
    step_mats = np.array([_expm(a.entries / 2) for a in law.atoms])
    looped = []
    for m in indexed_products(step_mats, idx, np.eye(3)):
        try:
            looped.append(np.linalg.norm(reference_logm(m)))
        except OutOfDomainError:
            looped.append(np.inf)
    np.testing.assert_array_equal(got, looped)
    assert np.isinf(got).any() and np.isfinite(got).any()


def test_sample_indices_cover_many_atoms():
    # 300 atoms need 16-bit indices; 8-bit ones would alias atoms 256-299
    atoms = tuple(AlgebraVector([[-a, a], [0.0, 0.0]]) for a in np.linspace(0.1, 1.0, 300))
    law = IncrementDistribution(atoms=atoms, weights=(1.0 / 300,) * 300)
    idx = law.sample_indices(np.random.default_rng(3), 100_000)
    assert len(np.unique(idx)) == 300 and idx.max() == 299


def test_sample_indices_two_atoms_stay_8_bit(dist):
    assert dist.sample_indices(np.random.default_rng(3), 10).dtype == np.uint8


def test_tilted_estimate_below_float_floor(dist):
    # at n = 5000 the minimal cost puts log p near -904, below the float64
    # floor of about -745: p underflows to 0, while log p and the rate stay
    # finite and inside criterion 7's window
    c = 0.8
    center = exp_matrix(line_x(c))
    r_star = c * np.log(c) + (1 - c) * np.log(1 - c) + np.log(2.0)
    curve = empirical_rate_curve(dist, BallEvent(center, 0.03), [5000], 200,
                                 seed=2026, tilt_policy="auto")
    row = curve.rows[0]
    assert row.p == 0.0
    assert 0.5 * r_star <= row.rate <= 1.5 * r_star
    assert row.rate_lo <= row.rate <= row.rate_hi
    # ESS from log weights: at least one effective hit whenever any hit
    assert 1.0 <= row.ess <= row.samples


def searchsorted_indices(law, rng, size, weights=None):
    """Inverse-CDF sampling by binary search over the cumulative weights."""
    w = np.asarray(law.weights if weights is None else weights, dtype=np.float64)
    cum = np.cumsum(w)
    cum[-1] = 1.0
    idx = np.searchsorted(cum, rng.random(size), side="right")
    return idx.astype(np.min_scalar_type(law.n_atoms - 1))


def uniform_law(k):
    atoms = tuple(AlgebraVector([[-a, a], [0.0, 0.0]]) for a in np.linspace(0.1, 1.0, k))
    return IncrementDistribution(atoms=atoms, weights=(1.0 / k,) * k)


@pytest.mark.parametrize("k", [2, 3, 300])
@pytest.mark.parametrize("size", [1, 1000, 65_537, (3, 65_537), (400, 160)])
def test_sample_indices_match_searchsorted(k, size):
    law = uniform_law(k)
    got = law.sample_indices(np.random.default_rng(11), size)
    want = searchsorted_indices(law, np.random.default_rng(11), size)
    assert got.dtype == want.dtype and got.shape == want.shape
    np.testing.assert_array_equal(got, want)


def test_sample_indices_tilted_match_searchsorted(dist):
    tilt = AlgebraVector([[-0.3, 0.3], [1.2, -1.2]])
    scores = np.array([tilt.inner(a) for a in dist.atoms])
    w = np.array(dist.weights) * np.exp(scores)
    w /= w.sum()
    got = dist.sample_indices(np.random.default_rng(4), (300, 401), weights=w)
    want = searchsorted_indices(dist, np.random.default_rng(4), (300, 401), weights=w)
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("weights, atom", [
    ([0.0, 1.0], 1),        # a weight underflowed to zero by a tilt never draws its atom
    ([1.0, 0.0], 0),        # the cumulative weight reaches 1 at atom 0, and u < 1
])
def test_sample_indices_zero_weight_atom_is_never_drawn(dist, weights, atom):
    got = dist.sample_indices(np.random.default_rng(4), 1000, weights=weights)
    assert (got == atom).all()


@pytest.mark.parametrize("k", [2, 3])
def test_atom_counts_match_comparisons(k):
    # two atoms count by popcount over packed rows, whose last byte is
    # zero-padded whenever n mod 8 != 0
    rng = np.random.default_rng(12)
    for n in [*range(1, 71), 20_000]:
        idx = rng.integers(0, k, size=(40, n)).astype(np.uint8)
        want = np.stack([(idx == a).sum(axis=1) for a in range(k)], axis=1)
        got = _atom_counts(idx, k)
        assert got.dtype == want.dtype and np.array_equal(got, want), n


@pytest.mark.parametrize("weights", [
    [1.0],                  # too short: would draw only atom 0
    [0.2, 0.3, 0.5],        # too long: would draw index 2, which does not exist
    [3.0, 1.0],             # sums to 4
    [np.nan, 1.0],          # not finite
    [np.inf, 1.0],
    [-0.5, 1.5],            # negative, though summing to 1
])
def test_sample_indices_rejects_bad_weights(dist, weights):
    with pytest.raises(InvalidArgumentError):
        dist.sample_indices(np.random.default_rng(0), 10, weights=weights)


@pytest.mark.parametrize("n", [20, 160])
def test_event_distances_2x2_match_stacked_loop(dist, n):
    # the 2x2 products compose pairwise, within 1e-15 per step of the chain
    event = BallEvent(exp_matrix(line_x(0.8)), 0.03)
    idx = dist.sample_indices(np.random.default_rng(9), (2000, n))
    got = _event_distances(dist, n, event, idx)
    step_mats = np.array([_expm(a.entries / n) for a in dist.atoms])
    out = np.linalg.inv(event.center.entries)[None].repeat(2000, axis=0)
    for j in range(n):
        out = out @ step_mats[idx[:, j]]
    np.testing.assert_allclose(got, stoch2_log_norms(out), rtol=0, atol=1e-15 * n)


# Rows of two curves (n = 20, 37, 160; 3,000 samples in two shards), pinned
# as the little-endian float64 bytes of (weighted_hits, p, p_lo, p_hi,
# rate, rate_lo, rate_hi, ess): the endpoint kernels must keep every hit
# where it was.
PINNED_ROW_FIELDS = ("weighted_hits", "p", "p_lo", "p_hi", "rate", "rate_lo", "rate_hi", "ess")
PINNED_ROWS = {
    "none": [
        "0000000000649740560e2db29defdf3f09e4f6f7aecade3f1ddf58934b8ae03f"
        "fc1ac8ccbacba13f9675648ffde4a03f2ce206f7dabaa23f0000000000649740",
        "0000000000fc9d40df96b53a2678e43fb85fc83908eae33fbe07e2135703e53f"
        "abf37e083fbb883f5d2a3558c547873fe8b9e7b8da408a3f0000000000fc9d40",
        "000000000034a6408479a2fe8d50ee3f509c8dab430aee3fb2f471e0788dee3f"
        "945db8243e29363f4af5b8db5cf5323f65e2693b4ee3393f000000000034a640",
    ],
    "auto": [
        "7dc65bce616f4040a4b7809d7a70863f8bfddbc1ec6a843fbb7125790876883f"
        "16109bc069e3cc3fb583274c1356cc3f73af90bb1a7ecd3f231b7ef3358c7940",
        "4ca6dc1297f406409394e51f81574f3fd3f98fa766104b3faa971dcc4dcf513f"
        "038de625110dc83f01100848c29bc73f1093c053078fc83f422c3b5e601e6840",
        "9ae7c97144d2743ebba8e879976dbc3ddf14738fd795af3d7de30b962188c43d"
        "fb4e3dfeb780c33f1e57f6b26735c33f868e13591bf9c33fdd9049d8e6513340",
    ],
}


@pytest.mark.parametrize("policy, center_x, radius, seed", [
    ("none", None, 0.1, 57),
    ("auto", line_x(0.8), 0.05, 59),
])
def test_rate_curve_rows_pinned(dist, policy, center_x, radius, seed):
    event = BallEvent(exp_matrix(dist.mean if center_x is None else center_x), radius)
    curve = empirical_rate_curve(dist, event, [20, 37, 160], 3000, seed=seed,
                                 tilt_policy=policy, shards=2)
    assert [(r.n, r.samples, r.degenerate) for r in curve.rows] == [
        (20, 3000, False), (37, 3000, False), (160, 3000, False)]
    got = [np.array([getattr(r, f) for f in PINNED_ROW_FIELDS], dtype="<f8").tobytes().hex()
           for r in curve.rows]
    assert got == PINNED_ROWS[policy]
