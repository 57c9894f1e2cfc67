import numpy as np
import pytest

from liewalk import (
    AlgebraVector,
    BallEvent,
    IncrementDistribution,
    InvalidArgumentError,
    auto_tilt,
    empirical_rate_curve,
    estimate_probability,
    exp_matrix,
    legendre,
    tilted_estimator,
    wilson_interval,
)
from liewalk.lie import GroupElement


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
