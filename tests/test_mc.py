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
from liewalk.distributions import _alias_table
from liewalk.mc import _atom_counts, _event_distances
from logm_reference import logm as reference_logm
from products_reference import decode_codes, encode_codes


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
    codes = encode_codes(idx, 3)
    got = _event_distances(law, 2, event, codes)
    step_mats = np.array([_expm(a.entries / 2) for a in law.atoms])
    looped = []
    for m in indexed_products(step_mats, codes, np.eye(3), 2):
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


def searchsorted_indices(law, rng, size):
    """Inverse-CDF sampling by binary search over the cumulative weights."""
    cum = np.cumsum(law.weights)
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


@pytest.mark.parametrize("k", [2, 3])
def test_atom_counts_match_comparisons(k):
    # every k counts through one table of digit counts; a last code of
    # r < B steps has B - r leading zero digits
    rng = np.random.default_rng(12)
    for n in [*range(1, 71), 20_000]:
        idx = rng.integers(0, k, size=(40, n)).astype(np.uint8)
        want = np.stack([(idx == a).sum(axis=1) for a in range(k)], axis=1)
        got = _atom_counts(encode_codes(idx, k).astype(np.uint8), k, n)
        assert got.dtype == want.dtype and np.array_equal(got, want), n


@pytest.mark.parametrize("n", [20, 160])
def test_event_distances_2x2_match_stacked_loop(dist, n):
    # the 2x2 products compose pairwise, within 1e-15 per step of the chain
    event = BallEvent(exp_matrix(line_x(0.8)), 0.03)
    codes = dist.sample_codes(np.random.default_rng(9), 2000, n)
    idx = decode_codes(codes, 2, n)
    got = _event_distances(dist, n, event, codes)
    step_mats = np.array([_expm(a.entries / n) for a in dist.atoms])
    out = np.linalg.inv(event.center.entries)[None].repeat(2000, axis=0)
    for j in range(n):
        out = out @ step_mats[idx[:, j]]
    np.testing.assert_allclose(got, stoch2_log_norms(out), rtol=0, atol=1e-15 * n)


# ---------------------------------------------------------------------------
# block codes: B steps per code, drawn by Walker's alias method

def skewed_law(k):
    atoms = tuple(AlgebraVector([[-a, a], [0.0, 0.0]]) for a in np.linspace(0.1, 1.0, k))
    w = np.arange(1.0, k + 1)
    return IncrementDistribution(atoms=atoms, weights=tuple(w / w.sum()))


def tilted_weights(law):
    tilt = AlgebraVector([[-1.5, 1.5], [0.0, 0.0]])
    w = np.array(law.weights) * np.exp([tilt.inner(a) for a in law.atoms])
    return w / w.sum()


LAWS = {
    "uniform": lambda k: (uniform_law(k), None),
    "skewed": lambda k: (skewed_law(k), None),
    "tilted": lambda k: (uniform_law(k), tilted_weights(uniform_law(k))),
}


def product_law(w, width):
    """Probabilities of the k^width codes of width i.i.d. steps of law w."""
    p = np.ones(1)
    for _ in range(width):
        p = np.outer(p, w).ravel()
    return p


def chi_square_p(counts, probs):
    """Pearson's test of counts against probs, codes with expected counts
    below 5 pooled into one cell."""
    from scipy.stats import chisquare

    expected = probs * counts.sum()
    low = expected < 5
    obs = np.append(counts[~low], counts[low].sum())
    exp = np.append(expected[~low], expected[low].sum())
    keep = exp > 0
    return chisquare(obs[keep], exp[keep] * obs[keep].sum() / exp[keep].sum()).pvalue


@pytest.mark.parametrize("k, width", [(2, 8), (3, 5), (4, 4)])
@pytest.mark.parametrize("case", LAWS)
def test_sample_codes_follow_the_product_law(k, width, case):
    # 7 whole blocks and a last code of 3 steps per sample; fixed seeds
    law, weights = LAWS[case](k)
    n = 7 * width + 3
    codes = law.sample_codes(np.random.default_rng(100 + k), 150_000, n, weights=weights)
    assert codes.shape == (150_000, 8) and codes.dtype == np.uint8
    w = np.array(law.weights if weights is None else weights)
    whole = np.bincount(codes[:, :-1].ravel(), minlength=k ** width)
    last = np.bincount(codes[:, -1], minlength=k ** 3)
    assert len(whole) == k ** width and len(last) == k ** 3
    assert chi_square_p(whole, product_law(w, width)) > 0.001
    assert chi_square_p(last, product_law(w, 3)) > 0.001


def alias_probabilities(cut, outcomes):
    """What an alias table gives each outcome: its own threshold, plus the
    rest of every cell aliased to it, over the number of cells."""
    size = len(cut)
    threshold = cut - np.arange(size)
    assert np.array_equal(outcomes[0::2], np.arange(size))
    return (threshold + np.bincount(outcomes[1::2], weights=1.0 - threshold,
                                    minlength=size)) / size


@pytest.mark.parametrize("w", [
    [0.5, 0.5], [0.3, 0.7], [0.8, 0.2], [1.0 / 3] * 3, [0.2, 0.3, 0.5],
    [0.1, 0.2, 0.3, 0.4], [0.0, 1.0], [0.5, 0.0, 0.5], [0.25, 0.25, 0.0, 0.5],
])
def test_alias_table_reproduces_every_code_probability(w):
    w = np.array(w)
    width = {2: 8, 3: 5, 4: 4}[len(w)]
    for r in range(1, width + 1):
        p = product_law(w, r)
        cut, outcomes = _alias_table(p, np.uint8)
        np.testing.assert_allclose(alias_probabilities(cut, outcomes), p, rtol=0, atol=1e-15)
        # a code of probability 0 has threshold 0, and no cell aliases to it
        zero = np.flatnonzero(p == 0)
        assert np.array_equal(cut[zero], zero)
        assert not np.isin(outcomes[1::2], zero).any()


def test_alias_table_pairs_zero_codes_first():
    # the final step gives threshold 1 to every entry left unpaired; here
    # the probabilities fall 0.35 short of 1, so the entries above 1 run out
    # early, and a zero code paired last would be left with threshold 1
    p = np.array([0.0, 0.05, 0.3, 0.3])
    cut, outcomes = _alias_table(p, np.uint8)
    assert cut[0] == 0.0 and outcomes[1] != 0
    assert not (outcomes[1::2] == 0).any()


def test_sample_codes_tilted_match_one_uniform_per_code(dist):
    # one uniform per code, row-major, from the same stream as one
    # rng.random call whatever the chunking, through the main table and,
    # for the last column of r < B steps, the tail table
    w = tilted_weights(dist)
    for samples, n in [(1000, 13), (7, 70_000), (70_000, 1), (3, 9), (300, 401)]:
        got = dist.sample_codes(np.random.default_rng(4), samples, n, weights=w)
        cols = -(-n // 8)
        u = np.random.default_rng(4).random((samples, cols))
        want = np.empty((samples, cols), dtype=np.int64)
        for cells, width in [(np.s_[:, :-1], 8), (np.s_[:, -1], n - 8 * (cols - 1))]:
            cut, outcomes = _alias_table(product_law(w, width), np.int64)
            x = u[cells] * len(cut)
            i = np.floor(x).astype(np.int64)
            want[cells] = np.where(x < cut[i], i, outcomes[2 * i + 1])
        assert got.dtype == np.uint8
        np.testing.assert_array_equal(got, want, err_msg=f"{samples} x {n}")


@pytest.mark.parametrize("k, width, dtype", [
    (1, 8, np.uint8), (2, 8, np.uint8), (3, 5, np.uint8), (4, 4, np.uint8),
    (5, 3, np.uint8), (16, 2, np.uint8), (17, 1, np.uint8), (300, 1, np.uint16),
])
def test_sample_codes_layout(k, width, dtype):
    # ceil(n / B) codes per sample, uint8 up to 256 atoms; a point mass
    # draws only code 0, and 300 atoms reach every index past 255
    law = uniform_law(k) if k > 1 else IncrementDistribution.point_mass(line_x(0.3))
    for n in (1, width, 2 * width + 1, 1000):
        codes = law.sample_codes(np.random.default_rng(3), 400, n)
        assert codes.dtype == dtype and codes.shape == (400, -(-n // width))
        if k == 1:
            assert not codes.any()
    if k == 300:
        codes = law.sample_codes(np.random.default_rng(3), 100, 1000)
        assert len(np.unique(codes)) == 300 and codes.max() == 299


@pytest.mark.parametrize("weights, atom", [
    ([0.0, 1.0], 1),        # a weight underflowed to zero by a tilt never draws its atom
    ([1.0, 0.0], 0),
    ([0.5, 0.0, 0.5], None),
])
def test_sample_codes_zero_weight_atom_is_never_drawn(weights, atom):
    law = uniform_law(len(weights))
    for n in (5, 13, 160):
        codes = law.sample_codes(np.random.default_rng(4), 2000, n, weights=weights)
        idx = decode_codes(codes, len(weights), n)
        assert not (idx == weights.index(0.0)).any(), n
        if atom is not None:
            assert (idx == atom).all()


@pytest.mark.parametrize("weights", [
    [1.0],                  # too short: would draw only atom 0
    [0.2, 0.3, 0.5],        # too long: would draw index 2, which does not exist
    [3.0, 1.0],             # sums to 4
    [np.nan, 1.0],          # not finite
    [np.inf, 1.0],
    [-0.5, 1.5],            # negative, though summing to 1
])
def test_sample_codes_rejects_bad_weights(dist, weights):
    with pytest.raises(InvalidArgumentError):
        dist.sample_codes(np.random.default_rng(0), 10, 20, weights=weights)


# Rows of two curves (n = 20, 37, 160; 3,000 samples in two shards), pinned
# as the little-endian float64 bytes of (weighted_hits, p, p_lo, p_hi,
# rate, rate_lo, rate_hi, ess): the endpoint kernels must keep every hit
# where it was.
PINNED_ROW_FIELDS = ("weighted_hits", "p", "p_lo", "p_hi", "rate", "rate_lo", "rate_hi", "ess")
PINNED_ROWS = {
    # re-pinned when Monte Carlo drew block codes (one alias draw per 8
    # steps) in place of per-step atom indices: every draw changed; each
    # new row's interval overlaps the previous pin's
    "none": [
        "0000000000c49740d34d62105839e03fa6082cae9d4ddf3fc3c39bbdbbcbe03f"
        "8443e1ca7e63a13f463898d37b80a03f8c7005afe44ea23f0000000000c49740",
        "0000000000dc9e40111111111111e53fe9ec7b8a7584e43fc73ab34f5b9ae53f"
        "cca3c5c9a823873f0a19030c74bf853f7d2ba787ff99883f0000000000dc9e40",
        "000000000052a640add531c18379ee3fda33d0f02d36ee3f80c7894e5fb3ee3f"
        "7df121354301343fe816ed8f7cfa303fa6e808a8388e373f000000000052a640",
    ],
    "auto": [
        "c3e6481b15943f40c3175ccebb8e853f12bc28d30baa833f73738fc96b73873f"
        "eae3220d1925cd3fa20239f42c9bcc3ff63076eab4bbcd3f82412632ebb17a40",
        "5904c238e87605407cc6ca3d614e4d3fa1822d031ac7493f2a05343cd46a503f"
        "47f0b4788a48c83f314803f5dbe3c73f7873178927bac83fa51e916ad16f6e40",
        "d293cc4e1a4b7a3e0420037819f3c13d0528d6170aadb33d002c1be4ad0fca3d"
        "429a1f62ee50c33f035694ab9004c33f02d95fd214ccc33fa5c0b20b5bb13240",
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


# ---------------------------------------------------------------------------
# an exact oracle at small n: all 2^12 step sequences of the equal-rate law

ORACLE_N = 12


@pytest.fixture(scope="module")
def oracle_endpoints(dist):
    """The endpoint of each of the 4,096 sequences of 12 steps, each of
    probability 2^-12 under the equal-rate two-state law, by a sequential
    chain of matmuls."""
    assert dist.weights == (0.5, 0.5)
    steps = np.array([_expm(a.entries / ORACLE_N) for a in dist.atoms])
    seqs = (np.arange(2 ** ORACLE_N)[:, None] >> np.arange(ORACLE_N - 1, -1, -1)) & 1
    ends = np.broadcast_to(np.eye(2), (len(seqs), 2, 2)).copy()
    for j in range(ORACLE_N):
        ends = ends @ steps[seqs[:, j]]
    return ends


def exact_ball_probability(ends, event):
    """The share of sequences whose endpoint lies in the ball, by the
    per-matrix log; no distance lies within 1e-5 of the radius, so the
    kernels' rounding cannot move a sequence across it."""
    center_inv = np.linalg.inv(event.center.entries)
    dists = np.array([np.linalg.norm(reference_logm(center_inv @ g)) for g in ends])
    assert np.abs(dists - event.radius).min() > 1e-5
    return float(np.mean(dists <= event.radius))


@pytest.mark.parametrize("center_x, radius, p_exact", [
    (None, 0.05, 832 / 4096),           # the mean ball
    (line_x(0.8), 0.03, 74 / 4096),     # a rarer ball off the mean
], ids=["mean", "c0.8"])
def test_estimators_cover_the_exact_small_n_probability(dist, oracle_endpoints,
                                                        center_x, radius, p_exact):
    event = BallEvent(exp_matrix(dist.mean if center_x is None else center_x), radius)
    assert exact_ball_probability(oracle_endpoints, event) == p_exact
    # the plain 95% Wilson interval covers it on at least 17 of 20 seeds
    covered = 0
    for seed in range(20):
        est = estimate_probability(dist, ORACLE_N, event, 2000, seed=300 + seed)
        covered += est.lo <= p_exact <= est.hi
    assert covered >= 17, covered
    # the mean of 20 tilted estimates lies within 3 standard errors of it
    tilt = auto_tilt(dist, event) if center_x is not None else legendre(dist, line_x(0.6)).maximizer
    vals = np.array([tilted_estimator(dist, ORACLE_N, event, 2000, tilt, seed=400 + seed).p
                     for seed in range(20)])
    assert abs(vals.mean() - p_exact) <= 3 * vals.std(ddof=1) / np.sqrt(20)
