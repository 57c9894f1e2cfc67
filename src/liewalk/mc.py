"""Monte Carlo estimation of rare-event probabilities for the rescaled walk.

Plain frequency estimates carry Wilson intervals (one-sided upper bound at
zero hits); importance-sampled estimates tilt the atom weights by
e^{<lambda, X> - Lambda(lambda)} and unweight trajectories by
e^{-sum <lambda, X_j> + n Lambda(lambda)}, reporting the effective sample
size.  Tilted weights are summed in log space, so log p stays exact where p
itself underflows (below about e^-745).  Shards merge by summing counts and
log-summing weights in shard order, so results are deterministic functions
of (arguments, seed, shard count).

Empirical rate curves n -> -(1/n) log p are finite-n surrogates for an
asymptotic statement; every curve carries that disclaimer in its metadata.
"""

from dataclasses import dataclass, field

import numpy as np

from ._kernels import indexed_products, stoch2_log_norms
from .distributions import IncrementDistribution
from .errors import InvalidArgumentError, OutOfDomainError
from .legendre import legendre, log_mgf
from .lie import (
    AlgebraVector,
    GroupElement,
    _expm,
    _frobenius_norms,
    _logm_stack,
    log_matrix,
)

Z_TWO_SIDED = 1.959963984540054     # 95% two-sided
Z_ONE_SIDED = 1.6448536269514722    # 95% one-sided (zero-hit upper bound)

FINITE_N_DISCLAIMER = (
    "finite-n surrogate: the LDP is asymptotic; empirical rates at desk-scale n "
    "carry O(log(samples)/n) bias and sampling noise")


@dataclass(frozen=True, eq=False)
class BallEvent:
    """Ball {sigma : |log(center^-1 sigma)| <= radius} in the distance proxy.

    Points whose relative displacement has no principal log count as
    non-members.
    """

    center: GroupElement
    radius: float

    def __post_init__(self):
        if not self.radius > 0:
            raise InvalidArgumentError("ball radius must be positive")


def wilson_interval(hits: int, n: int):
    """95% Wilson score interval; zero hits give the one-sided upper bound."""
    if n <= 0:
        raise InvalidArgumentError("sample count must be positive")
    z = Z_ONE_SIDED if hits == 0 else Z_TWO_SIDED
    phat = hits / n
    denom = 1.0 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = z * np.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n)) / denom
    lo = 0.0 if hits == 0 else max(0.0, center - half)
    hi = min(1.0, center + half)
    return float(lo), float(hi)


@dataclass(frozen=True)
class EstimateResult:
    p: float
    lo: float
    hi: float
    samples: int
    weighted_hits: float
    ess: float          # effective count of weighted hits backing the estimate
    tilted: bool
    degenerate: bool    # tilted with ESS < 10: too few effective hits
    log_p: float        # log of p, lo and hi; finite where p, lo, hi underflow
    log_lo: float
    log_hi: float


def _log(x: float) -> float:
    return float(np.log(x)) if x > 0.0 else float("-inf")


def _event_distances(dist, n, event, idx):
    """Distance-proxy values from the ball center to each sample endpoint."""
    step_mats = _expm(dist.atom_stack() / n)
    center_inv = np.linalg.inv(event.center.entries)
    end = indexed_products(step_mats, idx, center_inv)
    if dist.dim == 2:
        return stoch2_log_norms(end)
    logs, ok, _ = _logm_stack(end)
    return np.where(ok, _frobenius_norms(logs), np.inf)


def _atom_counts(idx: np.ndarray, k: int) -> np.ndarray:
    """How often each of k atoms occurs in each row of idx, as (samples, k) int64.

    For two atoms the count of atom 1 is a popcount of the packed rows,
    whose zero padding counts nothing, and atom 0 has the rest.
    """
    if k == 2:
        ones = np.bitwise_count(np.packbits(idx, axis=1)).sum(axis=1, dtype=np.int64)
        return np.stack([idx.shape[1] - ones, ones], axis=1)
    return np.stack([(idx == a).sum(axis=1) for a in range(k)], axis=1)


def tilted_estimator(dist: IncrementDistribution, n: int, event: BallEvent,
                     samples: int, tilt: AlgebraVector | None, seed: int,
                     shards: int = 1) -> EstimateResult:
    """Importance-sampling estimate of P(sigma_n^n in event) under the tilt.

    tilt=None (or the zero matrix) is the plain estimator: weights are
    identically one and the interval is the Wilson score interval.
    """
    if samples < 1:
        raise InvalidArgumentError("samples must be >= 1")
    if n < 1:
        raise InvalidArgumentError("n must be >= 1")
    if shards < 1 or shards > samples:
        raise InvalidArgumentError("shards must lie in [1, samples]")
    if tilt is not None and tilt.norm == 0.0:
        tilt = None

    weights = None
    scores = None
    lam_mgf = 0.0
    if tilt is not None:
        from scipy.special import logsumexp

        scores = np.array([tilt.inner(a) for a in dist.atoms])
        lam_mgf = log_mgf(dist, tilt)
        weights = np.array(dist.weights) * np.exp(scores - lam_mgf)
        weights /= weights.sum()

    per_shard = [samples // shards] * shards
    for i in range(samples % shards):
        per_shard[i] += 1
    children = np.random.SeedSequence(seed).spawn(shards)

    hit_count = 0
    log_wsum = -np.inf      # log of the summed hit weights
    log_wsq = -np.inf       # log of the summed squared hit weights
    for shard_seed, count in zip(children, per_shard):
        rng = np.random.default_rng(shard_seed)
        idx = dist.sample_indices(rng, (count, n), weights=weights)
        dists = _event_distances(dist, n, event, idx)
        hits = dists <= event.radius
        hit_count += int(hits.sum())
        if tilt is not None:
            counts = _atom_counts(idx, dist.n_atoms)
            logw = (-(counts @ scores) + n * lam_mgf)[hits]
            log_wsum = np.logaddexp(log_wsum, logsumexp(logw))
            log_wsq = np.logaddexp(log_wsq, logsumexp(2.0 * logw))

    if tilt is None:
        p = hit_count / samples
        lo, hi = wilson_interval(hit_count, samples)
        return EstimateResult(p=float(p), lo=lo, hi=hi, samples=samples,
                              weighted_hits=float(hit_count), ess=float(hit_count),
                              tilted=False, degenerate=False,
                              log_p=_log(p), log_lo=_log(lo), log_hi=_log(hi))

    log_p = float(log_wsum - np.log(samples))
    if hit_count == 0:
        ess = 0.0
        log_lo = log_hi = float("-inf")
    else:
        # the variance of the weights relative to p^2 is samples / ESS - 1,
        # so the half-width relative to p needs no weight outside log space
        ess = float(np.exp(2.0 * log_wsum - log_wsq))
        rel_half = Z_TWO_SIDED * np.sqrt(max(1.0 / ess - 1.0 / samples, 0.0))
        log_lo = log_p + np.log1p(-rel_half) if rel_half < 1.0 else float("-inf")
        log_hi = log_p + np.log1p(rel_half)
    return EstimateResult(p=float(np.exp(log_p)), lo=float(np.exp(log_lo)),
                          hi=float(np.exp(log_hi)), samples=samples,
                          weighted_hits=float(np.exp(log_wsum)), ess=ess,
                          tilted=True, degenerate=bool(ess < 10.0),
                          log_p=log_p, log_lo=float(log_lo), log_hi=float(log_hi))


def estimate_probability(dist: IncrementDistribution, n: int, event: BallEvent,
                         samples: int, seed: int, shards: int = 1) -> EstimateResult:
    """Plain frequency estimate with a 95% Wilson interval."""
    return tilted_estimator(dist, n, event, samples, None, seed, shards=shards)


# ---------------------------------------------------------------------------
# empirical rate curves

@dataclass(frozen=True)
class RateCurveRow:
    n: int
    samples: int
    weighted_hits: float
    p: float
    p_lo: float
    p_hi: float
    rate: float         # -(1/n) log p
    rate_lo: float      # from p_hi
    rate_hi: float      # from p_lo (inf when the interval touches zero)
    ess: float
    degenerate: bool


@dataclass
class RateCurve:
    rows: list[RateCurveRow]
    metadata: dict = field(default_factory=dict)


def auto_tilt(dist: IncrementDistribution, event: BallEvent) -> AlgebraVector | None:
    """Legendre maximizer at the center's logarithmic displacement, when finite."""
    try:
        x = log_matrix(event.center)
    except OutOfDomainError:
        return None
    res = legendre(dist, x)
    if res.is_finite and res.maximizer is not None:
        return res.maximizer
    return None


def empirical_rate_curve(dist: IncrementDistribution, event: BallEvent, ns,
                         samples: int, seed: int, tilt_policy="none",
                         shards: int = 1) -> RateCurve:
    """Per-n estimates of -(1/n) log P(sigma_n^n in event).

    tilt_policy: "none", "auto" (maximizer at the ball center when finite),
    or an explicit AlgebraVector.  Each n uses the child stream
    SeedSequence([seed, n]), so curves are deterministic and extendable.
    """
    ns = [int(n) for n in ns]
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise InvalidArgumentError("ns must be strictly increasing")
    if tilt_policy == "none":
        tilt = None
    elif tilt_policy == "auto":
        tilt = auto_tilt(dist, event)
    elif isinstance(tilt_policy, AlgebraVector):
        tilt = tilt_policy
    else:
        raise InvalidArgumentError(f"unknown tilt policy {tilt_policy!r}")

    rows = []
    for n in ns:
        child = int(np.random.SeedSequence([seed, n]).generate_state(1)[0])
        est = tilted_estimator(dist, n, event, samples, tilt, child, shards=shards)
        rows.append(RateCurveRow(
            n=n, samples=samples, weighted_hits=est.weighted_hits, p=est.p,
            p_lo=est.lo, p_hi=est.hi, rate=-est.log_p / n,
            rate_lo=-est.log_hi / n, rate_hi=-est.log_lo / n,
            ess=est.ess, degenerate=est.degenerate))
    meta = {
        "disclaimer": FINITE_N_DISCLAIMER,
        "tilt_policy": "none" if tilt is None else (
            "auto" if tilt_policy == "auto" else "explicit"),
        "tilt_matrix": None if tilt is None else tilt.entries.tolist(),
        "seed": seed,
        "shards": shards,
    }
    return RateCurve(rows=rows, metadata=meta)
