"""Output checks for the benchmark, computed with numpy and scipy only.

Nothing here imports liewalk.  Each oracle recomputes a quantity from the
mathematics of the two-state model or from scipy's matrix functions, so a
check fails when the program's output is wrong, not when it changes.

The two-state model has increments A = [[-a, a], [0, 0]] and
B = [[0, 0], [a, -a]] with probability 1/2 each (equal rates a = alpha).
"""

import math

import numpy as np
from scipy.integrate import quad
from scipy.linalg import expm, null_space
from scipy.optimize import brentq

SQRT2M1 = math.sqrt(2.0) - 1.0


# ---------------------------------------------------------------------------
# two-state rate: the Euler-Lagrange minimizer and the constant split

def line_endpoint(c: float, alpha: float = 1.0) -> np.ndarray:
    """exp(u_c) for the constant-split velocity u_c on the finiteness line."""
    u = alpha * np.array([[-c, c], [1.0 - c, -(1.0 - c)]])
    return expm(u)


def split_cost(p: float) -> float:
    """h(p) = p log p + (1 - p) log(1 - p) + log 2: the conjugate at pA + (1-p)B."""
    def xlx(v):
        return 0.0 if v <= 0.0 else v * math.log(v)

    return xlx(p) + xlx(1.0 - p) + math.log(2.0)


def _split(lam: float, alpha: float, t: float) -> float:
    v = lam * alpha * math.exp(-alpha * (1.0 - t))
    return 0.5 * (1.0 + math.tanh(0.5 * v))   # logistic sigma(v), overflow-free


def minimal_cost(m12: float, alpha: float = 1.0) -> float:
    """Least path cost from I to the two-state endpoint with off-diagonal M12.

    A finite-cost path has velocity p(t) A + (1 - p(t)) B and reaches
    M12 = int_0^1 alpha e^{-alpha (1 - t)} p(t) dt.  The cost int h(p) dt is
    convex and the constraint linear, so the minimizer solves
    h'(p) = lambda alpha e^{-alpha (1 - t)}: p is the logistic function of
    the right side.  lambda is found by bracketing the constraint, and both
    the constraint and the cost are integrated by adaptive quadrature.
    """
    s = 1.0 - math.exp(-alpha)
    if not 0.0 < m12 < s:
        raise ValueError(f"M12 = {m12} is not strictly inside (0, 1 - e^-alpha)")

    def reach(lam):
        val, _ = quad(lambda t: alpha * math.exp(-alpha * (1.0 - t)) * _split(lam, alpha, t),
                      0.0, 1.0, epsabs=1e-14, epsrel=1e-12)
        return val - m12

    if abs(reach(0.0)) < 1e-15:
        lam = 0.0
    else:
        step = 1.0 if reach(0.0) < 0 else -1.0
        hi = step
        while reach(hi) * reach(0.0) > 0:
            hi *= 2.0
            if abs(hi) > 1e6:
                raise ValueError("no multiplier reaches the endpoint")
        lam = brentq(reach, *sorted((0.0, hi)), xtol=1e-15, rtol=1e-15)
    cost, _ = quad(lambda t: split_cost(_split(lam, alpha, t)), 0.0, 1.0,
                   epsabs=1e-14, epsrel=1e-12)
    return cost


def endpoint_reachable(g: np.ndarray, alpha: float = 1.0) -> bool:
    """Every walk endpoint has det = e^{-alpha}, because every increment has
    trace -alpha and det exp(X) = e^{tr X}; other endpoints have rate +inf."""
    return abs(float(np.linalg.det(g)) - math.exp(-alpha)) <= 1e-12


def check_rate_ladder(report: dict, g: np.ndarray, alpha: float = 1.0,
                      oracle: float | None = None) -> list[str]:
    """Problems with a `rate` report; an empty list means it passed.

    Reads only `discretized` and `constraint_residuals`.
    """
    disc = {int(m): float(v) for m, v in report["discretized"].items()}
    res = {int(m): float(v) for m, v in report["constraint_residuals"].items()}
    ms = sorted(disc)
    if not endpoint_reachable(g, alpha):
        return [f"m={m}: unreachable endpoint (det {np.linalg.det(g):.6f} != e^-{alpha:g}) "
                f"got rate {disc[m]!r}, expected inf" for m in ms if disc[m] != math.inf]
    problems = []
    m12 = float(g[0, 1])
    low = minimal_cost(m12, alpha) if oracle is None else oracle
    high = split_cost(m12 / (1.0 - math.exp(-alpha)))
    for m in ms:
        if not low - 1e-9 <= disc[m] <= high + 1e-9:
            problems.append(f"m={m}: rate {disc[m]:.12g} outside "
                            f"[minimal cost {low:.12g}, constant split {high:.12g}]")
        if not res[m] <= 1e-9:
            problems.append(f"m={m}: constraint residual {res[m]:.3g} > 1e-9")
    for a, b in zip(ms, ms[1:]):
        if disc[b] > disc[a] + 1e-6:
            problems.append(f"ladder rises from m={a} ({disc[a]:.12g}) to m={b} ({disc[b]:.12g})")
    top = disc[ms[-1]]
    if abs(top - low) > max(0.01 * abs(low), 1e-4):
        problems.append(f"m={ms[-1]}: rate {top:.12g} is not within max(1%, 1e-4) "
                        f"of the minimal cost {low:.12g}")
    return problems


# ---------------------------------------------------------------------------
# zero-row-sum algebra, adjoint norms and the deviation constant

def algebra_frame(d: int) -> np.ndarray:
    """Orthonormal frame (d*d, d*d - d) of the zero-row-sum matrices, row-major."""
    row_sums = np.kron(np.eye(d), np.ones((1, d)))   # vec(M) -> M @ 1
    return null_space(row_sums)


def ad_matrix(x: np.ndarray) -> np.ndarray:
    """Matrix of Y -> XY - YX on the zero-row-sum algebra, in algebra_frame."""
    d = x.shape[0]
    q = algebra_frame(d)
    basis = q.T.reshape(-1, d, d)
    cols = np.array([(x @ b - b @ x).ravel() for b in basis]).T
    return q.T @ cols


def ad_norm(x: np.ndarray) -> float:
    """Operator norm of Y -> XY - YX on the zero-row-sum algebra (Frobenius)."""
    return float(np.linalg.svd(ad_matrix(x), compute_uv=False)[0])


def kappa(atoms) -> float:
    """The largest ||ad_X|| / |X| over the atoms."""
    return max(ad_norm(a) / float(np.linalg.norm(a)) for a in atoms)


def series_constant() -> float:
    """sum_{m>=1} q^{m-1} / (m(m+1)) at q = sqrt(2) - 1, in closed form.

    Splitting 1/(m(m+1)) = 1/m - 1/(m+1) and summing the two log series
    gives 1/q - log(1-q)/q + log(1-q)/q^2.
    """
    q = SQRT2M1
    lg = math.log1p(-q)
    return 1.0 / q - lg / q + lg / (q * q)


def deviation_constant(a: float) -> float:
    """C(a) = (e^a - 1) * series_constant()."""
    return math.expm1(a) * series_constant()


def replacement_bound(atoms, m: int) -> float:
    """C(kappa B / m) B / m with B the largest atom norm and kappa the
    largest ||ad_X|| / |X| over the atoms."""
    b = max(float(np.linalg.norm(a)) for a in atoms)
    return deviation_constant(kappa(atoms) * b / m) * b / m


def two_state_atoms(alpha: float = 1.0) -> list[np.ndarray]:
    return [np.array([[-alpha, alpha], [0.0, 0.0]]),
            np.array([[0.0, 0.0], [alpha, -alpha]])]


def check_walk(results: dict, n: int, m: int, alpha: float = 1.0) -> list[str]:
    """Problems with a `simulate` report for the equal-rate two-state model."""
    problems = []
    g = np.array(results["endpoint"], dtype=float)
    det_err = abs(float(np.linalg.det(g)) - math.exp(-alpha))
    if det_err > 1e-10:
        problems.append(f"det(endpoint) misses e^-{alpha:g} by {det_err:.3g}")
    if np.abs(g.sum(axis=1) - 1.0).max() > 1e-10:
        problems.append(f"endpoint rows sum to {g.sum(axis=1).tolist()}")
    if g.min() < 0.0:
        problems.append(f"endpoint has a negative entry {g.min():.3g}")
    cert = results["deviation_certificate"]
    bound = replacement_bound(two_state_atoms(alpha), m)
    if not cert["max_deviation"] <= bound + 1e-12:
        problems.append(f"max_deviation {cert['max_deviation']:.6g} exceeds the "
                        f"recomputed bound {bound:.6g}")
    if cert["checked_steps"] != n // m:
        problems.append(f"checked {cert['checked_steps']} steps, expected {n // m}")
    return problems


def check_walk_csv(path: str, n: int, alpha: float = 1.0) -> list[str]:
    """Problems with the per-step CSV of `simulate --out-csv`."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    if header != ["k", "proxy_distance", "increment_norm_over_n"]:
        return [f"unexpected CSV header {header}"]
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    problems = []
    if table.shape[0] != n or not np.array_equal(table[:, 0], np.arange(1, n + 1)):
        return [f"CSV has {table.shape[0]} rows, expected k = 1..{n}"]
    proxy, inc = table[:, 1], table[:, 2]
    # every two-state atom has Frobenius norm alpha * sqrt(2)
    expect = alpha * math.sqrt(2.0) / n
    if np.abs(inc - expect).max() > 1e-12 * expect:
        problems.append(f"increment_norm_over_n differs from |X|/n = {expect:.17g}")
    rel = np.abs(proxy - inc).max() / expect
    if rel > 1e-9:
        problems.append(f"proxy_distance differs from increment_norm_over_n by {rel:.3g} relative")
    return problems


# ---------------------------------------------------------------------------
# Monte Carlo rate curves

def check_plain_curve(rows: list[dict]) -> list[str]:
    """Plain estimates on the mean ball: the rate falls towards 0."""
    problems = []
    if not rows[-1]["rate"] < 0.05:
        problems.append(f"n={rows[-1]['n']}: plain rate {rows[-1]['rate']:.4g} >= 0.05")
    for prev, nxt in zip(rows, rows[1:]):
        if not nxt["rate_lo"] <= prev["rate_hi"]:
            problems.append(f"rate rises beyond its interval from n={prev['n']} to n={nxt['n']}")
    return problems


def check_tilted_curve(rows: list[dict], target: float) -> list[str]:
    """Tilted estimates: finite and within [0.5, 1.5] x the minimal cost."""
    problems = []
    for r in rows:
        rate = r["rate"]
        if not math.isfinite(rate):
            why = ""
            if r["p"] == 0.0 and target * r["n"] > 745.0:
                why = (f": the minimal cost puts log p near {-target * r['n']:.0f}, below "
                       f"the float64 floor of -745, so the summed weights exp(logw) underflow")
            problems.append(f"n={r['n']}: tilted p = {r['p']!r}, rate {rate!r}{why}")
        elif not 0.5 * target <= rate <= 1.5 * target:
            problems.append(f"n={r['n']}: tilted rate {rate:.5g} outside "
                            f"[{0.5 * target:.5g}, {1.5 * target:.5g}]")
    return problems


# ---------------------------------------------------------------------------
# exp/log self-test: the injectivity draws and the BCH contraction radius

def suite_frame(d: int) -> np.ndarray:
    """The (d*d - d, d, d) frame in which liewalk draws algebra elements.

    It is the Q of the QR factorization of the spanning set E_ij - E_ii,
    each column's first significant component made positive.  The draws
    below must match the program's bit for bit, so this frame, not
    algebra_frame, turns their coordinates into matrices.
    """
    span = []
    for i in range(d):
        for j in range(d):
            if i != j:
                e = np.zeros((d, d))
                e[i, j], e[i, i] = 1.0, -1.0
                span.append(e.ravel())
    q, _ = np.linalg.qr(np.array(span).T)
    for k in range(q.shape[1]):
        nz = np.nonzero(np.abs(q[:, k]) > 1e-12)[0]
        if nz.size and q[nz[0], k] < 0:
            q[:, k] = -q[:, k]
    return q.T.reshape(-1, d, d)


def injectivity_max_log(d: int, eps: float, radius: float, n_samples: int,
                        seed: int) -> float:
    """Largest |X| over the self-test's injectivity draws with
    ||exp X - I||_F <= eps, or 0 when no draw qualifies.

    The draws come from default_rng(seed): a standard normal direction in
    suite_frame, scaled to a norm uniform on [0, radius].  On that ball
    log exp X = X, so |X| is the log norm the program should report.
    """
    frame = suite_frame(d)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_samples):
        c = rng.standard_normal(frame.shape[0])
        c *= rng.uniform(0.0, radius) / np.linalg.norm(c)
        x = np.tensordot(c, frame, axes=1)
        if np.linalg.norm(expm(x) - np.eye(d)) <= eps:
            worst = max(worst, float(np.linalg.norm(x)))
    return worst


def max_contraction_norm(d: int, radius: float, n_samples: int, seed: int) -> float:
    """max ||e^{ad X} e^{s ad Y} - I|| over s = 1/4, 1/2, 3/4, 1 and the
    self-test's boundary pairs, with scipy's expm and SVD.

    Pair i comes from the child stream spawn_key=(i,) of the seed: X, then
    Y, each a standard normal direction in suite_frame scaled to norm radius.
    """
    frame = suite_frame(d)
    worst = 0.0
    for i in range(n_samples):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(i,)))
        c = rng.standard_normal(frame.shape[0])
        x = np.tensordot(c * (radius / np.linalg.norm(c)), frame, axes=1)
        c = rng.standard_normal(frame.shape[0])
        y = np.tensordot(c * (radius / np.linalg.norm(c)), frame, axes=1)
        wx, ad_y = expm(ad_matrix(x)), ad_matrix(y)
        for s in (0.25, 0.5, 0.75, 1.0):
            w = wx @ expm(s * ad_y) - np.eye(len(ad_y))
            worst = max(worst, float(np.linalg.svd(w, compute_uv=False)[0]))
    return worst


def check_selftest(block: dict, d: int, samples: int, seed: int, radius: float = 0.2,
                   model_kappa: float | None = None) -> list[str]:
    """Problems with one dimension's block of an `exp-log-selftest` report.

    `samples` is the --samples flag: the injectivity check draws that many
    points and the radius check max(20, samples // 5) boundary pairs.
    """
    problems = []
    inj, rad = block["injectivity"], block["bch_radius"]
    if not inj["max_roundtrip_error"] < 1e-10:
        problems.append(f"exp/log round trip error {inj['max_roundtrip_error']:.3g} >= 1e-10")
    want = injectivity_max_log(d, inj["eps"], inj["radius"], samples, seed)
    if abs(inj["max_log_norm"] - want) > 1e-10:
        problems.append(f"max_log_norm {inj['max_log_norm']!r} differs from scipy's {want!r}")
    if not inj["max_log_norm"] <= inj["radius"] or inj["passed"] is not True:
        problems.append(f"injectivity not passed: max_log_norm {inj['max_log_norm']!r}, "
                        f"radius {inj['radius']!r}")
    want = max_contraction_norm(d, radius, max(20, samples // 5), seed)
    got = rad["max_contraction_norm"]
    if abs(got - want) > 1e-9 * want:
        problems.append(f"max_contraction_norm {got!r} differs from scipy's {want!r}")
    if rad["series_converges"] is not (want < 1.0):
        problems.append(f"series_converges {rad['series_converges']} at contraction {want:.6g}")
    if rad["within_proof_constant"] is not (want <= SQRT2M1):
        problems.append(f"within_proof_constant {rad['within_proof_constant']} "
                        f"at contraction {want:.6g}")
    if model_kappa is not None and not abs(block["model_kappa"] - model_kappa) <= 1e-12:
        problems.append(f"model_kappa {block['model_kappa']!r}, expected {model_kappa!r}")
    if block["passed"] is not True:
        problems.append("the block is marked failed")
    return problems
