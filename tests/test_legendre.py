import numpy as np
import pytest
from scipy.optimize import minimize

from liewalk import (
    AlgebraVector,
    IncrementDistribution,
    domain_check,
    legendre,
    legendre_closed_form_s2,
    log_mgf,
    minimal_face,
)
from liewalk.bch import sample_ball
from liewalk.legendre import _dual_newton, _dual_newton_stack, _support_geometry


def line_point(x1, alpha=1.0, beta=1.0):
    """Point on the finiteness line beta x1 + alpha x2 = alpha beta."""
    x2 = beta * (1.0 - x1 / alpha)
    return AlgebraVector([[-x1, x1], [x2, -x2]])


def entropy_program_oracle(dist, x):
    """Primal relative-entropy minimum: min sum nu_i log(nu_i / w_i) subject to
    sum nu_i X_i = x, nu in the simplex.  Independent of the dual optimizer.

    The moment constraints are expressed in a full-rank coordinate frame of
    the centered support (a rank-deficient constraint Jacobian upsets SLSQP).
    """
    k = dist.n_atoms
    stack = dist.atom_stack().reshape(k, -1)
    center = stack.mean(axis=0)
    _, s, vt = np.linalg.svd(stack - center, full_matrices=False)
    frame = vt[s > 1e-12 * max(1.0, s[0])]
    coords_a = (stack - center) @ frame.T
    target = frame @ (x.entries.ravel() - center)
    w = np.array(dist.weights)

    def objective(nu):
        nu = np.maximum(nu, 1e-300)
        return float(np.sum(nu * np.log(nu / w)))

    cons = [{"type": "eq", "fun": lambda nu: nu.sum() - 1.0},
            {"type": "eq", "fun": lambda nu: coords_a.T @ nu - target}]
    res = minimize(objective, w.copy(), method="SLSQP", bounds=[(0, 1)] * k,
                   constraints=cons, options={"maxiter": 500, "ftol": 1e-14})
    assert res.success, res.message
    return float(res.fun)


# ---------------------------------------------------------------------------
# log moment generating function

def test_mgf_at_zero(dist):
    z = AlgebraVector(np.zeros((2, 2)))
    assert abs(log_mgf(dist, z)) < 1e-14


def test_mgf_closed_form(dist):
    for l1, l2 in ((0.3, -0.4), (1.5, 0.2), (-2.0, -1.0)):
        lam = AlgebraVector([[-l1, l1], [l2, -l2]])
        expected = np.log(0.5 * np.exp(2 * l1) + 0.5 * np.exp(2 * l2))
        assert log_mgf(dist, lam) == pytest.approx(expected, abs=1e-13)


def test_mgf_midpoint_convexity(dist, rng):
    for _ in range(50):
        a = sample_ball(2, 3.0, rng)
        b = sample_ball(2, 3.0, rng)
        mid = log_mgf(dist, 0.5 * (a + b))
        assert mid <= 0.5 * log_mgf(dist, a) + 0.5 * log_mgf(dist, b) + 1e-12


def test_mgf_overflow_safe(dist):
    lam = AlgebraVector([[-500.0, 500.0], [0.0, 0.0]])
    val = log_mgf(dist, lam)
    assert np.isfinite(val) and val == pytest.approx(1000 + np.log(0.5), abs=1e-9)


# ---------------------------------------------------------------------------
# domain classification

def test_domain_atom_is_boundary(dist, model):
    assert domain_check(dist, model.atom_a) == "boundary"
    assert domain_check(dist, model.atom_b) == "boundary"


def test_domain_mean_is_inside(dist, model):
    assert domain_check(dist, model.mean_increment) == "inside"


def test_domain_off_line_outside(dist):
    x = AlgebraVector([[-0.3, 0.3], [0.9, -0.9]])  # 0.3 + 0.9 != 1
    assert domain_check(dist, x) == "outside"


def test_domain_single_atom():
    a = AlgebraVector([[-1.0, 1.0], [0.0, 0.0]])
    pm = IncrementDistribution.point_mass(a)
    assert domain_check(pm, a) == "inside"
    assert domain_check(pm, 0.5 * a) == "outside"


def test_minimal_face_vertices(dist, model):
    assert minimal_face(dist, model.atom_a) == (0,)
    assert minimal_face(dist, model.atom_b) == (1,)
    assert minimal_face(dist, model.mean_increment) == (0, 1)


# ---------------------------------------------------------------------------
# conjugate values

def test_conjugate_at_mean_is_zero(dist, model):
    res = legendre(dist, model.mean_increment)
    assert abs(res.value) < 1e-12
    assert res.maximizer.norm < 1e-6
    assert res.grad_norm < 1e-10


def test_conjugate_at_vertices(dist, model):
    for atom in (model.atom_a, model.atom_b):
        res = legendre(dist, atom)
        assert res.value == pytest.approx(np.log(2.0), abs=1e-12)
        assert res.classification == "boundary"
        assert res.maximizer is None


def test_conjugate_off_constraint_infinite(dist, rng):
    flagged = 0
    for _ in range(100):
        x1, x2 = rng.uniform(0, 1, size=2)
        if abs(x1 + x2 - 1.0) < 1e-3:
            continue
        res = legendre(dist, AlgebraVector([[-x1, x1], [x2, -x2]]))
        assert not res.is_finite
        flagged += 1
    assert flagged > 50


def test_conjugate_matches_closed_form_on_interior(dist):
    for x1 in np.linspace(0.02, 0.98, 25):
        res = legendre(dist, line_point(x1))
        closed = legendre_closed_form_s2(x1, 1 - x1, 1.0, 1.0)
        assert res.value == pytest.approx(closed, abs=1e-7)


def test_conjugate_matches_entropy_oracle(dist):
    for x1 in (0.2, 0.5, 0.85):
        res = legendre(dist, line_point(x1))
        assert res.value == pytest.approx(entropy_program_oracle(dist, line_point(x1)),
                                          abs=1e-6)


def test_maximizer_closed_form(dist):
    # the textbook stationary point is lambda_1 = log(beta x1) / (2 alpha) and
    # lambda_2 = log(alpha x2) / (2 beta); the dual objective is flat along
    # the direction with <mu, A> = <mu, B>, and the optimizer returns the
    # representative inside the support span, so compare the gauge-invariant
    # difference and check the textbook pair attains the same value
    from liewalk import log_mgf

    for x1 in (0.3, 0.6, 0.9):
        x = line_point(x1)
        res = legendre(dist, x)
        lam = res.maximizer.entries
        assert lam[0, 1] - lam[1, 0] == pytest.approx(
            np.log(x1) / 2 - np.log(1 - x1) / 2, abs=1e-8)
        paper = AlgebraVector([[-np.log(x1) / 2, np.log(x1) / 2],
                               [np.log(1 - x1) / 2, -np.log(1 - x1) / 2]])
        paper_val = paper.inner(x) - log_mgf(dist, paper)
        assert paper_val == pytest.approx(res.value, abs=1e-10)


def test_stationarity_system(dist):
    # gradient of the mgf at the maximizer reproduces x
    for x1 in (0.25, 0.75):
        res = legendre(dist, line_point(x1))
        l1 = res.maximizer.entries[0, 1]
        l2 = res.maximizer.entries[1, 0]
        denom = np.exp(2 * l1) + np.exp(2 * l2)
        assert np.exp(2 * l1) / denom == pytest.approx(x1, abs=1e-9)
        assert np.exp(2 * l2) / denom == pytest.approx(1 - x1, abs=1e-9)


def test_fenchel_young(dist, rng):
    for _ in range(50):
        lam = sample_ball(2, 2.0, rng)
        x1 = rng.uniform(0.05, 0.95)
        x = line_point(x1)
        lhs = lam.inner(x)
        conj = legendre(dist, x)
        assert lhs <= log_mgf(dist, lam) + conj.value + 1e-12
        # equality at the maximizer
        eq = conj.maximizer.inner(x) - log_mgf(dist, conj.maximizer)
        assert eq == pytest.approx(conj.value, abs=1e-8)


def test_conjugate_convex_on_line(dist, rng):
    for _ in range(30):
        a, b = np.sort(rng.uniform(0.02, 0.98, size=2))
        va = legendre(dist, line_point(a)).value
        vb = legendre(dist, line_point(b)).value
        vm = legendre(dist, line_point((a + b) / 2)).value
        assert vm <= 0.5 * va + 0.5 * vb + 1e-9


def test_values_nonnegative(dist, rng):
    for _ in range(30):
        res = legendre(dist, line_point(rng.uniform(0, 1)))
        assert res.value >= -1e-12


# ---------------------------------------------------------------------------
# closed form

def test_closed_form_vertices():
    assert legendre_closed_form_s2(1.0, 0.0, 1.0, 1.0) == pytest.approx(np.log(2))
    assert legendre_closed_form_s2(0.0, 1.0, 1.0, 1.0) == pytest.approx(np.log(2))


def test_closed_form_mean_is_zero():
    for alpha, beta in ((1.0, 1.0), (0.5, 2.0)):
        assert legendre_closed_form_s2(alpha / 2, beta / 2, alpha, beta) == \
            pytest.approx(0.0, abs=1e-14)


def test_closed_form_off_line_infinite():
    assert np.isinf(legendre_closed_form_s2(0.3, 0.9, 1.0, 1.0))
    assert np.isinf(legendre_closed_form_s2(1.2, -0.2, 1.0, 1.0))


def test_closed_form_general_parameters(dist):
    # alpha != beta against the numerical optimizer
    from liewalk import example_model

    alpha, beta = 1.5, 0.7
    d2 = example_model(alpha, beta).distribution()
    for x1 in (0.2, 0.8, 1.2):
        x2 = beta * (1 - x1 / alpha)
        res = legendre(d2, AlgebraVector([[-x1, x1], [x2, -x2]]))
        assert res.value == pytest.approx(
            legendre_closed_form_s2(x1, x2, alpha, beta), abs=1e-7)


# ---------------------------------------------------------------------------
# a three-atom law exercises genuine faces

def three_atom_dist():
    a = AlgebraVector([[-1.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    b = AlgebraVector([[0.0, 0.0, 0.0], [1.0, -1.0, 0.0], [0.0, 0.0, 0.0]])
    c = AlgebraVector([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 1.0, -1.0]])
    return IncrementDistribution(atoms=(a, b, c), weights=(0.5, 0.25, 0.25))


def test_face_restricted_value():
    dist3 = three_atom_dist()
    a, b, _ = dist3.atoms
    edge_mid = 0.5 * (a + b)
    assert domain_check(dist3, edge_mid) == "boundary"
    assert minimal_face(dist3, edge_mid) == (0, 1)
    res = legendre(dist3, edge_mid)
    # independent oracle: nu = (1/2, 1/2, 0) is the only representation
    expected = 0.5 * np.log(0.5 / 0.5) + 0.5 * np.log(0.5 / 0.25)
    assert res.value == pytest.approx(expected, abs=1e-9)


def test_interior_of_three_atoms_matches_entropy_oracle():
    dist3 = three_atom_dist()
    x = 0.5 * dist3.atoms[0] + 0.25 * dist3.atoms[1] + 0.25 * dist3.atoms[2]
    assert domain_check(dist3, x) == "inside"
    res = legendre(dist3, x)
    assert res.value == pytest.approx(0.0, abs=1e-10)  # x is the mean
    y = 0.2 * dist3.atoms[0] + 0.5 * dist3.atoms[1] + 0.3 * dist3.atoms[2]
    res_y = legendre(dist3, y)
    assert res_y.value == pytest.approx(entropy_program_oracle(dist3, y), abs=1e-6)


# ---------------------------------------------------------------------------
# the batched dual Newton against the one-target solver

def triangle_dist():
    a = AlgebraVector([[-1.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    b = AlgebraVector([[0.0, 0.0, 0.0], [0.5, -1.0, 0.5], [0.0, 0.0, 0.0]])
    c = AlgebraVector([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 1.0, -1.0]])
    return IncrementDistribution(atoms=(a, b, c), weights=(0.4, 0.3, 0.3))


@pytest.mark.parametrize("which", ["two_state", "triangle"])
def test_dual_newton_stack_matches_single(dist, rng, which):
    d = dist if which == "two_state" else triangle_dist()
    geom = _support_geometry(d)
    k, r = geom.atom_coords.shape
    # interior targets (random mixtures), a vertex and points past the hull,
    # where the dual diverges
    mix = rng.dirichlet(np.ones(k), size=12)
    targets = np.concatenate([mix @ geom.atom_coords,
                              geom.atom_coords[:1],
                              1.5 * geom.atom_coords[:1],
                              -2.0 * geom.atom_coords[-1:]])
    starts = rng.standard_normal(targets.shape)
    starts[::2] = 0.0       # cold starts, as for a first evaluation
    for max_iter in (200, 80):
        vals, c, gn, its, ok = _dual_newton_stack(
            geom.atom_coords, geom.log_weights, targets, starts, max_iter=max_iter)
        for i, (t, s) in enumerate(zip(targets, starts)):
            v1, c1, g1, it1, ok1 = _dual_newton(geom.atom_coords, geom.log_weights,
                                                t, start=s, max_iter=max_iter)
            assert ok[i] == ok1, (i, max_iter)
            assert its[i] == it1
            if ok1:
                assert vals[i] == pytest.approx(v1, abs=1e-12)
                assert np.abs(c[i] - c1).max() <= 1e-12 * max(1.0, np.abs(c1).max())
    assert not ok[-2:].any() and ok[:12].all()
