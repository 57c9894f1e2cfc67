"""Single-pair certificates, the reference for the stacked ones.

Test-local copies of the one-pair formulas that liewalk ran before each
single-pair certificate became one row of its suite's stacked body: the
BCH deviation and log-Lipschitz certificates, the loop over atoms behind
kappa_support, from_coords as one tensordot, and the Psi_m continuity check
and constant on lists of AlgebraVector.  Tests compare the library with
them byte for byte.
"""

import numpy as np

from liewalk import AlgebraVector, distance_proxy, exp_matrix, log_matrix, psi_m
from liewalk.bch import R_BCH, BoundCertificate, c_constant
from liewalk.lie import _ball_coords, _basis_stack, ad_operator, operator_norm


def verify_log_product(x, y):
    assert x.norm <= R_BCH + 1e-12 and y.norm <= R_BCH + 1e-12
    z = log_matrix(exp_matrix(x) @ exp_matrix(y))
    lhs = (z - x - y).norm
    constant = c_constant(operator_norm(ad_operator(x)))
    return BoundCertificate.compare(lhs, constant * y.norm, constant)


def verify_lipschitz(x, y, c):
    assert x.norm <= R_BCH + 1e-12 and y.norm <= R_BCH + 1e-12
    lhs = log_matrix(exp_matrix(x) @ exp_matrix(-y)).norm
    return BoundCertificate.compare(lhs, c * (x - y).norm, c)


def kappa_support(dist):
    worst = 0.0
    for a in dist.atoms:
        if a.norm > 0:
            worst = max(worst, operator_norm(ad_operator(a)) / a.norm)
    return worst


def from_coords(c, d):
    return AlgebraVector(np.tensordot(np.asarray(c, dtype=np.float64), _basis_stack(d), axes=1))


def psi_m_continuity_check(xs, ys, c_emp):
    lhs = distance_proxy(psi_m(xs), psi_m(ys))
    gap = sum((x - y).norm for x, y in zip(xs, ys))
    return BoundCertificate.compare(lhs, c_emp * gap, c_emp)


def estimate_continuity_constant(d, r, m, n_pairs, seed):
    worst = 0.0
    for i in range(n_pairs):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(i,)))
        xs, ys, gap = [], [], 0.0
        for _ in range(m):
            c = _ball_coords(d, r / m, rng)
            cy = c + _ball_coords(d, 0.2 * r / m, rng)
            ny = np.linalg.norm(cy)
            if ny > r / m:
                cy *= (r / m) / ny
            x = from_coords(c, d)
            y = from_coords(cy, d)
            xs.append(x)
            ys.append(y)
            gap += (x - y).norm
        if gap < 1e-14:
            continue
        lhs = distance_proxy(psi_m(xs), psi_m(ys))
        worst = max(worst, lhs / gap)
    return worst


def cert_bits(cert):
    """A certificate's fields, each float as its type and bytes."""
    floats = (cert.lhs, cert.rhs, cert.constant)
    return [(type(v), np.float64(v).tobytes()) for v in floats] + [cert.passed]
