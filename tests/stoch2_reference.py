"""The walk's 2x2 closed forms one matrix at a time, and in long double.

``stoch2_log`` and ``explicit_solve`` are test-local one-matrix copies of
what liewalk computes on stacks for the 2x2 unit-row-sum group: the
principal log log(s)/(s - 1) * (g - I) with s = g00 - g10, which
liewalk.lie._logm_stack takes for every such matrix with s > 0, and the
displacement a^-1 b as the adjugate of a over its determinant
(liewalk.lie._divide).  ``divide`` picks between ``explicit_solve`` and
np.linalg.solve for one pair as ``_divide`` picks for a stack.  Tests
compare the library's 2x2 logs and divisions with them byte for byte.
``stoch2_logs_longdouble`` carries the same log in long double (64-bit
mantissa on x86-64), so its own rounding is about 2^11 times finer.

LOG_RTOL is the relative Frobenius distance allowed between the closed
form and the per-matrix Denman-Beavers and Mercator loop
(``logm_reference.logm``), plus LOG_ATOL for the loop's series, which stops
at an absolute tail bound of 1e-17.  Measured: 3.4e-15 on exponentials of
random two-state generators and on matrices with s in [2^-10, 1.9], 1.4e-15
with M - I nilpotent, and 2.6e-13 relative (8e-20 absolute) near the
identity.  Against 40-digit logs the closed form is within 2.4e-16 for s
from 1e-6 to 0.5 on matrices with exact unit row sums, where the loop
loses up to 2.1e-12 at s near 1e-6.
"""

import numpy as np

LOG_RTOL = 2e-14
LOG_ATOL = 1e-17


def stoch2_log(g: np.ndarray) -> np.ndarray:
    """Principal log of one 2x2 unit-row-sum matrix in closed form."""
    s = g[0, 0] - g[1, 0]
    e = s - 1.0
    if abs(e) < 1e-6:
        f = 1.0 - e / 2.0 + e * e / 3.0 - e * e * e / 4.0   # log(1 + e) / e
    else:
        f = np.log(s) / e
    return f * (g - np.eye(2))


def explicit_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a^-1 b for one 2x2 pair: the adjugate of a times b, over det(a)."""
    det = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
    return np.array([[a[1, 1] * b[0, 0] - a[0, 1] * b[1, 0], a[1, 1] * b[0, 1] - a[0, 1] * b[1, 1]],
                     [a[0, 0] * b[1, 0] - a[1, 0] * b[0, 0], a[0, 0] * b[1, 1] - a[1, 0] * b[0, 1]]]) / det


def divide(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a^-1 b for one pair: explicit_solve for a 2x2 a whose determinant is
    finite and nonzero, otherwise np.linalg.solve with its errors."""
    if a.shape == (2, 2):
        det = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
        if np.isfinite(det) and det != 0.0:
            return explicit_solve(a, b)
    return np.linalg.solve(a, b)


def stoch2_logs_longdouble(mats: np.ndarray) -> np.ndarray:
    """log(s)/(s - 1) * (M - I), s = M00 - M10, of a (n, 2, 2) stack in long double."""
    m = np.asarray(mats, dtype=np.longdouble)
    s = m[:, 0, 0] - m[:, 1, 0]
    e = s - 1
    f = np.where(e == 0, 1, np.log(s) / np.where(e == 0, 1, e))
    return f[:, None, None] * (m - np.eye(2, dtype=np.longdouble))
