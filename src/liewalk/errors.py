"""Exception hierarchy shared by all liewalk modules, and the count check
that raises InvalidArgumentError."""

import operator


class LieWalkError(Exception):
    """Base class for all errors raised by this package."""


class InvalidDimensionError(LieWalkError):
    """Matrix dimension is unsupported (e.g. d < 2)."""


class InvalidArgumentError(LieWalkError):
    """An argument violates a documented precondition."""


class MembershipError(InvalidArgumentError):
    """A matrix violates a group/algebra membership constraint.

    Carries the name of the violated constraint and the measured residual
    so deserializers and validators can produce actionable diagnostics.
    """

    def __init__(self, constraint: str, residual: float, detail: str = ""):
        self.constraint = constraint
        self.residual = residual
        msg = f"constraint '{constraint}' violated, residual {residual:.3e}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class SingularMatrixError(LieWalkError):
    """Matrix is singular (or numerically indistinguishable from singular)."""


class OutOfDomainError(LieWalkError):
    """Input lies outside the domain where the operation is defined.

    Raised e.g. by the matrix logarithm outside its convergence region and
    by series operators when the contraction condition fails.
    """


class NonConvergenceError(LieWalkError):
    """An iterative scheme failed to converge; message carries diagnostics."""


class UsageError(LieWalkError):
    """Invalid CLI usage or configuration."""


def _positive_int(name: str, n, bound: tuple[str, int] | None = None) -> int:
    """n as an int: any integer type but bool, at least 1, and at most high
    when bound = (label, high) is given; an integer outside [1, high] is
    reported against [1, label]."""
    try:
        value = None if isinstance(n, bool) else operator.index(n)
    except TypeError:
        value = None
    if value is not None and bound is not None and not 1 <= value <= bound[1]:
        raise InvalidArgumentError(
            f"{name} must lie in [1, {bound[0]}] = [1, {bound[1]}], got {value}")
    if value is None or value < 1:
        raise InvalidArgumentError(f"{name} must be a positive integer, got {n!r}")
    return value
