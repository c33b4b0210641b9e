"""Exception types shared across the package.

Checkers report negative *results* (Reject values with witnesses); exceptions
are reserved for contract violations: malformed inputs, parity mismatches,
quotients that cannot exist, and numeric preconditions.
"""


class PwError(Exception):
    """Base class for all package-specific errors."""


class DivisionByZeroPoly(PwError, ZeroDivisionError):
    """Polynomial division by the zero polynomial."""


class IrreducibleGammaQuotient(PwError, ValueError):
    """A Gamma-product quotient does not reduce to a rational function.

    Raised when factors cannot be paired with equal scale and integer
    shift gap, or when a transcendental prefactor fails to cancel.
    """


class ParityMismatch(PwError, ValueError):
    """K-type or weight parities disagree where equality mod 2 is required."""


def check_parity(n: int, m: int) -> None:
    """Raise ParityMismatch unless the K-types n and m have equal parity."""
    if (n - m) % 2 != 0:
        raise ParityMismatch(f"K-types {n} and {m} have different parity")


class ArityMismatch(PwError, ValueError):
    """Multivariate operands have different numbers of variables."""


class TruncationTooSmall(PwError, ValueError):
    """Input data carries K-types beyond the declared truncation bound."""


class WeightNotInKType(PwError, ValueError):
    """A weight lies outside the weight set of the given K-type."""


class SrcDstMismatch(PwError, ValueError):
    """Operation requires an endomorphism but source and target differ."""


class NotInAlgebra(PwError, ValueError):
    """Input fails the diagonal-algebra membership precondition."""


class InternalNonDivisibility(PwError, RuntimeError):
    """A division guaranteed exact by theory left a remainder (library bug)."""


class NotReduciblePoint(PwError, ValueError):
    """Parameter point is not a reducibility point of the principal series."""


class PoleProximity(PwError, ValueError):
    """Numeric evaluation requested too close to a pole."""


class ConvergenceNotReached(PwError, ArithmeticError):
    """Numeric quadrature failed its self-consistency (point-doubling) check."""


class OutsideConvergenceRegion(PwError, ValueError):
    """Integral evaluation requested outside its convergence half-plane."""
