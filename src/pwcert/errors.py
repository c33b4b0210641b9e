"""Exception types shared across the package, and the one rule for errors.

Checkers report negative *results* (Reject values with witnesses).  An input
that breaks a contract (malformed, out of bounds, of the wrong parity, not a
reducible point, a quotient that cannot exist) is a plain ValueError, or a
ZeroDivisionError for division by a zero polynomial, whose message pw prints
as its one `pw: error:` line.  PwError marks only the package's own failures:
an exact division that theory guarantees left a remainder, or a quadrature
that did not converge.
"""


class PwError(Exception):
    """Base class for the package's own failures (never a malformed input)."""


def check_parity(n: int, m: int) -> None:
    """Raise ValueError unless the K-types n and m have equal parity."""
    if (n - m) % 2 != 0:
        raise ValueError(f"K-types {n} and {m} have different parity")


class InternalNonDivisibility(PwError, RuntimeError):
    """A division guaranteed exact by theory left a remainder (library bug)."""


class ConvergenceNotReached(PwError, ArithmeticError):
    """Numeric quadrature failed its self-consistency (point-doubling) check."""
