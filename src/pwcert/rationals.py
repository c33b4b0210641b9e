"""Exact rational scalars.

``fractions.Fraction`` already provides arbitrary-precision rationals in
lowest terms with positive denominator, which is exactly the coefficient
domain needed for decidable zero tests.  This module only adds the string
forms used throughout the JSON interfaces, ``"p/q"`` or ``"p"`` when the
denominator is 1, read and printed within Python's int/str digit limit.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction

RatLike = Fraction | int | str

MAX_DIGITS = 10_000  # read limit; a part over Python's 4,300-digit int limit is refused on read and print


def _size(text: str) -> int:
    """Length of a rational string with its decimal exponent written out as zeros."""
    mantissa, _, exponent = text.lower().partition("e")
    exponent = exponent.strip().lstrip("+-").replace("_", "").lstrip("0")[:9]  # 9 digits: over the limit
    return len(mantissa) + (int(exponent) if exponent.isdecimal() else 0)


def rat(value: RatLike) -> Fraction:
    """Coerce an int, Fraction or ``"p/q"`` string to an exact rational."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        if _size(value) > MAX_DIGITS:
            raise ValueError(f"rational strings must be at most {MAX_DIGITS} characters, exponent as zeros")
        try:
            return Fraction(digits_checked(value).strip())
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def digits_checked(text: str) -> str:
    """text, or pw's own ValueError where a run of digits passes Python's int-from-str limit."""
    limit = sys.get_int_max_str_digits()
    if limit and len(text) > limit and max(map(len, re.findall(r"\d+", text.replace("_", ""))), default=0) > limit:
        raise ValueError(f"input limit: a number to read has a part over {limit} digits")
    return text


def rat_str(value: Fraction) -> str:
    """Format a rational as ``"p/q"``, or ``"p"`` for integers.

    A part longer than Python's int-to-str digit limit is an error of pw's own.
    """
    try:
        if value.denominator == 1:
            return str(value.numerator)
        return f"{value.numerator}/{value.denominator}"
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise ValueError(f"output limit: a rational to print has a part over {limit} digits") from None


def is_integer(value: Fraction) -> bool:
    return value.denominator == 1


def is_half_integer(value: Fraction) -> bool:
    """True for odd multiples of 1/2 (denominator exactly 2)."""
    return value.denominator == 2
