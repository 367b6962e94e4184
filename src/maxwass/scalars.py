"""Dual-mode scalar arithmetic shared by every module.

All quantities in this package are either *exact* (int / Fraction, kept
exact through every operation) or IEEE floats compared at tolerance.
The helpers here centralise parsing, formatting and the few arithmetic
operations where the two modes need different handling.
"""

from __future__ import annotations

import math
import sys
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from typing import Union

Scalar = Union[int, float, Fraction]

#: atoms closer than this merge into one support point in float mode
MERGE_TOL = 1e-12

#: the most bits an exact cost dm^q or its scale L^q may take; far
#: beyond any instance of interest, and it keeps a huge p from
#: building numbers that exhaust memory or time
_MAX_COST_BITS = 1 << 16

#: scalar text is read only when its leading digit lies fewer places
#: than this from the units digit: 10**_MAX_DIGITS takes about as many
#: bits as an exact cost may
_MAX_DIGITS = int(_MAX_COST_BITS * math.log10(2))


class ConstraintError(ValueError):
    """A documented precondition was violated (CLI exit code 3)."""


class ParseError(ValueError):
    """Malformed input data or configuration (CLI exit code 2)."""


def for_message(v) -> str:
    """str(v), the text of v in an error message, or a fixed phrase when
    v holds an int of more digits than Python converts to text."""
    try:
        return str(v)
    except ValueError:
        return "a number of more digits than Python prints"


def shown(value) -> str:
    """repr(value), input text or a JSON value in an error message.  Past
    60 characters it shows the first 20 and the length instead, counted
    on the text itself for text and on the repr for any other value."""
    if isinstance(value, str):
        if len(value) <= 60:
            return repr(value)
        return f"{value[:20]!r}... ({len(value)} characters)"
    text = repr(value)
    return text if len(text) <= 60 else f"{text[:20]}... ({len(text)} characters)"


#: nearly every exact scalar is one of these; a type test by identity is
#: cheaper than the isinstance checks, which still decide for subclasses
_EXACT_TYPES = frozenset((int, Fraction))


def is_exact(v: Scalar) -> bool:
    # a float leaves before isinstance(v, Fraction), an ABC instance check
    t = type(v)
    return t in _EXACT_TYPES or (
        t is not float and isinstance(v, (int, Fraction)) and not isinstance(v, bool)
    )


def to_exact(v) -> Fraction:
    """Coerce a scalar to an exact Fraction.

    Floats convert through their shortest decimal repr, so 0.1 becomes
    1/10 rather than the underlying binary fraction.
    """
    if isinstance(v, float):
        return Fraction(Decimal(repr(_finite(v))))
    return Fraction(v)


def _beyond_digit_bound(text: str) -> Decimal | None:
    """The value of decimal text whose leading digit lies _MAX_DIGITS
    places or more from the units digit, None for any other text.  It is
    judged on the text, before Fraction builds 10**|exponent|; an
    exponent beyond 10**9 reads as 10**9, as Decimal reads none beyond
    10**18."""
    head, e, tail = text.lower().rpartition("e")
    try:
        if e:
            text = f"{head}e{max(-10**9, min(int(tail), 10**9))}"
        d = Decimal(text)
    except (ValueError, InvalidOperation):
        return None  # 'a/b' text, or text Fraction rejects too
    if d.is_finite() and abs(d.adjusted()) >= _MAX_DIGITS:
        return d
    return None


def _fraction_from_str(s: str) -> Fraction:
    # plain ASCII 'n' and 'n/d' skip Fraction's regular expression; any
    # other text, a zero d and more digits than int() reads go the long way
    num, slash, den = s.partition("/")
    if s.isascii() and num.removeprefix("-").isdigit() and (den.isdigit() or not slash):
        try:
            return Fraction(int(num), int(den or 1))
        except (ValueError, ZeroDivisionError):
            pass
    beyond = _beyond_digit_bound(s)
    if beyond is not None:
        if beyond.is_zero():
            return Fraction(0)
        raise ConstraintError(f"scalar {shown(s)} has more than {_MAX_DIGITS} digits")
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError):
        pass
    try:
        d = Decimal(s)
    except InvalidOperation:
        raise ParseError(f"cannot parse scalar string {shown(s)}") from None
    if not d.is_finite():
        raise ParseError(f"scalar {shown(s)} is not finite")
    return Fraction(d)


def _finite(v: float) -> float:
    if not math.isfinite(v):
        raise ParseError(f"scalar {v!r} is not finite")
    return v


def parse_scalar(v) -> Scalar:
    """JSON value -> scalar.  ints and 'p/q' strings parse exact."""
    if isinstance(v, bool):
        raise ParseError("booleans are not scalars")
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, float):
        return _finite(v)
    if isinstance(v, str):
        return _fraction_from_str(v)
    raise ParseError(f"not a scalar: {shown(v)}")


def scalar_to_json(v: Scalar):
    """Scalar -> JSON value.  Exact scalars serialize as strings."""
    if is_exact(v):
        # the text of Fraction(v), without copying a Fraction
        return str(v) if type(v) is Fraction else str(Fraction(v))
    return float(v)


def halve(v: Scalar) -> Scalar:
    # Fraction(v, 2) so exact integer inputs stay exact
    return Fraction(v, 2) if is_exact(v) else v / 2


def is_integer_exponent(p) -> bool:
    if isinstance(p, bool):
        return False
    if isinstance(p, int):
        return True
    if isinstance(p, Fraction):
        return p.denominator == 1
    if isinstance(p, float):
        return p.is_integer()
    return False


def root_p(v: Scalar, p) -> Scalar:
    """p-th root of a nonnegative scalar; exact only for p == 1."""
    if p == 1:
        return v
    try:
        inverse = 1.0 / float(p)
    except OverflowError:
        # 1/p < 1e-308, so any positive v this package can hold (|log v|
        # far below 1e292) roots to 1.0; 0.0 ** 0.0 would be 1.0 as well
        return 1.0 if v else 0.0
    try:
        f = float(v)
    except OverflowError:
        f = math.inf
    if not is_exact(v) or not v or sys.float_info.min <= f < math.inf:
        return f ** inverse
    # exact v overflows a float or falls below its normal range, where float(v)
    # rounds or underflows to 0.0: write v = m 2^e with m in (1/2, 2)
    # and e = k p + r, so v^(1/p) = m^(1/p) 2^(r/p) 2^k; ldexp raises
    # OverflowError when the root itself lies beyond the float range
    n, d = Fraction(v).as_integer_ratio()
    e = n.bit_length() - d.bit_length()
    m = n / (d << e) if e >= 0 else (n << -e) / d
    k, r = divmod(e, p)
    return math.ldexp(m**inverse * 2.0 ** (r * inverse), int(k))
