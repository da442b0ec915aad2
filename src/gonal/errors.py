"""Shared exceptions, the int-to-str guard, the one cap check and the one integer reading."""

import math
import sys
from decimal import Context, Decimal

import numpy as np


class GonalError(Exception):
    """Base class for every error raised by this package."""


class InvalidParamsError(GonalError, ValueError):
    """Parameters violate a documented precondition (non-prime p, r < 3, ...)."""


class CapExceededError(GonalError):
    """An enumeration would exceed its resource cap.

    `required` is the cap value that would let the call proceed, or None
    where it was too large to build; `required_text` quotes it either way.
    """

    def __init__(self, message: str, required: int | None, cap: int, required_text: str | None = None):
        self.required = required
        self.required_text = quoted(required) if required_text is None else required_text
        self.cap = cap
        super().__init__(f"{message} (required cap {self.required_text}, current cap {quoted(cap)})")


class FixtureParseError(GonalError, ValueError):
    """A generator-word fixture is malformed or indexes out of range."""


class IdentityCheckError(GonalError):
    """An exact identity that must hold failed; carries a witness message."""


def int_str_limit() -> int:
    """The digit limit every result is sized against: the interpreter's int-to-str
    limit, or Python's default (4300) where that is off or absent."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    return limit or getattr(sys.int_info, "default_max_str_digits", 4300)


def too_many_digits(digits: int) -> InvalidParamsError:
    return InvalidParamsError(
        f"a result has {digits} decimal digits, over the int-to-str "
        f"limit of {int_str_limit()} (PYTHONINTMAXSTRDIGITS raises it)"
    )


def digit_count(value: int) -> int:
    """Decimal digits of |value| > 0, counted without str."""
    digits = int(abs(value).bit_length() * math.log10(2))  # the count or one less
    return digits + (abs(value) >= 10**digits)


def power_digits(base: int, exp: int, factor: int = 1) -> int:
    """Decimal digits of factor * base**exp, base, factor >= 1, exp >= 0.

    The value is built and its digits counted while (b - 1) exp + f <= 2^16,
    b and f the bit lengths of base and factor: always up to 2^16 bits, never
    past 2^17.  Otherwise the count is floor(log10 factor + exp log10 base) + 1,
    the logarithms taken in decimal arithmetic to 40 digits more than exp has:
    exact unless that sum lies within about 10^-38 of an integer it is not, or
    is an integer while base or factor is not a power of ten.
    """
    if (base.bit_length() - 1) * exp + factor.bit_length() <= 1 << 16:
        return digit_count(factor * base**exp)
    context = Context(prec=digit_count(exp) + 40)
    log_value = context.add(
        context.multiply(Decimal(exp), Decimal(base).log10(context)), Decimal(factor).log10(context)
    )
    return int(log_value) + 1


def _unprintable_digits(base: int, exp: int, factor: int = 1) -> int:
    """The decimal digits of factor * base**exp if they are past `int_str_limit`,
    else 0; the value is not built (see `power_digits`)."""
    digits = power_digits(base, exp, factor)
    return digits if digits > int_str_limit() else 0


def refuse_unprintable(base: int, exp: int, factor: int = 1) -> None:
    """InvalidParamsError, as `decimal` would raise it, if factor * base**exp is
    past the int-to-str limit; the value is not built."""
    digits = _unprintable_digits(base, exp, factor)
    if digits:
        raise too_many_digits(digits)


def decimal(value: int) -> str:
    """str(value) of a printed result; past the int-to-str limit, InvalidParamsError."""
    try:
        return str(value)
    except ValueError:
        raise too_many_digits(digit_count(value)) from None


def quoted(value: int) -> str:
    """str(value) on an error line; past the int-to-str limit, its digit count."""
    try:
        return str(value)
    except ValueError:
        return f"<{digit_count(value)} digits>"


def _is_integer(value) -> bool:
    """Whether `value` is an int or a numpy integer, uint64 included; a bool is neither."""
    return type(value) is int or isinstance(value, np.integer)


def check_integer(value, name: str) -> int:
    """`value` as an int if it is an int or a numpy integer; else InvalidParamsError naming `name`."""
    if not _is_integer(value):
        raise InvalidParamsError(f"{name} {value!r} is not an integer")
    return int(value)


def integer_array(a, what: str, modulus: int | None = None) -> np.ndarray:
    """`a` (a scalar, nested lists or an array) as int64, each entry read as by check_integer;
    anything else, or ragged rows, raise InvalidParamsError naming `what`.  With a `modulus`
    the result is fresh and reduced mod it, exactly past int64; without, an entry past int64
    is refused.  An int64 array, an int and a flat list of ints are converted at once; all
    else entry by entry, as numpy reads bools among ints as ints, and 2^63 among ints as float."""
    if type(a) is int or type(a) in (list, tuple) and a and {int}.issuperset(map(type, a)):
        try:
            a = np.array(a, dtype=np.int64)
        except OverflowError:  # past int64: read entry by entry below
            pass
    if not (isinstance(a, np.ndarray) and a.dtype == np.int64):
        try:
            arr = np.asarray(a)
        except ValueError as exc:
            raise InvalidParamsError(f"expected a rectangular array of integers: {exc}") from None
        values = list(np.asarray(a, dtype=object).flat)
        if not all(map(_is_integer, values)):  # in an int array read from a list, only a bool
            got = "bool" if arr.dtype.kind in "iu" else arr.dtype
            raise InvalidParamsError(f"{what} must be integers, got {got} values")
        values = [int(x) if modulus is None else int(x) % modulus for x in values]
        for x in values:
            if not -(2**63) <= x < 2**63:
                raise InvalidParamsError(f"{what} must fit int64, got {quoted(x)}")
        a = np.array(values, dtype=np.int64).reshape(arr.shape)
    return a if modulus is None else a % modulus


def positive_cap(cap, source: str) -> int:
    """`cap` read as check_integer reads it; InvalidParamsError naming `source` unless positive.

    A float, a bool or a digit string is refused, not read: 80.9 is not the cap 80.
    """
    if not _is_integer(cap) or cap < 1:
        raise InvalidParamsError(f"{source} must be a positive integer, got {cap!r}")
    return int(cap)


def check_cap(cap, source: str, message: str, base: int, exp: int = 1, factor: int = 1) -> int:
    """factor * base**exp once it is at most `cap`, read by positive_cap naming `source`;
    past it, CapExceededError with `message`, the value quoted at its `{}`.

    base, factor >= 1.  (b - 1) exp + (f - 1) >= the bit length of cap, b and f
    those of base and factor, already means the value exceeds cap: then it is
    built only if its digits can be printed, and quoted by their count if not.
    Otherwise it stays below (2 cap)^2 and is compared exactly.
    """
    cap = positive_cap(cap, source)
    past = (base.bit_length() - 1) * exp + factor.bit_length() - 1 >= cap.bit_length()
    digits = _unprintable_digits(base, exp, factor) if past else 0
    value = None if digits else factor * base**exp
    if value is not None and value <= cap:
        return value
    text = f"<{digits} digits>" if digits else quoted(value)
    raise CapExceededError(message.format(text), value, cap, required_text=text)
