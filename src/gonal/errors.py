"""Exception hierarchy shared by all gonal modules, and the int-to-str guard."""

import math
import sys


class GonalError(Exception):
    """Base class for every error raised by this package."""


class InvalidParamsError(GonalError, ValueError):
    """Parameters violate a documented precondition (non-prime p, r < 3, ...)."""


class AmbientMismatchError(GonalError, ValueError):
    """Two values live over different ambient dimensions or moduli."""


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


class NoInvariantSubspaceError(GonalError, ValueError):
    """Requested invariant-subspace dimension is not a multiple of ord_p(q)."""


class InvalidTransversalError(GonalError, ValueError):
    """Transversal element lies inside the subgroup it should complement."""


class FixtureParseError(GonalError, ValueError):
    """A generator-word fixture is malformed or indexes out of range."""


class IdentityCheckError(GonalError):
    """An exact identity that must hold failed; carries a witness message."""


def int_str_limit() -> int:
    """The interpreter's int-to-str digit limit; 0 where there is none."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def too_many_digits(digits: int) -> InvalidParamsError:
    return InvalidParamsError(
        f"a result has {digits} decimal digits, over this interpreter's int-to-str "
        f"limit of {int_str_limit()} (PYTHONINTMAXSTRDIGITS raises it)"
    )


def digit_count(value: int) -> int:
    """Decimal digits of |value| > 0, counted without str."""
    digits = int(abs(value).bit_length() * math.log10(2))  # the count or one less
    return digits + (abs(value) >= 10**digits)


def digits_from_log10(log10_value: float, build) -> int:
    """Decimal digits of a positive integer from its logarithm `log10_value`.

    That logarithm, taken in floating point, is off by far less than
    1e-9 + 1e-14 log10_value; unless that bound reaches an integer,
    floor(log10_value) + 1 is the exact count, else `build()` is counted.
    """
    if abs(log10_value - round(log10_value)) < 1e-9 + 1e-14 * log10_value:
        return digit_count(build())
    return math.floor(log10_value) + 1


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


def quoted_power(base: int, exp: int, factor: int = 1) -> tuple[int | None, str]:
    """(factor * base**exp, its `quoted` text), base >= 2, factor >= 1; past the
    int-to-str limit (None, its digit count) without building the power."""
    if int_str_limit():
        digits = digits_from_log10(
            math.log10(factor) + exp * math.log10(base), lambda: factor * base**exp
        )
        if digits > int_str_limit():
            return None, f"<{digits} digits>"
    value = factor * base**exp
    return value, str(value)
