"""Shared exception types for the sphere-sumrules package, and the one
check per kind of scalar argument that every entry point calls."""

import decimal
import math
import numbers
import sys


class SphereSumRulesError(Exception):
    """Base class for all package errors."""


class ValidationError(SphereSumRulesError, ValueError):
    """A domain precondition on the inputs is violated."""


class DivergentSumError(SphereSumRulesError, ArithmeticError):
    """The requested sum or integral does not converge for these parameters."""


class UnsupportedOrderError(SphereSumRulesError, ValueError):
    """The requested order is outside the implemented scope (p >= 4 etc.)."""


class UnsupportedDensityError(SphereSumRulesError, ValueError):
    """The operation is not implemented for this class of densities."""


class CutoffTooSmallError(SphereSumRulesError, ValueError):
    """An internal truncation cutoff cannot accommodate the requested density."""


class NonConvergenceError(SphereSumRulesError, ArithmeticError):
    """An iterative numerical procedure failed to reach its tolerance."""


# Largest accepted cutoff.  The band sums and the cubic trace's block
# moments run in passes of a fixed working set up to it.
MAX_ELL_CUT = 10 ** 6

# Largest working set of a dense block or block-by-block sum, 1 GiB.
MAX_BYTES = 2 ** 30


def integral(value):
    """value as an int if it is an integral real number (not a bool),
    else None."""
    if isinstance(value, bool):
        return None
    if isinstance(value, numbers.Integral):
        return int(value)
    if (isinstance(value, numbers.Real) and math.isfinite(value)
            and float(value).is_integer()):
        return int(value)
    return None


def check_integer(value, name, least=0, most=MAX_ELL_CUT):
    """value as an int in [least, most] (no upper limit when most is None);
    anything else raises ValidationError."""
    n = integral(value)
    if n is None or n < least:
        kind = ("a non-negative integer" if least == 0
                else "an integer >= %d" % least)
        raise ValidationError("%s must be %s, got %r" % (name, kind, value))
    if most is not None and n > most:
        shown = n if n < 10 ** 20 else format(decimal.Decimal(n), ".2e")
        raise ValidationError("%s=%s is above the supported ceiling %d"
                              % (name, shown, most))
    return n


def check_real(value, name):
    """value as a finite float; anything else, a string or a bool included,
    raises ValidationError."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not math.isfinite(value)):
        raise ValidationError("%s must be a finite real number, got %r"
                              % (name, value))
    return float(value)


def check_dimension(d):
    """The sphere dimension as an int: the engines cover d = 2..5."""
    if integral(d) not in (2, 3, 4, 5):
        raise ValidationError("sphere dimension must be 2..5, got %r" % (d,))
    return int(d)


def check_gamma(gamma):
    """The shift as a float: positive, finite, and with a cube and inverse
    cube (the highest powers the shifted rule forms) that neither overflow
    nor underflow."""
    try:
        gamma = float(gamma)
    except (TypeError, ValueError):
        raise ValidationError("shift gamma must be a number, got %r"
                              % (gamma,)) from None
    if not 0.0 < gamma < math.inf:
        raise ValidationError("shift gamma must be finite and > 0, got %r"
                              % (gamma,))
    try:
        smallest = min(gamma ** 3, gamma ** -3)
    except OverflowError:
        smallest = 0.0
    if smallest < sys.float_info.min:
        raise ValidationError("shift gamma=%r is out of range: its powers "
                              "over- or underflow" % (gamma,))
    return gamma


def check_bytes(need, what):
    """Reject, before anything is allocated, a working set of `need` bytes
    past MAX_BYTES; what names it in the message."""
    if need > MAX_BYTES:
        raise ValidationError("%s needs %.1f GB, above its %.1f GB budget"
                              % (what, need / 1e9, MAX_BYTES / 1e9))
