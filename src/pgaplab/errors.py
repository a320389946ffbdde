"""Exception hierarchy shared by all pgaplab modules, and the readers of
outside input: files, integers and numbers.  Each reader turns input it
cannot use into a ValidationError that names the input."""

import json
import math
import os


class PgapError(Exception):
    """Base class for all pgaplab errors."""


class ValidationError(PgapError):
    """Bad input data or configuration (CLI exit code 2)."""


class BadWeights(ValidationError):
    """Generator weights are nonpositive or not inverse-symmetric."""


class NotAGroup(ValidationError):
    """A multiplication table fails the group axioms."""


class BallTooLarge(ValidationError):
    """Word-metric ball exceeded the configured element cap."""


class ZeroFunctional(PgapError):
    """Norming vector requested for the zero functional."""


class SupportViolation(PgapError):
    """Vector has mass outside the admissible support of a truncated domain."""


class InfiniteGroup(PgapError):
    """Operation requires a finite group but the ball does not close."""


class AtFixedPoint(PgapError):
    """Closed-form gradient requested where the displacement energy vanishes."""


class NonsmoothPoint(PgapError):
    """Some generator displacement vanishes; closed-form derivative invalid."""


class FixedVectorPresent(PgapError):
    """Optimization domain contains an invariant vector (exit code 3)."""


class ZeroDomain(PgapError):
    """Optimization domain holds only the zero vector (exit code 3)."""


class BadEpsilon(ValidationError):
    """Modulus-of-convexity argument outside (0, 2]."""


def read_text(path, what: str) -> str:
    """The text of the file `what` at `path`."""
    if not isinstance(path, (str, os.PathLike)):
        raise ValidationError(f"{what} must be a path, not {path!r}")
    try:
        with open(path) as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise ValidationError(f"cannot read {what} {str(path)!r}: {reason}") from None


def read_json_object(path, what: str) -> dict:
    """The JSON object in the file `what` at `path`."""
    try:
        data = json.loads(read_text(path, what))
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{what} {str(path)!r} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ValidationError(f"{what} {str(path)!r} must hold a JSON object, not {data!r}")
    return data


def integer(value, name: str, low=-math.inf, high=math.inf) -> int:
    """`value` as an int in [low, high].  An int, an integral float or the
    text of an integer is one; a bool is not."""
    try:
        if isinstance(value, bool):
            raise TypeError
        n = int(value)
        if not isinstance(value, str) and n != value:
            raise ValueError
    except (TypeError, ValueError, OverflowError):  # int(inf) overflows
        raise ValidationError(f"{name} must be an integer, not {value!r}") from None
    if not low <= n <= high:
        raise ValidationError(f"{name} must lie in [{low}, {high}], not {n}")
    return n


def number(value, name: str, low=-math.inf, high=math.inf, *, closed=False) -> float:
    """`value` as a float in the open interval (low, high), or in [low, high]
    when `closed`; NaN lies in neither.  float() reads the text of a number,
    "inf" and "infinity" in any case included; a bool is not a number."""
    try:
        if isinstance(value, bool):
            raise TypeError
        x = float(value)
    except (TypeError, ValueError, OverflowError):
        raise ValidationError(f"{name} must be a number, not {value!r}") from None
    if not (low <= x <= high if closed else low < x < high):
        brackets = "[]" if closed else "()"
        raise ValidationError(f"{name} must lie in {brackets[0]}{low:g}, {high:g}{brackets[1]}, not {x!r}")
    return x
