"""Exact rational arithmetic for media timing.

Media time must be exact: NTSC video runs at 30000/1001 frames per second
and rounding to 29.97 accumulates visible drift within minutes. The model
therefore measures all continuous time values as rationals.

:class:`Rational` is a thin subclass of :class:`fractions.Fraction` that

* keeps arithmetic closed over ``Rational`` (Fraction arithmetic returns
  plain ``Fraction``; we re-type results so helper methods stay
  available),
* refuses inexact ``float`` construction unless explicitly requested via
  :meth:`Rational.from_float`, because silently rationalizing binary
  floats is the classic source of timing drift bugs, and
* adds media-oriented helpers (``to_seconds``, ``to_timestamp``).

Arithmetic (``+ - * /`` and the rest) is ``Fraction``'s, re-typed.
The constructor (from ints, or from a rational already in lowest
terms), the comparisons and ``float()`` keep fast paths on the two
slots, because the program builds and compares times far more often
than it computes with them. ``==`` and the orderings compare a finite
``float`` by its exact value, as ``Fraction`` does, because
``Fraction``'s own comparison would round the float through
:meth:`Rational.from_float`.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import gcd, isfinite
from typing import Union

from repro.errors import RationalConversionError

RationalLike = Union["Rational", Fraction, int, str, tuple]

_new = object.__new__


def _normalized(numerator: int, denominator: int, cls) -> "Rational":
    """A ``cls`` from a pair already in lowest terms with a positive
    denominator — the invariant the constructor's fast path keeps."""
    value = _new(cls)
    value._numerator = numerator
    value._denominator = denominator
    return value


def _closed(value):
    """Re-type a plain ``Fraction`` result, or one inside a ``divmod``
    pair, as ``Rational``; pass every other value through."""
    if isinstance(value, tuple):
        return tuple(map(_closed, value))
    if isinstance(value, Fraction) and not isinstance(value, Rational):
        return Rational(value)
    return value


def _comparison(op, fallback):
    """An ordering operator, fast on exact ``int``/``Fraction``/
    ``Rational`` operands and exact against a finite ``float``, through
    ``Fraction`` otherwise."""

    def compare(a, b):
        kind = type(b)
        if kind is int:
            return op(a._numerator, a._denominator * b)
        if kind is Rational or kind is Fraction:
            return op(a._numerator * b._denominator,
                      a._denominator * b._numerator)
        if isinstance(b, float) and isfinite(b):
            numerator, denominator = b.as_integer_ratio()
            return op(a._numerator * denominator, a._denominator * numerator)
        return fallback(a, b)

    compare.__name__ = fallback.__name__
    return compare


def _closed_operator(fallback):
    """``fallback`` with a plain ``Fraction`` result re-typed."""

    def method(*args):
        return _closed(fallback(*args))

    method.__name__ = fallback.__name__
    return method


class Rational(Fraction):
    """An exact rational number used for continuous time values.

    Examples
    --------
    >>> Rational(30000, 1001) * Rational(1001, 30000)
    Rational(1, 1)
    >>> Rational("29.97")
    Rational(2997, 100)
    """

    __slots__ = ()

    def __new__(cls, numerator: RationalLike = 0, denominator: int | None = None):
        kind = type(numerator)
        if denominator is None:
            if kind is int:
                return _normalized(numerator, 1, cls)
            if kind is Rational or kind is Fraction:
                return _normalized(numerator._numerator,
                                   numerator._denominator, cls)
        elif kind is int and type(denominator) is int and denominator:
            g = gcd(numerator, denominator)
            if denominator < 0:
                g = -g
            return _normalized(numerator // g, denominator // g, cls)
        if isinstance(numerator, float) or isinstance(denominator, float):
            raise RationalConversionError(
                "refusing to construct Rational from float; "
                "use Rational.from_float() if the rounding is intended"
            )
        if isinstance(numerator, tuple):
            if denominator is not None:
                raise RationalConversionError(
                    "cannot pass denominator with tuple numerator"
                )
            numerator, denominator = numerator
        return super().__new__(cls, numerator, denominator)

    @classmethod
    def from_float(cls, value: float) -> "Rational":
        """Construct from a float, limiting the denominator sensibly.

        The denominator is limited to 10**9 which is ample for any media
        rate while avoiding the pathological exact binary expansions of
        ``Fraction(float)``.
        """
        return cls(Fraction(value).limit_denominator(10**9))

    # -- closure of arithmetic over Rational ---------------------------------

    __add__ = _closed_operator(Fraction.__add__)
    __radd__ = _closed_operator(Fraction.__radd__)
    __sub__ = _closed_operator(Fraction.__sub__)
    __rsub__ = _closed_operator(Fraction.__rsub__)
    __mul__ = _closed_operator(Fraction.__mul__)
    __rmul__ = _closed_operator(Fraction.__rmul__)
    __truediv__ = _closed_operator(Fraction.__truediv__)
    __rtruediv__ = _closed_operator(Fraction.__rtruediv__)
    __mod__ = _closed_operator(Fraction.__mod__)
    __rmod__ = _closed_operator(Fraction.__rmod__)
    __divmod__ = _closed_operator(Fraction.__divmod__)
    __rdivmod__ = _closed_operator(Fraction.__rdivmod__)
    __pow__ = _closed_operator(Fraction.__pow__)
    __round__ = _closed_operator(Fraction.__round__)
    __neg__ = _closed_operator(Fraction.__neg__)
    __pos__ = _closed_operator(Fraction.__pos__)
    __abs__ = _closed_operator(Fraction.__abs__)

    # -- comparison and conversion ---------------------------------------------

    def __eq__(self, other):
        kind = type(other)
        if kind is int:
            return self._numerator == other and self._denominator == 1
        if kind is Rational or kind is Fraction:
            return (self._numerator == other._numerator
                    and self._denominator == other._denominator)
        if isinstance(other, complex) and not other.imag:
            other = other.real
        if isinstance(other, float) and isfinite(other):
            # The float's exact value, as Fraction compares it: Fraction's
            # own __eq__ would round it through our from_float.
            return (self._numerator, self._denominator) == \
                other.as_integer_ratio()
        return Fraction.__eq__(self, other)

    # Defining __eq__ would otherwise set __hash__ to None.
    __hash__ = Fraction.__hash__

    __lt__ = _comparison(operator.lt, Fraction.__lt__)
    __le__ = _comparison(operator.le, Fraction.__le__)
    __gt__ = _comparison(operator.gt, Fraction.__gt__)
    __ge__ = _comparison(operator.ge, Fraction.__ge__)

    def __float__(self):
        # int() as numbers.Rational.__float__ does: Fraction keeps a NumPy
        # integer it was built from, and float() must return a float.
        return int(self._numerator) / int(self._denominator)

    # -- media helpers --------------------------------------------------------

    def to_seconds(self) -> float:
        """Return the value as float seconds (for display only)."""
        return self.numerator / self.denominator

    def to_timestamp(self) -> str:
        """Render as ``H:MM:SS.mmm`` (or ``M:SS.mmm`` under an hour).

        >>> Rational(130).to_timestamp()
        '2:10.000'
        """
        total_ms = round(self * 1000)
        sign = "-" if total_ms < 0 else ""
        total_ms = abs(total_ms)
        ms = total_ms % 1000
        total_s = total_ms // 1000
        seconds = total_s % 60
        minutes = (total_s // 60) % 60
        hours = total_s // 3600
        if hours:
            return f"{sign}{hours}:{minutes:02d}:{seconds:02d}.{ms:03d}"
        return f"{sign}{minutes}:{seconds:02d}.{ms:03d}"

    def __repr__(self) -> str:
        return f"Rational({self.numerator}, {self.denominator})"


#: Zero as a Rational, shared to avoid repeated construction.
ZERO = Rational(0)

#: One as a Rational.
ONE = Rational(1)


def as_rational(value: RationalLike | float) -> Rational:
    """Coerce ``value`` to :class:`Rational`.

    Unlike the constructor this accepts floats (via
    :meth:`Rational.from_float`) because it is the explicit conversion
    point for user-facing APIs.
    """
    if isinstance(value, Rational):
        return value
    if isinstance(value, float):
        return Rational.from_float(value)
    return Rational(value)
