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

Every simulated clock value is a ``Rational``, so its operators are on
the hot path of serving. When the other operand's exact type is
``Rational``, ``Fraction`` or ``int``, the operators below do the
stdlib's gcd-reduced arithmetic (Knuth, TAOCP vol. 2, 4.5.1) on the two
slots and build the result once, already in lowest terms with a
positive denominator, without re-validating it. Every other operand
type (``bool``, ``float``, ``complex``, other ``numbers.Rational``)
goes through :class:`fractions.Fraction`, whose result is re-typed.
Comparisons with a finite ``float`` are the exception: they use the
float's exact value, as ``Fraction`` does, because ``Fraction``'s own
comparison would round the float through :meth:`Rational.from_float`.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import gcd, isfinite
from typing import Union

from repro.errors import RationalConversionError

RationalLike = Union["Rational", Fraction, int, str, tuple]

_new = object.__new__


def _normalized(numerator: int, denominator: int, cls=None) -> "Rational":
    """A ``Rational`` (or ``cls``) from a pair already in lowest terms
    with a positive denominator — the invariant every fast path keeps."""
    value = _new(Rational if cls is None else cls)
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


# Pair arithmetic on normalized (numerator, denominator) slots, as in
# fractions.Fraction: reducing by the gcds first keeps the products small
# and leaves the result in lowest terms.


def _add(na, da, nb, db):
    g = gcd(da, db)
    if g == 1:
        return _normalized(na * db + da * nb, da * db)
    s = da // g
    t = na * (db // g) + nb * s
    g2 = gcd(t, g)
    if g2 == 1:
        return _normalized(t, s * db)
    return _normalized(t // g2, s * (db // g2))


def _sub(na, da, nb, db):
    return _add(na, da, -nb, db)


def _mul(na, da, nb, db):
    g1 = gcd(na, db)
    if g1 > 1:
        na //= g1
        db //= g1
    g2 = gcd(nb, da)
    if g2 > 1:
        nb //= g2
        da //= g2
    return _normalized(na * nb, db * da)


def _div(na, da, nb, db):
    if not nb:
        # Let fractions.Fraction raise its ZeroDivisionError.
        return Fraction(na, da) / nb
    g1 = gcd(na, nb)
    if g1 > 1:
        na //= g1
        nb //= g1
    g2 = gcd(db, da)
    if g2 > 1:
        da //= g2
        db //= g2
    n, d = na * db, nb * da
    if d < 0:
        return _normalized(-n, -d)
    return _normalized(n, d)


def _operators(pair_op, forward_fallback, reverse_fallback):
    """``__op__`` and ``__rop__`` for one of the pair operations above:
    fast on exact ``int``/``Fraction``/``Rational`` operands, through
    ``Fraction`` otherwise."""

    def forward(a, b):
        kind = type(b)
        if kind is int:
            return pair_op(a._numerator, a._denominator, b, 1)
        if kind is Rational or kind is Fraction:
            return pair_op(a._numerator, a._denominator,
                           b._numerator, b._denominator)
        return _closed(forward_fallback(a, b))

    def reverse(b, a):
        kind = type(a)
        if kind is int:
            return pair_op(a, 1, b._numerator, b._denominator)
        if kind is Rational or kind is Fraction:
            return pair_op(a._numerator, a._denominator,
                           b._numerator, b._denominator)
        return _closed(reverse_fallback(b, a))

    forward.__name__ = forward_fallback.__name__
    reverse.__name__ = reverse_fallback.__name__
    return forward, reverse


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

    __add__, __radd__ = _operators(_add, Fraction.__add__, Fraction.__radd__)
    __sub__, __rsub__ = _operators(_sub, Fraction.__sub__, Fraction.__rsub__)
    __mul__, __rmul__ = _operators(_mul, Fraction.__mul__, Fraction.__rmul__)
    __truediv__, __rtruediv__ = _operators(
        _div, Fraction.__truediv__, Fraction.__rtruediv__)

    __mod__ = _closed_operator(Fraction.__mod__)
    __rmod__ = _closed_operator(Fraction.__rmod__)
    __divmod__ = _closed_operator(Fraction.__divmod__)
    __rdivmod__ = _closed_operator(Fraction.__rdivmod__)
    __pow__ = _closed_operator(Fraction.__pow__)
    __round__ = _closed_operator(Fraction.__round__)

    def __neg__(self):
        return _normalized(-self._numerator, self._denominator)

    def __pos__(self):
        return _normalized(self._numerator, self._denominator)

    def __abs__(self):
        return _normalized(abs(self._numerator), self._denominator)

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
