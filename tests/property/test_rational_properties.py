"""Property tests: :class:`Rational` against :class:`fractions.Fraction`.

``Rational`` computes with ``int``, ``Fraction`` and ``Rational``
operands itself and hands every other operand to ``Fraction``. Either
way, each overridden operator, with ``Rational`` on either side, must
give what ``Fraction`` gives for the same values:

* the same value, or the same exception type;
* a ``Rational`` wherever ``Fraction`` gives a ``Fraction``, and
  otherwise the same type;
* a normalized result (``gcd(n, d) == 1``, ``d > 0``) whose hash equals
  the hash of the equal ``Fraction``.
"""

import math
import operator
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.rational import Rational
from repro.errors import RationalConversionError

SPECIAL_FLOATS = [0.0, -0.0, 0.1, -2.5, 1 / 3, 1e300,
                  math.inf, -math.inf, math.nan]

fractions = st.one_of(
    st.sampled_from([Fraction(0), Fraction(-1, 3), Fraction(7, 2)]),
    st.fractions(max_denominator=10**6),
)
rationals = fractions.map(Rational)
integers = st.one_of(st.sampled_from([0, 1, -1]), st.integers())
floats = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats())
operands = st.one_of(rationals, fractions, integers, st.booleans(), floats)

ARITHMETIC = [operator.add, operator.sub, operator.mul, operator.truediv,
              operator.mod, divmod]
COMPARISONS = [operator.eq, operator.ne, operator.lt, operator.le,
               operator.gt, operator.ge]


def as_fraction(value):
    """The plain-``Fraction`` counterpart of an operand."""
    return Fraction(value) if isinstance(value, Fraction) else value


def outcome(call):
    """``(result, None)`` or ``(None, exception type)``."""
    try:
        return call(), None
    except Exception as exc:  # the exception's type is the outcome
        return None, type(exc)


def assert_same(actual, expected):
    if type(expected) is tuple:
        assert type(actual) is tuple and len(actual) == len(expected)
        for got, want in zip(actual, expected):
            assert_same(got, want)
        return
    if type(expected) is Fraction:
        assert type(actual) is Rational
        n, d = actual.numerator, actual.denominator
        assert (n, d) == (expected.numerator, expected.denominator)
        assert d > 0 and math.gcd(n, d) == 1
        assert hash(actual) == hash(expected)
        return
    assert type(actual) is type(expected)
    if isinstance(expected, (float, complex)):
        assert repr(actual) == repr(expected)
    else:
        assert actual == expected


def check(actual_call, expected_call):
    actual, actual_error = outcome(actual_call)
    expected, expected_error = outcome(expected_call)
    assert actual_error is expected_error
    if expected_error is None:
        assert_same(actual, expected)


@settings(max_examples=300)
@given(r=rationals, other=operands, op=st.sampled_from(ARITHMETIC))
def test_arithmetic_matches_fraction(r, other, op):
    check(lambda: op(r, other), lambda: op(Fraction(r), as_fraction(other)))
    check(lambda: op(other, r), lambda: op(as_fraction(other), Fraction(r)))


@settings(max_examples=300)
@given(r=rationals, other=operands, op=st.sampled_from(COMPARISONS))
def test_comparisons_match_fraction(r, other, op):
    check(lambda: op(r, other), lambda: op(Fraction(r), as_fraction(other)))
    check(lambda: op(other, r), lambda: op(as_fraction(other), Fraction(r)))


small_exponents = st.one_of(
    st.integers(-6, 6),
    st.builds(Rational, st.integers(-12, 12), st.integers(1, 6)),
    st.builds(Fraction, st.integers(-12, 12), st.integers(1, 6)),
    st.sampled_from(SPECIAL_FLOATS),
)


@given(r=rationals, exponent=small_exponents)
def test_power_matches_fraction(r, exponent):
    check(lambda: r ** exponent,
          lambda: Fraction(r) ** as_fraction(exponent))


@given(r=rationals, ndigits=st.one_of(st.none(), st.integers(-4, 4)))
def test_round_matches_fraction(r, ndigits):
    check(lambda: round(r, ndigits), lambda: round(Fraction(r), ndigits))


@given(r=rationals, op=st.sampled_from([operator.neg, operator.pos, abs]))
def test_unary_matches_fraction(r, op):
    check(lambda: op(r), lambda: op(Fraction(r)))


@given(r=rationals)
def test_float_and_hash_match_fraction(r):
    check(lambda: float(r), lambda: float(Fraction(r)))
    assert hash(r) == hash(Fraction(r))
    assert r in {Fraction(r)} and Fraction(r) in {r}


@given(numerator=integers, denominator=st.one_of(st.none(), integers))
def test_construction_from_ints(numerator, denominator):
    check(lambda: Rational(numerator, denominator),
          lambda: Fraction(numerator, denominator))


@given(value=st.one_of(
    rationals, fractions, st.booleans(),
    fractions.map(str), integers.map(str),
))
def test_construction_from_one_value(value):
    check(lambda: Rational(value), lambda: Fraction(value))


@given(value=floats, numerator=integers)
def test_float_construction_refused(value, numerator):
    for call in (lambda: Rational(value), lambda: Rational(numerator, value)):
        _, error = outcome(call)
        assert error is RationalConversionError
