"""A byte-identity gate on printed geometry: the str() of every member of
construct(p), over a fixed set of points, hashed into one digest.

The points are the nonzero integer points of {-4..4}^3, the sqrt(2) point of
the special configuration, and points over Q(sqrt(2)) and Q(sqrt(1610924047))
whose coordinates have negative irrational parts.  A point whose
construction fails contributes the name of its exception instead."""

import hashlib
import re
import sys
from contextlib import contextmanager
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from cevian.conics import Conic
from cevian.constructions import construct, special_configuration_point
from cevian.projective import AffineMap, GeometryError, HomogeneousMatrix, HomogeneousTriple, Line, Point
from cevian.scalar import Scalar, format_number

SQRT = 1610924047
PRINTING_DIGEST = "a79515f5464f6038657b3c5da3668b77ed358915fd1cc462d096257e5aa33b89"


def field_points():
    points = [special_configuration_point()]
    for d in (2, SQRT):
        points += [
            Point(1, Scalar(2, -1, d), Scalar(-3, -2, d)),
            Point(Scalar(0, -1, d), 3, Scalar(5, -7, d)),
            Point(Scalar(4, -1, d), Scalar(-1, 2, d), Scalar(0, -5, d)),
            Point(Scalar(-2, -3, d), Scalar(1, -1, d), 7),
            Point(Scalar(1, -4, d), -5, Scalar(3, 1, d)),
        ]
    return points


def printed(p: Point) -> str:
    try:
        cs = construct(p)
    except GeometryError as exc:
        return f"{p} {type(exc).__name__}"
    return "\n".join(f"{name}={value}" for name, value in sorted(vars(cs).items()))


def test_printing_digest():
    grid = [Point(*v) for v in product(range(-4, 5), repeat=3) if any(v)]
    assert len(grid) == 728
    digest = hashlib.sha256()
    for p in grid + field_points():
        digest.update(printed(p).encode() + b"\n\n")
    assert digest.hexdigest() == PRINTING_DIGEST


@contextmanager
def str_limit(digits):
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(digits)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


def general_str(obj):
    """str() through format_number, entry by entry: the body of every d."""
    d = obj.d
    if isinstance(obj, HomogeneousTriple):
        inner = " : ".join(format_number(a, b, d) for a, b in obj.ints)
        return obj.BRACKETS[0] + inner + obj.BRACKETS[1]
    return "[" + ", ".join(
        "[" + ", ".join(format_number(a, b, d) for a, b in row) + "]" for row in obj.ints
    ) + "]"


# an int of 1 to 5000 digits, of either sign, or 0
_DIGITS = st.integers(1, 5000).flatmap(lambda k: st.integers(10 ** (k - 1), 10**k - 1))
_ENTRY = st.one_of(st.just(0), _DIGITS, _DIGITS.map(lambda n: -n))


@st.composite
def rational_objects(draw):
    """A Point, Line, Conic or AffineMap at d = 1 with entries of up to
    5000 digits."""
    kind = draw(st.sampled_from([Point, Line, Conic, AffineMap]))
    if kind in (Point, Line):
        v = draw(st.lists(_ENTRY, min_size=3, max_size=3).filter(any))
        return kind.from_ints(1, [(x, 0) for x in v])
    if kind is Conic:
        a, b, c, f, g, h = draw(st.lists(_ENTRY, min_size=6, max_size=6).filter(any))
        rows = [[a, h, g], [h, b, f], [g, f, c]]
    else:  # two free rows, and a third that makes every column sum s
        r0, r1 = (draw(st.lists(_ENTRY, min_size=3, max_size=3)) for _ in range(2))
        s = draw(_ENTRY.filter(bool))
        rows = [r0, r1, [s - x - y for x, y in zip(r0, r1)]]
    return kind.from_ints(1, [[(x, 0) for x in row] for row in rows])


@given(rational_objects())
@settings(max_examples=200, deadline=None)
def test_rational_printing_is_the_general_printing(obj):
    """At d = 1 a point, line, conic or map prints with one % format of its
    ints, and that is what format_number gives entry by entry, for entries
    of 1 to 5000 digits."""
    with str_limit(0):
        assert obj.d == 1
        assert str(obj) == general_str(obj)


def test_rational_printing_past_the_str_limit_raises_as_str_does():
    """An entry of over 4300 digits, past the default str limit, raises
    the ValueError of str() of that int from str() of a point and of a
    matrix: the CLI reports it as a --triangle that is too large."""
    big = 10**4300 + 1
    with str_limit(4300):
        with pytest.raises(ValueError) as expected:
            str(big)
        message = re.escape(str(expected.value))
        with pytest.raises(ValueError, match=message):
            str(Point.from_ints(1, [(big, 0), (1, 0), (-2, 0)]))
        with pytest.raises(ValueError, match=message):
            str(HomogeneousMatrix.from_ints(1, [[(1, 0), (big, 0), (0, 0)], [(0, 0)] * 3, [(0, 0)] * 3]))
