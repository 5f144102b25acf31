"""The reference path of the kernel's raw-vector helpers.

`parallel_through`, `perspector` and `InfinityInvolution` compute on raw
integer vectors and canonicalize only what they return.  Before, each was a
composition of canonical objects: a direction as a point at infinity, joins
and polars as lines, and a common point found among them.  Those
compositions, and the two helpers no program path calls any more, live
here, with the tests that hold the raw-vector helpers to them: the same
object, or the same error with the same message.
"""

from typing import Optional, Sequence

from cevian.conics import Conic, NotIncident, SelfConjugate
from cevian.projective import (
    CoincidentArguments,
    InfiniteInput,
    LINE_AT_INFINITY,
    Line,
    Point,
    incident,
    join,
    meet,
)


def direction_of(l: Line) -> Point:
    """The point at infinity of an ordinary line."""
    if l.is_line_at_infinity():
        raise InfiniteInput("the line at infinity has no single direction")
    return meet(l, LINE_AT_INFINITY)


def common_point(lines: Sequence[Line]) -> Optional[Point]:
    """The point all the lines pass through, or None when they do not
    concur.  Raises CoincidentArguments when the lines are all one line,
    since then every point of it is common."""
    first = lines[0]
    other = next((l for l in lines[1:] if l != first), None)
    if other is None:
        raise CoincidentArguments(f"the lines all coincide with {first}")
    candidate = meet(first, other)
    if all(incident(candidate, l) for l in lines):
        return candidate
    return None


def composed_parallel_through(p: Point, l: Line) -> Line:
    """The join of p with the direction of l."""
    d = direction_of(l)
    if p == d:
        raise CoincidentArguments("point is the direction itself")
    return join(p, d)


def composed_perspector(tri1, tri2) -> Optional[Point]:
    """The common point of the three joins, None when there is none or when
    the joins are all one line."""
    lines = [join(a, b) for a, b in zip(tri1, tri2)]
    try:
        return common_point(lines)
    except CoincidentArguments:
        return None


def composed_involution(conic: Conic, x: Point) -> Point:
    """The meet of the polar of x in the conic with the line at infinity,
    for x at infinity and not on the conic."""
    if not x.is_infinite():
        raise NotIncident(f"{x} is not at infinity")
    if conic.contains(x):
        raise SelfConjugate(f"{x} is an asymptotic direction")
    return meet(conic.polar(x), LINE_AT_INFINITY)
