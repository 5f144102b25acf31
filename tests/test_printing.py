"""A byte-identity gate on printed geometry: the str() of every member of
construct(p), over a fixed set of points, hashed into one digest.

The points are the nonzero integer points of {-4..4}^3, the sqrt(2) point of
the special configuration, and points over Q(sqrt(2)) and Q(sqrt(1610924047))
whose coordinates have negative irrational parts.  A point whose
construction fails contributes the name of its exception instead."""

import hashlib
from itertools import product

from cevian.constructions import construct, special_configuration_point
from cevian.projective import GeometryError, Point
from cevian.scalar import Scalar

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
