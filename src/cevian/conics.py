"""Exact conics: construction, polarity, tangency, and line intersection.

A conic is a symmetric 3x3 matrix up to scale, held like a map as a
canonical integer vector over Z[sqrt(d)]; a point X lies on it iff
X^T C X = 0.  Degenerate conics (line pairs) are representable and
flagged, but polarity-based operations reject them explicitly.  The
conics of a driving point p = (u : v : w) are read off their classical
barycentric equations: the inconic with perspector p and the circumconic
that is the isotomic image of a line.  The nine-point conic of any
quadrangle, the checks' second path, is read off its pencil as the locus of
the poles of the line at infinity.  The conic through five points is the one
conic solved, as the exact null space of its incidence system.
"""

from __future__ import annotations

from functools import reduce
from itertools import combinations
from typing import Optional, Sequence, Union

from .scalar import (
    NoRealRoots,
    Pair,
    Record,
    _ZERO,
    combine,
    join_d,
    quadratic_roots,
    zmul,
    zscale,
    zsign,
    zsub,
    zsum,
)
from .projective import (
    AffineMap,
    GeometryError,
    HomogeneousMatrix,
    LINE_AT_INFINITY,
    Line,
    Point,
    Vector,
    SIDELINES,
    VERTEX_A,
    VERTEX_B,
    VERTEX_C,
    VERTICES,
    adjugate3,
    are_collinear,
    cross,
    dot,
    incident,
    isotomic_ints,
    mat_mul,
    mat_vec,
    null_space,
    perspector,
    transpose,
)


class RankDeficient(GeometryError):
    """The incidence system admits infinitely many conics."""


class DegenerateConic(GeometryError):
    pass


class NotPerspective(GeometryError):
    pass


class NotIncident(GeometryError):
    pass


class SelfConjugate(GeometryError):
    pass


class DegenerateQuadrangle(GeometryError):
    pass


class Conic(HomogeneousMatrix):
    """Symmetric matrix conic; equality up to nonzero scale."""

    __slots__ = ()

    def _validate(self, rows: Sequence[Sequence[Pair]]) -> None:
        for i in range(3):
            for j in range(i):
                if rows[i][j] != rows[j][i]:
                    raise ValueError("conic matrix must be symmetric")

    def _form(self, p: Point, d: int) -> Pair:
        return dot(p.ints, mat_vec(self.ints, p.ints, d), d)

    def contains(self, p: Point) -> bool:
        return self._form(p, join_d(self.d, p.d)) == _ZERO

    def polar(self, p: Point) -> Line:
        d = join_d(self.d, p.d)
        coeffs = mat_vec(self.ints, p.ints, d)
        if all(x == _ZERO for x in coeffs):
            raise DegenerateConic(f"{p} is a singular point; polar undefined")
        return Line.from_ints(d, coeffs)

    def tangent_at(self, p: Point) -> Line:
        if not self.contains(p):
            raise NotIncident(f"{p} is not on the conic")
        return self.polar(p)

    def pole(self, l: Line) -> Point:
        if self.is_degenerate():
            raise DegenerateConic("pole needs a nondegenerate conic")
        d = join_d(self.d, l.d)
        return Point.from_ints(d, mat_vec(adjugate3(self.ints, self.d), l.ints, d))

    def center(self) -> Point:
        """Pole of the line at infinity; infinite exactly for parabolas."""
        return self.pole(LINE_AT_INFINITY)


# ---------------------------------------------------------------------------
# constructions


def conic_row(p: Point) -> Vector:
    """The incidence condition of p on the conic with coefficient vector
    (a, b, c, d, e, f), matrix ((a, d, e), (d, b, f), (e, f, c))."""
    (x, y, z), d = p.ints, p.d
    return (
        zmul(x, x, d), zmul(y, y, d), zmul(z, z, d),
        zscale(2, zmul(x, y, d)), zscale(2, zmul(x, z, d)), zscale(2, zmul(y, z, d)),
    )


_CONIC_ENTRIES = ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))  # the order of conic_row


def conic_from_vector(d: int, v: Sequence[Pair]) -> Conic:
    """The conic with coefficient vector v over Z[sqrt(d)], as in conic_row."""
    xx, yy, zz, xy, xz, yz = v
    return Conic.from_ints(d, ((xx, xy, xz), (xy, yy, yz), (xz, yz, zz)))


def conic_through_five(points: Sequence[Point]) -> Conic:
    """The unique conic on five points; degenerate (three collinear) conics
    are returned flagged, but four collinear points or duplicates leave a
    whole pencil and raise RankDeficient."""
    if len(points) != 5:
        raise ValueError("exactly five points required")
    for p, q in combinations(points, 2):
        if p == q:
            raise RankDeficient(f"duplicate point {p}")
    d = reduce(join_d, [p.d for p in points], 1)
    basis = null_space(d, [conic_row(p) for p in points])
    if len(basis) != 1:
        raise RankDeficient("five points do not determine a unique conic")
    return conic_from_vector(d, basis[0])


_OPPOSITE_VERTICES = ((VERTEX_B, VERTEX_C), (VERTEX_C, VERTEX_A), (VERTEX_A, VERTEX_B))


def inconic_with_contacts(d: Point, e: Point, f: Point) -> Conic:
    """The conic tangent to the sidelines at three cevian traces.

    The contacts must be the traces of a single point p = (u : v : w)
    (checked first); the conic is then the inconic with perspector p,
    sum(v^2 w^2 x^2 - 2 u^2 v w yz) = 0.
    """
    contacts = (d, e, f)
    for contact, side, (v1, v2) in zip(contacts, SIDELINES, _OPPOSITE_VERTICES):
        if not incident(contact, side):
            raise NotIncident(f"{contact} is not on {side}")
        if contact == v1 or contact == v2:
            raise NotPerspective(f"contact {contact} is a vertex")
    p = perspector(VERTICES, contacts)
    if p is None:
        raise NotPerspective("contacts are not the cevian traces of one point")
    return inconic_from_isotomic(isotomic_ints(p.ints, p.d), p.d)


def inconic_from_isotomic(a: Sequence[Pair], d: int) -> Conic:
    """The inconic whose perspector is the isotomic conjugate of
    (a_0 : a_1 : a_2) off the sidelines, read off in closed form: the matrix
    with entries a_k a_j on the diagonal and -a_k a_j off it, each product
    computed once: off the diagonal at (k, j) it is minus the isotomic
    product's entry l, l the index other than k and j."""
    off = [zscale(-1, x) for x in isotomic_ints(a, d)]
    return Conic.from_ints(d, [
        [zmul(a[k], a[k], d) if k == j else off[3 - k - j] for j in range(3)] for k in range(3)
    ])


def nine_point_conic(quadrangle: Sequence[Point]) -> Conic:
    """The nine-point conic of a quadrangle with respect to the line at
    infinity: through the three diagonal points and the six side midpoints.

    With exactly one infinite vertex the midpoints of the sides through it
    degenerate to that vertex itself (the harmonic conjugate of the vertex
    with respect to the side's endpoints), and the conic passes through it.

    Read off the pencil of conics through P0..P3, which the line pairs
    C1 = l01.l23 and C2 = l02.l13 span (lij = Pi x Pj): the conic is the
    locus of the poles of e = [1 : 1 : 1] over the pencil, the points x with
    det[C1 x, C2 x, e] = 0.  That determinant expands into
    (l23.x)(m23.x) + (l01.x)(m01.x), where m23 = k1 l13 + k2 l02 and
    m01 = k3 l13 + k4 l02 with k1 = (l01 x l02).e, k2 = (l01 x l13).e,
    k3 = (l23 x l02).e and k4 = (l23 x l13).e.
    """
    if len(quadrangle) != 4:
        raise ValueError("exactly four points required")
    infinite = [p for p in quadrangle if p.is_infinite()]
    if len(infinite) > 1:
        raise DegenerateQuadrangle("at most one vertex may be infinite")
    for trio in combinations(quadrangle, 3):
        if are_collinear(*trio):
            raise DegenerateQuadrangle(f"collinear vertices {trio}")
    d = reduce(join_d, [p.d for p in quadrangle], 1)
    p0, p1, p2, p3 = (p.ints for p in quadrangle)
    l01, l23, l02, l13 = cross(p0, p1, d), cross(p2, p3, d), cross(p0, p2, d), cross(p1, p3, d)
    k1, k2, k3, k4 = (
        zsum(cross(a, b, d)) for a, b in ((l01, l02), (l01, l13), (l23, l02), (l23, l13))
    )
    m23, m01 = combine(k1, l13, k2, l02, d), combine(k3, l13, k4, l02, d)
    vector = [
        zsum((
            zmul(l23[i], m23[j], d), zmul(m23[i], l23[j], d),
            zmul(l01[i], m01[j], d), zmul(m01[i], l01[j], d),
        ))
        for i, j in _CONIC_ENTRIES
    ]
    if all(x == _ZERO for x in vector):
        raise DegenerateQuadrangle("nine-point system is rank-deficient")
    return conic_from_vector(d, vector)


def second_intersection(l: Line, conic: Conic, known: Point) -> Point:
    """The residual intersection of a line with a conic through a known
    point of both; equals the known point exactly when l is tangent there.
    Rational in the working field because one root is already known."""
    x, y, d, a, b, c = _restriction(l, conic, known)
    if a != _ZERO or not incident(known, l):
        raise NotIncident(f"{known} must lie on both the line and the conic")
    return _residual(x, y, c, b, d)


def _residual(known: Point, other: Point, u: Pair, v: Pair, d: int) -> Point:
    """The second meet of the line through known and other with a conic C
    through known, given u = other.C.other and v = known.C.other: on
    s*known + other the quadratic is 2*v*s + u, with root s = -u / (2*v)."""
    coords = combine(u, known.ints, zscale(-2, v), other.ints, d)
    if all(x == _ZERO for x in coords):  # pragma: no cover
        raise DegenerateConic("line lies on the conic")
    return Point.from_ints(d, coords)


def _points_on_line(l: Line) -> list[Point]:
    """The meets of l with the sidelines: always two or three distinct points."""
    a, b, c = l.ints
    candidates = ((_ZERO, c, zscale(-1, b)), (zscale(-1, c), _ZERO, a), (b, zscale(-1, a), _ZERO))
    points = []
    for cand in candidates:
        if all(x == _ZERO for x in cand):
            continue
        p = Point.from_ints(l.d, cand)
        if p not in points:
            points.append(p)
    return points


class TwoPoints(Record):
    __slots__ = _fields = ("p1", "p2")


class TangentAt(Record):
    __slots__ = _fields = ("p",)


class NoRealIntersection(Record):
    __slots__ = ()


LineConicResult = Union[TwoPoints, TangentAt, NoRealIntersection]


def _restriction(
    l: Line, conic: Conic, known: Optional[Point] = None
) -> tuple[Point, Point, int, Pair, Pair, Pair]:
    """(x, y, d, a, b, c): two points of l, x the known point when one is
    given (it is not checked to lie on l), and the conic's form on t*x + y
    as a*t^2 + 2*b*t + c over Z[sqrt(d)].  d joins the known point's field:
    a point over Q(sqrt(d)) can lie on a rational line."""
    if conic.is_degenerate():
        raise DegenerateConic("intersection needs a nondegenerate conic")
    points = _points_on_line(l)
    d = join_d(conic.d, l.d)
    if known is None:
        x, y = points[:2]
    else:
        x, y = known, next(p for p in points if p != known)
        d = join_d(d, known.d)
    cy = mat_vec(conic.ints, y.ints, d)
    return x, y, d, conic._form(x, d), dot(x.ints, cy, d), dot(y.ints, cy, d)


def line_conic_intersections(l: Line, conic: Conic) -> LineConicResult:
    """All intersections of a line with a nondegenerate conic.

    Reduces to one exact quadratic in t on t*x + y; a root n / den is the
    point n*x + den*y.  Rational line and conic whose meets need a square
    root meet in points over Q(sqrt(f)), f the square-free part of the
    discriminant; over a d > 1 such meets raise IncompatibleExtensions.
    """
    x, y, d, a2, b2, c2 = _restriction(l, conic)
    if a2 == _ZERO and c2 == _ZERO:
        return TwoPoints(x, y)
    if a2 == _ZERO:
        if b2 == _ZERO:
            return TangentAt(x)
        return TwoPoints(x, _residual(x, y, c2, b2, d))
    if c2 == _ZERO:
        if b2 == _ZERO:
            return TangentAt(y)
        return TwoPoints(y, _residual(y, x, a2, b2, d))
    roots = quadratic_roots(a2, zscale(2, b2), c2, d)
    if isinstance(roots, NoRealRoots):
        return NoRealIntersection()
    e = join_d(join_d(x.d, y.d), roots.d)
    points = [Point.from_ints(e, combine(n, x.ints, roots.den, y.ints, e)) for n in roots.nums]
    return TwoPoints(*points) if len(points) == 2 else TangentAt(*points)


def tangent_conics_at(c1: Conic, c2: Conic, z: Point) -> bool:
    """Whether two nondegenerate conics touch at z: z on both with one shared
    polar line (for infinite z on hyperbolas this is a shared asymptote)."""
    if c1.is_degenerate() or c2.is_degenerate():
        raise DegenerateConic("tangency test needs nondegenerate conics")
    if not (c1.contains(z) and c2.contains(z)):
        return False
    return c1.polar(z) == c2.polar(z)


class InfinityInvolution:
    """The conjugate-direction involution a central conic induces on the
    line at infinity: X -> polar(X) . l_inf.

    The image is read off the raw vector Cx = (a, b, c) of the polar:
    polar(x) x [1 : 1 : 1] = (b - c : c - a : a - b), and x is
    self-conjugate when x . Cx = 0, so only the image is canonicalized.
    That vector is never zero.  It vanishes only when Cx is a multiple of
    [1 : 1 : 1], and then x . Cx is that multiple of the coordinate sum of
    x, which is 0 at infinity, so x is refused as self-conjugate first.
    For the nondegenerate central conics accepted here that cannot even
    happen: Cx = 0 would make x a singular point, and polar(x) = l_inf
    would make x the pole of l_inf, the center, which is finite."""

    __slots__ = ("conic",)

    def __init__(self, conic: Conic):
        if conic.is_degenerate():
            raise DegenerateConic("involution needs a nondegenerate conic")
        if conic.center().is_infinite():
            raise DegenerateConic("parabolas induce no involution at infinity")
        self.conic = conic

    def __call__(self, x: Point) -> Point:
        if not x.is_infinite():
            raise NotIncident(f"{x} is not at infinity")
        conic = self.conic
        d = join_d(conic.d, x.d)
        a, b, c = cx = mat_vec(conic.ints, x.ints, d)
        if dot(x.ints, cx, d) == _ZERO:
            raise SelfConjugate(f"{x} is an asymptotic direction")
        return Point.from_ints(d, (zsub(b, c), zsub(c, a), zsub(a, b)))


def transform_conic(mapping: AffineMap, conic: Conic) -> Conic:
    """Push-forward of a conic: contains mapping(X) iff the original contains X."""
    if mapping.is_degenerate():
        raise DegenerateConic("cannot push a conic through a degenerate map")
    adj = adjugate3(mapping.ints, mapping.d)
    d = join_d(mapping.d, conic.d)
    return Conic.from_ints(d, mat_mul(transpose(adj), mat_mul(conic.ints, adj, d), d))


def isotomic_image_of_line(l: Line) -> Conic:
    """The circumconic swept by the isotomic conjugates of a line's points."""
    a, b, c = l.ints
    return Conic.from_ints(l.d, ((_ZERO, c, b), (c, _ZERO, a), (b, a, _ZERO)))


def steiner_circumellipse() -> Conic:
    """xy + yz + zx = 0: the centroid-centered circumconic."""
    return isotomic_image_of_line(LINE_AT_INFINITY)


def infinity_intersection_count(conic: Conic) -> int:
    """0, 1, or 2 meets with the line at infinity, from the sign of the
    discriminant: the affine type of the conic (ellipse/parabola/hyperbola).
    The `steiner_collapse` check reads it to assert that the inconic of a
    point on the outer centroid ellipse is a parabola."""
    _, _, d, a, b, c = _restriction(LINE_AT_INFINITY, conic)
    return 1 + zsign(zsub(zmul(b, b, d), zmul(a, c, d)), d)
