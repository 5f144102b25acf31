"""Homogeneous barycentric points and lines, and exact affine maps.

Coordinates are relative to the fixed reference triangle A = (1:0:0),
B = (0:1:0), C = (0:0:1).  The line at infinity is x + y + z = 0, so
parallelism is incidence with (1,1,1) and no metric ever enters.  Affine
maps are 3x3 Scalar matrices with equal column sums acting on columns of
homogeneous coordinates; they preserve the line at infinity by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Optional, Sequence, Union

from .scalar import Scalar, ScalarLike, ZERO, ONE, as_scalar


class GeometryError(Exception):
    """Base class for geometric failures."""


class CoincidentArguments(GeometryError):
    pass


class InfiniteInput(GeometryError):
    pass


class NotCollinear(GeometryError):
    pass


class DependentSources(GeometryError):
    pass


class InfinitePoint(GeometryError):
    pass


class DegenerateMap(GeometryError):
    pass


class DegenerateConfiguration(GeometryError):
    pass


class OnSideline(GeometryError):
    pass


Triple = tuple[Scalar, Scalar, Scalar]
Mat3 = tuple[Triple, Triple, Triple]


# ---------------------------------------------------------------------------
# canonicalization and small exact linear algebra


def canonical_tuple(values: Sequence[ScalarLike]) -> tuple[Scalar, ...]:
    """Scale a coordinate tuple to a canonical representative.

    Divides by the first nonzero entry (so projectively equal tuples over the
    same field coincide structurally), then clears rational content.  The
    leading nonzero entry ends up a positive rational.
    """
    scalars = [as_scalar(v) for v in values]
    lead = next((s for s in scalars if not s.is_zero()), None)
    if lead is None:
        raise ValueError("zero tuple has no projective meaning")
    scalars = [s / lead for s in scalars]
    nums: list[int] = []
    dens: list[int] = []
    for s in scalars:
        for part in (s.a, s.b):
            if part != 0:
                nums.append(abs(part.numerator))
                dens.append(part.denominator)
    from math import gcd, lcm

    scale = Fraction(lcm(*dens), gcd(*nums)) if nums else Fraction(1)
    return tuple(s * scale for s in scalars)


def dot(u: Sequence[Scalar], v: Sequence[Scalar]) -> Scalar:
    total = ZERO
    for a, b in zip(u, v):
        total = total + a * b
    return total


def cross(u: Sequence[Scalar], v: Sequence[Scalar]) -> Triple:
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def det3(m: Sequence[Sequence[Scalar]]) -> Scalar:
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def adjugate3(m: Sequence[Sequence[Scalar]]) -> Mat3:
    c = [[ZERO] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(3):
            r1, r2 = [k for k in range(3) if k != i]
            c1, c2 = [k for k in range(3) if k != j]
            minor = m[r1][c1] * m[r2][c2] - m[r1][c2] * m[r2][c1]
            sign = -ONE if (i + j) % 2 else ONE
            c[j][i] = sign * minor  # transposed cofactor
    return tuple(tuple(row) for row in c)  # type: ignore[return-value]


def mat_mul(a: Sequence[Sequence[Scalar]], b: Sequence[Sequence[Scalar]]) -> Mat3:
    return tuple(
        tuple(dot(a[i], [b[k][j] for k in range(3)]) for j in range(3))
        for i in range(3)
    )  # type: ignore[return-value]


def mat_vec(m: Sequence[Sequence[Scalar]], v: Sequence[Scalar]) -> Triple:
    return tuple(dot(row, v) for row in m)  # type: ignore[return-value]


def transpose(m: Sequence[Sequence[Scalar]]) -> Mat3:
    return tuple(tuple(m[j][i] for j in range(3)) for i in range(3))  # type: ignore[return-value]


def null_space(rows: Iterable[Sequence[ScalarLike]], ncols: int) -> list[tuple[Scalar, ...]]:
    """Exact kernel basis of a linear system given by its rows."""
    mat = [[as_scalar(x) for x in row] for row in rows]
    pivot_cols: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(mat)) if not mat[i][c].is_zero()), None)
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        pv = mat[r][c]
        mat[r] = [x / pv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and not mat[i][c].is_zero():
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        pivot_cols.append(c)
        r += 1
        if r == len(mat):
            break
    basis = []
    for free in (c for c in range(ncols) if c not in pivot_cols):
        vec = [ZERO] * ncols
        vec[free] = ONE
        for row_idx, pc in enumerate(pivot_cols):
            vec[pc] = -mat[row_idx][free]
        basis.append(tuple(vec))
    return basis


# ---------------------------------------------------------------------------
# points and lines


class HomogeneousTriple:
    """A point or line as its canonical coordinate triple, so that equality
    up to nonzero scale is structural equality.  Subclasses differ only in
    their brackets and their own predicates."""

    __slots__ = ("coords",)
    BRACKETS = "()"

    def __init__(self, x: ScalarLike, y: ScalarLike, z: ScalarLike):
        self.coords: Triple = canonical_tuple((x, y, z))  # type: ignore[assignment]

    @classmethod
    def from_triple(cls, triple: Sequence[ScalarLike]):
        return cls(triple[0], triple[1], triple[2])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.coords == other.coords

    def __hash__(self):
        return hash((type(self).__name__, self.coords))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({str(self)!r})"

    def __str__(self) -> str:
        return self.BRACKETS[0] + " : ".join(str(c) for c in self.coords) + self.BRACKETS[1]

    @classmethod
    def parse(cls, text: str):
        inner = text.strip()
        parts = inner[1:-1].split(":")
        if inner[:1] + inner[-1:] != cls.BRACKETS or len(parts) != 3:
            raise ValueError(f"malformed {cls.__name__.lower()} {text!r}")
        return cls(*(Scalar.parse(p) for p in parts))


class Point(HomogeneousTriple):
    """Homogeneous barycentric point; equality up to nonzero scale."""

    __slots__ = ()

    def is_infinite(self) -> bool:
        return (self.coords[0] + self.coords[1] + self.coords[2]).is_zero()

    def normalized(self) -> Triple:
        """Affinely normalized coordinates (summing to 1); ordinary points only."""
        s = self.coords[0] + self.coords[1] + self.coords[2]
        if s.is_zero():
            raise InfiniteInput(f"{self} is at infinity")
        return (self.coords[0] / s, self.coords[1] / s, self.coords[2] / s)


class Line(HomogeneousTriple):
    """Homogeneous line coefficients; incidence is l.x + m.y + n.z = 0."""

    __slots__ = ()
    BRACKETS = "[]"

    def is_line_at_infinity(self) -> bool:
        return self == LINE_AT_INFINITY


VERTEX_A = Point(1, 0, 0)
VERTEX_B = Point(0, 1, 0)
VERTEX_C = Point(0, 0, 1)
CENTROID = Point(1, 1, 1)
MID_BC = Point(0, 1, 1)
MID_CA = Point(1, 0, 1)
MID_AB = Point(1, 1, 0)
LINE_AT_INFINITY = Line(1, 1, 1)
SIDE_BC = Line(1, 0, 0)
SIDE_CA = Line(0, 1, 0)
SIDE_AB = Line(0, 0, 1)
VERTICES = (VERTEX_A, VERTEX_B, VERTEX_C)
MIDPOINTS = (MID_BC, MID_CA, MID_AB)
SIDELINES = (SIDE_BC, SIDE_CA, SIDE_AB)


def incident(p: Point, l: Line) -> bool:
    return dot(p.coords, l.coords).is_zero()


def join(p1: Point, p2: Point) -> Line:
    c = cross(p1.coords, p2.coords)
    if all(x.is_zero() for x in c):
        raise CoincidentArguments(f"join of coincident points {p1}")
    return Line.from_triple(c)


def meet(l1: Line, l2: Line) -> Point:
    c = cross(l1.coords, l2.coords)
    if all(x.is_zero() for x in c):
        raise CoincidentArguments(f"meet of coincident lines {l1}")
    return Point.from_triple(c)


def are_collinear(p1: Point, p2: Point, p3: Point) -> bool:
    return det3((p1.coords, p2.coords, p3.coords)).is_zero()


def direction_of(l: Line) -> Point:
    """The point at infinity of an ordinary line."""
    if l.is_line_at_infinity():
        raise InfiniteInput("the line at infinity has no single direction")
    return meet(l, LINE_AT_INFINITY)


def parallel(l1: Line, l2: Line) -> bool:
    if l1.is_line_at_infinity() or l2.is_line_at_infinity():
        raise InfiniteInput("parallelism needs ordinary lines")
    if l1 == l2:
        return True
    return meet(l1, l2).is_infinite()


def parallel_through(p: Point, l: Line) -> Line:
    """The line through p parallel to l (i.e. through l's point at infinity)."""
    d = direction_of(l)
    if p == d:
        raise CoincidentArguments("point is the direction itself")
    return join(p, d)


def midpoint(p1: Point, p2: Point) -> Point:
    n1, n2 = p1.normalized(), p2.normalized()
    return Point(n1[0] + n2[0], n1[1] + n2[1], n1[2] + n2[2])


def reflect_through(center: Point, p: Point) -> Point:
    """Half-turn about an ordinary center; fixes every point at infinity."""
    c = center.normalized()
    if p.is_infinite():
        return p
    n = p.normalized()
    return Point(2 * c[0] - n[0], 2 * c[1] - n[1], 2 * c[2] - n[2])


def collinear_ratio(x: Point, y: Point, z: Point) -> Scalar:
    """Signed ratio d(x,y)/d(x,z) along the common line of three points.

    Affine-invariant, so it is computed from normalized coordinates without
    any metric: y - x = t (z - x) componentwise.
    """
    if x == z:
        raise CoincidentArguments("ratio base points coincide")
    if not are_collinear(x, y, z):
        raise NotCollinear(f"{x}, {y}, {z} are not collinear")
    nx, ny, nz = x.normalized(), y.normalized(), z.normalized()
    for i in range(3):
        denom = nz[i] - nx[i]
        if not denom.is_zero():
            return (ny[i] - nx[i]) / denom
    raise CoincidentArguments("ratio base points coincide")  # pragma: no cover


def centroid_of(*points: Point) -> Point:
    """Affine barycenter of finitely many ordinary points."""
    acc = [ZERO, ZERO, ZERO]
    for p in points:
        n = p.normalized()
        acc = [acc[i] + n[i] for i in range(3)]
    return Point(*acc)


def isotomic(p: Point) -> Point:
    """Isotomic conjugate (x:y:z) -> (yz:zx:xy); involution off the sidelines."""
    x, y, z = p.coords
    if x.is_zero() or y.is_zero() or z.is_zero():
        raise OnSideline(f"{p} lies on a sideline; isotomic conjugate undefined")
    return Point(y * z, z * x, x * y)


# ---------------------------------------------------------------------------
# affine maps


@dataclass(frozen=True)
class Identity:
    pass


@dataclass(frozen=True)
class Translation:
    direction: Point


@dataclass(frozen=True)
class Homothety:
    center: Point
    ratio: Scalar


@dataclass(frozen=True)
class AffineReflection:
    axis: Line
    direction: Point


@dataclass(frozen=True)
class GeneralMap:
    pass


Classification = Union[Identity, Translation, Homothety, AffineReflection, GeneralMap]


class HomogeneousMatrix:
    """A 3x3 Scalar matrix up to nonzero scale, stored as its canonical
    flattening so that projective equality is structural equality.
    Subclasses add only their own validation of the rows."""

    __slots__ = ("matrix",)

    def __init__(self, matrix: Sequence[Sequence[ScalarLike]]):
        rows = [tuple(as_scalar(x) for x in row) for row in matrix]
        if len(rows) != 3 or any(len(r) != 3 for r in rows):
            raise ValueError("3x3 matrix required")
        self._validate(rows)
        flat = canonical_tuple([x for row in rows for x in row])
        self.matrix: Mat3 = (flat[0:3], flat[3:6], flat[6:9])  # type: ignore[assignment]

    def _validate(self, rows: Sequence[Triple]) -> None:
        pass

    def determinant(self) -> Scalar:
        return det3(self.matrix)

    def is_degenerate(self) -> bool:
        return self.determinant().is_zero()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.matrix == other.matrix

    def __hash__(self):
        return hash((type(self).__name__, self.matrix))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({str(self)!r})"

    def __str__(self) -> str:
        rows = ", ".join(
            "[" + ", ".join(str(x) for x in row) + "]" for row in self.matrix
        )
        return f"[{rows}]"

    @classmethod
    def parse(cls, text: str):
        inner = text.strip()
        if not (inner.startswith("[[") and inner.endswith("]]")):
            raise ValueError(f"malformed matrix {text!r}")
        rows = inner[1:-1].split("],")
        entries = [
            [Scalar.parse(x) for x in row.strip().lstrip("[").rstrip("]").split(",")]
            for row in rows
        ]
        return cls(entries)


class AffineMap(HomogeneousMatrix):
    """3x3 Scalar matrix with equal column sums, up to scale.

    Equal column sums mean the map carries the line at infinity to itself,
    which is exactly affineness in homogeneous barycentric coordinates.
    """

    __slots__ = ()

    def _validate(self, rows: Sequence[Triple]) -> None:
        sums = [rows[0][j] + rows[1][j] + rows[2][j] for j in range(3)]
        if sums[0] != sums[1] or sums[1] != sums[2]:
            raise ValueError("column sums differ: not an affine map")
        if sums[0].is_zero():
            raise ValueError("zero column sums: does not fix the affine plane")

    # -- constructors ---------------------------------------------------------

    @classmethod
    def identity(cls) -> AffineMap:
        return cls(((1, 0, 0), (0, 1, 0), (0, 0, 1)))

    @classmethod
    def from_pairs(cls, pairs: Sequence[tuple[Point, Point]]) -> AffineMap:
        """The unique affine map sending three independent sources to targets.

        Sources must be affinely independent and ordinary; targets must be
        ordinary but may be dependent, in which case the map is degenerate
        (non-invertible) and downstream operations needing an inverse fail.
        """
        if len(pairs) != 3:
            raise ValueError("exactly three point pairs required")
        for src, tgt in pairs:
            if src.is_infinite():
                raise InfiniteInput(f"source {src} is at infinity")
            if tgt.is_infinite():
                raise InfinitePoint(f"target {tgt} is at infinity")
        src_cols = [p.normalized() for p, _ in pairs]
        tgt_cols = [p.normalized() for _, p in pairs]
        s_mat = transpose(src_cols)  # sources as columns
        if det3(s_mat).is_zero():
            raise DependentSources("source points are affinely dependent")
        t_mat = transpose(tgt_cols)
        return cls(mat_mul(t_mat, adjugate3(s_mat)))

    # -- algebra ---------------------------------------------------------------

    def __matmul__(self, other: AffineMap) -> AffineMap:
        """Composition: (f @ g) applies g first, then f."""
        if not isinstance(other, AffineMap):
            return NotImplemented
        return AffineMap(mat_mul(self.matrix, other.matrix))

    def inverse(self) -> AffineMap:
        if self.is_degenerate():
            raise DegenerateMap("map is not invertible")
        return AffineMap(adjugate3(self.matrix))

    def __call__(self, p: Point) -> Point:
        return Point.from_triple(mat_vec(self.matrix, p.coords))

    def apply_to_line(self, l: Line) -> Line:
        """Image of a line: coefficients transform by the adjugate transpose."""
        if self.is_degenerate():
            raise DegenerateMap("cannot push a line through a degenerate map")
        return Line.from_triple(mat_vec(transpose(adjugate3(self.matrix)), l.coords))

    # -- classification ----------------------------------------------------------

    def _unit_column_matrix(self) -> Mat3:
        s = self.matrix[0][0] + self.matrix[1][0] + self.matrix[2][0]
        return tuple(tuple(x / s for x in row) for row in self.matrix)  # type: ignore[return-value]

    def classify(self) -> Classification:
        """Exact type of the map: identity, translation, homothety, affine
        reflection (involution with a pointwise-fixed ordinary axis), or
        general.  Invariant under rescaling of the matrix."""
        if self.is_degenerate():
            raise DegenerateMap("cannot classify a degenerate map")
        m = self._unit_column_matrix()
        ident: Mat3 = ((ONE, ZERO, ZERO), (ZERO, ONE, ZERO), (ZERO, ZERO, ONE))
        if m == ident:
            return Identity()
        # action on the line at infinity, tested on a spanning pair
        v1 = (ONE, -ONE, ZERO)
        v2 = (ZERO, ONE, -ONE)
        w1 = mat_vec(m, v1)
        w2 = mat_vec(m, v2)
        k1 = _proportionality(w1, v1)
        k2 = _proportionality(w2, v2)
        if k1 is not None and k2 is not None and k1 == k2:
            if k1 == ONE:
                shift = tuple(m[i][0] - ident[i][0] for i in range(3))
                if all(x.is_zero() for x in shift):
                    shift = tuple(m[i][1] - ident[i][1] for i in range(3))
                return Translation(Point.from_triple(shift))
            center = Point.from_triple(_eigenvectors(m, ONE)[0])
            return Homothety(center, k1)
        m2 = mat_mul(m, m)
        if m2 == ident:
            fixed = _eigenvectors(m, ONE)
            if len(fixed) == 2:
                axis = join(Point.from_triple(fixed[0]), Point.from_triple(fixed[1]))
                if not axis.is_line_at_infinity():
                    minus = _eigenvectors(m, -ONE)
                    return AffineReflection(axis, Point.from_triple(minus[0]))
        return GeneralMap()


def _eigenvectors(m: Mat3, k: Scalar) -> list[tuple[Scalar, ...]]:
    """Kernel basis of m - k*I."""
    return null_space(
        [tuple(m[i][j] - (k if i == j else ZERO) for j in range(3)) for i in range(3)], 3
    )


def _proportionality(w: Sequence[Scalar], v: Sequence[Scalar]) -> Optional[Scalar]:
    """k with w == k*v, or None (v must be nonzero)."""
    if any(not x.is_zero() for x in cross(w, v)):
        return None
    for wi, vi in zip(w, v):
        if not vi.is_zero():
            return wi / vi
    return None


# ---------------------------------------------------------------------------
# the reference-triangle maps


@lru_cache(maxsize=1)
def complement_map() -> AffineMap:
    """Homothety at the centroid with ratio -1/2: sends ABC to the medial
    triangle.  Constructed from its defining point pairs, not hard-coded;
    the closed form (x:y:z) -> (y+z : z+x : x+y) is asserted in tests."""
    return AffineMap.from_pairs(tuple(zip(VERTICES, MIDPOINTS)))


@lru_cache(maxsize=1)
def anticomplement_map() -> AffineMap:
    return complement_map().inverse()


def complement(p: Point) -> Point:
    return complement_map()(p)


def anticomplement(p: Point) -> Point:
    return anticomplement_map()(p)


def point_reflection(center: Point) -> AffineMap:
    """The half-turn about an ordinary point, as an affine map."""
    c = center.normalized()
    rows = []
    for i in range(3):
        rows.append(tuple(2 * c[i] - (ONE if i == j else ZERO) for j in range(3)))
    return AffineMap(rows)


def cevian_traces(p: Point) -> tuple[Point, Point, Point]:
    """Traces of the cevians from A, B, C through p on the opposite sides."""
    x, y, z = p.coords
    if x.is_zero() or y.is_zero() or z.is_zero():
        raise OnSideline(f"{p} lies on a sideline; cevian triangle degenerates")
    return Point(0, y, z), Point(x, 0, z), Point(x, y, 0)


def cevian_map(p: Point) -> AffineMap:
    """The affine map taking ABC to the cevian triangle of p."""
    return AffineMap.from_pairs(tuple(zip(VERTICES, cevian_traces(p))))


def reflection_axis_point(p: Point, p_iso: Point, q: Point, q_iso: Point) -> Point:
    """v = pq . p_iso q_iso, the point that with the centroid spans the axis
    of the iso-reflection."""
    try:
        return meet(join(p, q), join(p_iso, q_iso))
    except CoincidentArguments as exc:
        raise DegenerateConfiguration("reflection axis is undetermined") from exc


def iso_reflection_map(
    p: Point, p_iso: Point, q: Point, q_iso: Point, v: Point
) -> AffineMap:
    """The affine reflection fixing the centroid and v = pq . p_iso q_iso
    (from `reflection_axis_point`) pointwise and swapping p with p_iso
    (hence q with q_iso).

    Verified involutive on construction; configurations where v is
    infinite or centroidal are rejected rather than guessed at.
    """
    if v.is_infinite() or v == CENTROID:
        raise DegenerateConfiguration(f"axis point {v} unusable")
    try:
        eta = AffineMap.from_pairs(((CENTROID, CENTROID), (v, v), (p, p_iso)))
    except DependentSources as exc:
        raise DegenerateConfiguration("p lies on the would-be axis") from exc
    if eta @ eta != AffineMap.identity():
        raise DegenerateConfiguration("constructed reflection is not involutive")
    if eta(q) != q_iso:
        raise DegenerateConfiguration("reflection does not swap the companion pair")
    return eta


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


def perspector(
    tri1: tuple[Point, Point, Point], tri2: tuple[Point, Point, Point]
) -> Optional[Point]:
    """Common point of the three lines joining corresponding vertices, or
    None when the triangles are not perspective.  Corresponding vertices must
    be distinct."""
    lines = [join(a, b) for a, b in zip(tri1, tri2)]
    try:
        return common_point(lines)
    except CoincidentArguments:
        # all three joins are one line: every point of it works; degenerate
        return None
