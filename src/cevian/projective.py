"""Homogeneous barycentric points and lines, and exact affine maps.

Coordinates are relative to the fixed reference triangle A = (1:0:0),
B = (0:1:0), C = (0:0:1).  The line at infinity is x + y + z = 0, so
parallelism is incidence with (1,1,1) and no metric ever enters.  Affine
maps are 3x3 matrices with equal column sums acting on columns of
homogeneous coordinates; they preserve the line at infinity by construction.

Points, lines, maps and conics are held as integer vectors over Z[sqrt(d)].
An entry is a pair of ints (a, b) standing for a + b*sqrt(d) (see scalar.py),
and one square-free d serves the whole vector (d = 1 when every b is 0).  The
stored vector is the canonical representative of the projective class: its
ints have gcd 1 and its leading nonzero entry is a positive integer, so
equality up to nonzero scale is structural equality.  Joins, meets,
incidence, map products and inverses run on these ints, and so does every
linear solve: `null_space` takes pair rows and returns integer pair vectors.
Affine combinations, such as midpoints, centroids and half-turns, weight the
vectors by coordinate sums instead of normalizing them.  Objects print
through ``format_number`` and hash from their type name, d and ints.
There is no Scalar arithmetic here: Scalars are built only by parsing, and
by ``ratio`` for a ratio and the ``coords`` and ``matrix`` views.

Each kernel routine has one general body over Z[sqrt(d)], and `dot`, `cross`
and `mat_vec` are written out term by term for triples, the only shape they
take.  Four of them keep a fast path at d = 1 that reads only the rational
half of each pair and writes 0 for the other, because the verify suite, whose
configurations are over Q, runs measurably slower without it: `_canonical`,
`dot`, `cross` and `mat_vec`.  Printing keeps one too, for the `construct`
reports of rational points: at d = 1 a point, line or matrix prints with
one `%d` format of its ints, which writes what `format_number` writes and
raises the same ValueError past the int str limit.  The fast paths are
exact because at d = 1 every b is 0: `_canonical`, which builds every
object, refuses a vector that breaks this.  `_canonical` also skips the
conjugate multiply for a rational lead, which construct() over Q(sqrt(d))
pays for.  Each fast path's comment gives what removing it cost.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from math import gcd
from typing import Iterable, Optional, Sequence, Union

from .scalar import (
    Pair,
    Record,
    _ZERO,
    Scalar,
    ScalarLike,
    combine,
    divide_exactly,
    format_number,
    integer_vector,
    join_d,
    ratio,
    zmul,
    zscale,
    zsub,
    zsum,
)


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


class HardDegeneracy(GeometryError):
    """The point lies on a locus where its configuration does not exist.
    Each subclass's `flag` names the field of DegeneracyReport that marks
    that locus."""

    flag: str


class OnSideline(HardDegeneracy):
    flag = "on_sideline"


Triple = tuple[Scalar, Scalar, Scalar]
Vector = tuple[Pair, ...]
Rows = tuple[Vector, Vector, Vector]

_ONE: Pair = (1, 0)


# ---------------------------------------------------------------------------
# canonicalization and small exact linear algebra over Z[sqrt(d)]


def _canonical(d: int, v: Sequence[Pair]) -> tuple[int, Vector]:
    """The canonical representative of the nonzero multiples of v over
    Q(sqrt(d)): an irrational lead is made rational by multiplying with its
    conjugate, the gcd of all the ints is divided out, and the sign is fixed
    so that the lead is positive.  This is v divided by its lead, with the
    rational content then cleared.  d folds to 1 when every b is 0.

    At d = 1 every b must be 0, the invariant the d = 1 branches of the
    kernel rely on; an entry with an irrational part raises ValueError."""
    if d == 1:  # suite: without it run_suite(42, 25) took 16% longer (Python 3.11, x86-64)
        xs = [x for x, y in v if not y]
        if len(xs) != len(v):
            i, entry = next((i, e) for i, e in enumerate(v) if e[1])
            raise ValueError(f"entry {i} = {entry} has an irrational part at d = 1")
        g = gcd(*xs)
        if not g:
            raise ValueError("zero tuple has no projective meaning")
        for x in xs:
            if x:
                break
        if x < 0:
            g = -g
        return 1, tuple([(x // g, 0) for x in xs])
    for a, b in v:
        if a or b:
            break
    else:
        raise ValueError("zero tuple has no projective meaning")
    if b:  # quadratic_field: without it construct() took 3.3% longer (Python 3.11, x86-64)
        bd = b * d
        v = [(x * a - y * bd, y * a - x * b) for x, y in v]
        a = a * a - b * bd
    g = gcd(*[n for pair in v for n in pair])
    if a < 0:
        g = -g
    v = tuple([(x // g, y // g) for x, y in v])
    if not any(y for _, y in v):
        d = 1
    return d, v


def dot(u: Sequence[Pair], v: Sequence[Pair], d: int) -> Pair:
    (a0, b0), (a1, b1), (a2, b2) = u
    (c0, e0), (c1, e1), (c2, e2) = v
    if d == 1:  # suite: without it run_suite(42, 25) took 5.2% longer (Python 3.11, x86-64)
        return a0 * c0 + a1 * c1 + a2 * c2, 0
    return (
        a0 * c0 + a1 * c1 + a2 * c2 + (b0 * e0 + b1 * e1 + b2 * e2) * d,
        a0 * e0 + b0 * c0 + a1 * e1 + b1 * c1 + a2 * e2 + b2 * c2,
    )


def cross(u: Sequence[Pair], v: Sequence[Pair], d: int) -> Vector:
    (a0, b0), (a1, b1), (a2, b2) = u
    (c0, e0), (c1, e1), (c2, e2) = v
    if d == 1:  # suite: without it run_suite(42, 25) took 3.1% longer (Python 3.11, x86-64)
        return ((a1 * c2 - a2 * c1, 0), (a2 * c0 - a0 * c2, 0), (a0 * c1 - a1 * c0, 0))
    return (
        (a1 * c2 - a2 * c1 + (b1 * e2 - b2 * e1) * d, a1 * e2 + b1 * c2 - a2 * e1 - b2 * c1),
        (a2 * c0 - a0 * c2 + (b2 * e0 - b0 * e2) * d, a2 * e0 + b2 * c0 - a0 * e2 - b0 * c2),
        (a0 * c1 - a1 * c0 + (b0 * e1 - b1 * e0) * d, a0 * e1 + b0 * c1 - a1 * e0 - b1 * c0),
    )


def transpose(m: Sequence[Sequence[Pair]]) -> Rows:
    return tuple([*zip(*m)])  # type: ignore[return-value]


def mat_vec(m: Sequence[Sequence[Pair]], v: Sequence[Pair], d: int) -> Vector:
    (c0, e0), (c1, e1), (c2, e2) = v
    if d == 1:  # suite: without it run_suite(42, 25) took 3.8% longer (Python 3.11, x86-64)
        return tuple([(a0 * c0 + a1 * c1 + a2 * c2, 0) for (a0, _), (a1, _), (a2, _) in m])
    return tuple([
        (
            a0 * c0 + a1 * c1 + a2 * c2 + (b0 * e0 + b1 * e1 + b2 * e2) * d,
            a0 * e0 + b0 * c0 + a1 * e1 + b1 * c1 + a2 * e2 + b2 * c2,
        )
        for (a0, b0), (a1, b1), (a2, b2) in m
    ])


def mat_mul(a: Sequence[Sequence[Pair]], b: Sequence[Sequence[Pair]], d: int) -> Rows:
    cols = [*zip(*b)]
    return tuple([tuple([dot(row, col, d) for col in cols]) for row in a])  # type: ignore[return-value]


def adjugate3(m: Sequence[Sequence[Pair]], d: int) -> Rows:
    """The rows of adj(m) are the cross products of pairs of its columns."""
    c0, c1, c2 = zip(*m)
    return (cross(c1, c2, d), cross(c2, c0, d), cross(c0, c1, d))


def det3(m: Sequence[Sequence[Pair]], d: int) -> Pair:
    return dot(m[0], cross(m[1], m[2], d), d)


def null_space(d: int, rows: Iterable[Sequence[Pair]]) -> list[Vector]:
    """Exact kernel basis of a linear system over Z[sqrt(d)], given by its
    rows of pairs: one integer pair vector per free column, each a multiple
    of the basis vector with a 1 at that column.

    Fraction-free Gauss-Jordan elimination (Bareiss).  A step with pivot pv
    replaces every other row by (pv * row - f * pivot row) / previous pivot,
    a division that is exact because the entries stay minors of the system
    (Sylvester's identity); it is checked all the same.  After the last step
    every pivot entry equals the last pivot, so the vector of a free column
    holds that pivot there and, at each pivot column, minus the free
    column's entry of that pivot's row; the callers canonicalize it.
    """
    mat = list(rows)
    ncols = len(mat[0])
    pivot_cols: list[int] = []
    prev = _ONE
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(mat)) if mat[i][c] != _ZERO), None)
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        pivot = mat[r]
        pv = pivot[c]
        for i, row in enumerate(mat):
            if i != r:
                mat[i] = divide_exactly(combine(pv, row, zscale(-1, row[c]), pivot, d), prev, d)
        prev = pv
        pivot_cols.append(c)
        r += 1
        if r == len(mat):
            break
    basis = []
    for free in (c for c in range(ncols) if c not in pivot_cols):
        vec = [_ZERO] * ncols
        vec[free] = prev
        for row_idx, pc in enumerate(pivot_cols):
            vec[pc] = zscale(-1, mat[row_idx][free])
        basis.append(tuple(vec))
    return basis


# ---------------------------------------------------------------------------
# canonical objects: points, lines, maps and conics


class CanonicalObject:
    """An object held as one canonical integer vector over Z[sqrt(d)] (its
    coordinates, or its matrix rows), so that equality up to nonzero scale
    is structural equality of the type, d and ints.  Subclasses build the
    vector in `_set` and print it in `__str__`."""

    __slots__ = ("d", "ints")

    @classmethod
    def from_ints(cls, d: int, v):
        """The object with coordinates (or matrix rows) v over Z[sqrt(d)],
        up to scale."""
        obj = object.__new__(cls)
        obj._set(d, v)
        return obj

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.d == other.d and self.ints == other.ints

    def __hash__(self):
        return hash((type(self).__name__, self.d, self.ints))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({str(self)!r})"


class HomogeneousTriple(CanonicalObject):
    """A point or line by the canonical vector of its coordinates.
    Subclasses differ only in their brackets and their own predicates."""

    __slots__ = ()
    BRACKETS = "()"

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        # str() at d = 1, where every entry is an int
        cls._rational_format = cls.BRACKETS[0] + "%d : %d : %d" + cls.BRACKETS[1]

    def __init__(self, x: ScalarLike, y: ScalarLike, z: ScalarLike):
        d, v = integer_vector((x, y, z))
        self._set(d, v)

    def _set(self, d: int, v: Sequence[Pair]) -> None:
        self.d, self.ints = _canonical(d, v)

    @property
    def coords(self) -> Triple:
        """The canonical coordinates as Scalars, built on each access."""
        return tuple([ratio(x, _ONE, self.d) for x in self.ints])  # type: ignore[return-value]

    def __str__(self) -> str:
        # construct_bits: without it and the matrix's, a CLI construct took 4.4% longer
        # (Python 3.11, x86-64)
        if self.d == 1:
            (x, _), (y, _), (z, _) = self.ints
            return self._rational_format % (x, y, z)
        inner = " : ".join(format_number(a, b, self.d) for a, b in self.ints)
        return self.BRACKETS[0] + inner + self.BRACKETS[1]

    @classmethod
    def parse(cls, text: str):
        """The inverse of str(), which also reads the text without its
        brackets: "(x : y : z)" or "x:y:z" for a point."""
        inner = text.strip()
        if inner[:1] + inner[-1:] == cls.BRACKETS:
            inner = inner[1:-1]
        parts = inner.split(":")
        if len(parts) != 3:
            raise ValueError(f"malformed {cls.__name__.lower()} {text!r}")
        return cls(*(Scalar.parse(p) for p in parts))


class Point(HomogeneousTriple):
    """Homogeneous barycentric point; equality up to nonzero scale."""

    __slots__ = ()

    def _weight(self) -> Pair:
        """x + y + z of the canonical coordinates, which is zero exactly at
        infinity; raises there."""
        w = zsum(self.ints)
        if w == _ZERO:
            raise InfiniteInput(f"{self} is at infinity")
        return w

    def is_infinite(self) -> bool:
        return zsum(self.ints) == _ZERO


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
    return dot(p.ints, l.ints, join_d(p.d, l.d)) == _ZERO


def join(p1: Point, p2: Point) -> Line:
    d = join_d(p1.d, p2.d)
    c = cross(p1.ints, p2.ints, d)
    if all(x == _ZERO for x in c):
        raise CoincidentArguments(f"join of coincident points {p1}")
    return Line.from_ints(d, c)


def meet(l1: Line, l2: Line) -> Point:
    d = join_d(l1.d, l2.d)
    c = cross(l1.ints, l2.ints, d)
    if all(x == _ZERO for x in c):
        raise CoincidentArguments(f"meet of coincident lines {l1}")
    return Point.from_ints(d, c)


def are_collinear(p1: Point, p2: Point, p3: Point) -> bool:
    d = join_d(join_d(p1.d, p2.d), p3.d)
    return det3((p1.ints, p2.ints, p3.ints), d) == _ZERO


def parallel(l1: Line, l2: Line) -> bool:
    """Whether the lines meet at infinity: their cross product sums to 0."""
    if l1.is_line_at_infinity() or l2.is_line_at_infinity():
        raise InfiniteInput("parallelism needs ordinary lines")
    return zsum(cross(l1.ints, l2.ints, join_d(l1.d, l2.d))) == _ZERO


def parallel_through(p: Point, l: Line) -> Line:
    """The line through p parallel to l, i.e. through l's point at infinity.

    That point is l x [1 : 1 : 1] = (b - c : c - a : a - b) for
    l = [a : b : c], and the line is its raw cross product with p: only the
    returned line is canonicalized.  The direction is zero exactly on the line at infinity,
    which raises InfiniteInput first, and the cross product is zero exactly
    when p is that direction.  p and l share one field: a p over a second
    Q(sqrt(d)) raises IncompatibleExtensions, as join_d does."""
    if l.is_line_at_infinity():
        raise InfiniteInput("the line at infinity has no single direction")
    a, b, c = l.ints
    d = join_d(p.d, l.d)
    line = cross(p.ints, (zsub(b, c), zsub(c, a), zsub(a, b)), d)
    if all(x == _ZERO for x in line):
        raise CoincidentArguments("point is the direction itself")
    return Line.from_ints(d, line)


def collinear_ratio(x: Point, y: Point, z: Point) -> Scalar:
    """Signed ratio d(x,y)/d(x,z) along the common line of three points.

    Affine-invariant, so it is computed from normalized coordinates without
    any metric: y - x = t (z - x) componentwise.  For the coordinate sums w,
    u = (y - x) wx wy and v = (z - x) wx wz, so t = u wz / (v wy).
    """
    if x == z:
        raise CoincidentArguments("ratio base points coincide")
    if not are_collinear(x, y, z):
        raise NotCollinear(f"{x}, {y}, {z} are not collinear")
    wx, wy, wz = x._weight(), y._weight(), z._weight()
    d = join_d(join_d(x.d, y.d), z.d)
    u = combine(wx, y.ints, zscale(-1, wy), x.ints, d)
    v = combine(wx, z.ints, zscale(-1, wz), x.ints, d)
    for ui, vi in zip(u, v):
        if vi != _ZERO:
            return ratio(zmul(ui, wz, d), zmul(vi, wy, d), d)
    raise CoincidentArguments("ratio base points coincide")  # pragma: no cover


def centroid_of(*points: Point) -> Point:
    """Affine barycenter of finitely many ordinary points: the sum of
    p/w over the points, scaled by the product of their coordinate sums w."""
    d = reduce(join_d, [p.d for p in points], 1)
    acc, w = (_ZERO,) * 3, _ONE
    for p in points:
        wp = p._weight()
        acc, w = combine(wp, acc, w, p.ints, d), zmul(w, wp, d)
    return Point.from_ints(d, acc)


def midpoint(p1: Point, p2: Point) -> Point:
    """The midpoint of two ordinary points."""
    return centroid_of(p1, p2)


def isotomic_ints(v: Sequence[Pair], d: int) -> Vector:
    """The isotomic product (v_1 v_2, v_2 v_0, v_0 v_1) of a vector over
    Z[sqrt(d)], not normalized: the one body of that product, for isotomic
    and for every closed form that takes it."""
    v0, v1, v2 = v
    return (zmul(v1, v2, d), zmul(v2, v0, d), zmul(v0, v1, d))


def isotomic(p: Point) -> Point:
    """Isotomic conjugate (x:y:z) -> (yz:zx:xy); involution off the sidelines."""
    if _ZERO in p.ints:
        raise OnSideline(f"{p} lies on a sideline; isotomic conjugate undefined")
    return Point.from_ints(p.d, isotomic_ints(p.ints, p.d))


# ---------------------------------------------------------------------------
# affine maps


class Identity(Record):
    __slots__ = ()


class Translation(Record):
    __slots__ = _fields = ("direction",)


class Homothety(Record):
    __slots__ = _fields = ("center", "ratio")


class AffineReflection(Record):
    __slots__ = _fields = ("axis", "direction")


class GeneralMap(Record):
    __slots__ = ()


Classification = Union[Identity, Translation, Homothety, AffineReflection, GeneralMap]


_RATIONAL_MATRIX_FORMAT = "[[%d, %d, %d], [%d, %d, %d], [%d, %d, %d]]"  # str() at d = 1


class HomogeneousMatrix(CanonicalObject):
    """A 3x3 matrix up to nonzero scale, by the canonical vector of its
    flattening, held as rows.  Subclasses add only their own validation of
    the rows, which runs on the ints before the content is divided out."""

    __slots__ = ()

    def __init__(self, matrix: Sequence[Sequence[ScalarLike]]):
        rows = [tuple(row) for row in matrix]
        if len(rows) != 3 or any(len(r) != 3 for r in rows):
            raise ValueError("3x3 matrix required")
        d, flat = integer_vector([x for row in rows for x in row])
        self._set(d, (tuple(flat[0:3]), tuple(flat[3:6]), tuple(flat[6:9])))

    def _set(self, d: int, rows: Sequence[Sequence[Pair]]) -> None:
        self._validate(rows)
        r0, r1, r2 = rows
        d, flat = _canonical(d, (*r0, *r1, *r2))
        self.d = d
        self.ints: Rows = (flat[0:3], flat[3:6], flat[6:9])

    def _validate(self, rows: Sequence[Sequence[Pair]]) -> None:
        pass

    @property
    def matrix(self) -> tuple[Triple, Triple, Triple]:
        """The canonical matrix as Scalars, built on each access."""
        d = self.d
        return tuple([tuple([ratio(x, _ONE, d) for x in row]) for row in self.ints])  # type: ignore[return-value]

    def is_degenerate(self) -> bool:
        return det3(self.ints, self.d) == _ZERO

    def __str__(self) -> str:
        d = self.d
        if d == 1:  # construct_bits: see HomogeneousTriple.__str__
            return _RATIONAL_MATRIX_FORMAT % tuple([a for row in self.ints for a, _ in row])
        rows = ", ".join(
            "[" + ", ".join(format_number(a, b, d) for a, b in row) + "]" for row in self.ints
        )
        return f"[{rows}]"


_ZERO_ROW: Vector = (_ZERO,) * 3
_ZERO_MATRIX: Rows = (_ZERO_ROW,) * 3  # type: ignore[assignment]


class AffineMap(HomogeneousMatrix):
    """3x3 matrix with equal column sums, up to scale.

    Equal column sums mean the map carries the line at infinity to itself,
    which is exactly affineness in homogeneous barycentric coordinates.
    """

    __slots__ = ()

    def _validate(self, rows: Sequence[Sequence[Pair]]) -> None:
        sums = [zsum(col) for col in zip(*rows)]
        if sums[0] != sums[1] or sums[1] != sums[2]:
            raise ValueError("column sums differ: not an affine map")
        if sums[0] == _ZERO:
            raise ValueError("zero column sums: does not fix the affine plane")

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_pairs(cls, pairs: Sequence[tuple[Point, Point]]) -> AffineMap:
        """The unique affine map sending three independent sources to targets.

        Sources must be affinely independent and ordinary; targets must be
        ordinary but may be dependent, in which case the map is degenerate
        (non-invertible) and downstream operations needing an inverse fail.

        With sources S and targets T as columns, and s and t their
        coordinate sums, the map is T diag(s_j * t_k * t_l) adj(S) for
        {j, k, l} = {0, 1, 2}: a multiple of the map between the normalized
        columns.
        """
        if len(pairs) != 3:
            raise ValueError("exactly three point pairs required")
        for src, tgt in pairs:
            if src.is_infinite():
                raise InfiniteInput(f"source {src} is at infinity")
            if tgt.is_infinite():
                raise InfinitePoint(f"target {tgt} is at infinity")
        d = 1
        for src, tgt in pairs:
            d = join_d(join_d(d, src.d), tgt.d)
        s_mat = transpose([src.ints for src, _ in pairs])  # sources as columns
        if det3(s_mat, d) == _ZERO:
            raise DependentSources("source points are affinely dependent")
        s = [zsum(src.ints) for src, _ in pairs]
        t = [zsum(tgt.ints) for _, tgt in pairs]
        scales = [zmul(sj, tt, d) for sj, tt in zip(s, isotomic_ints(t, d))]  # s_j t_k t_l
        weighted = [[zmul(x, scales[j], d) for x in tgt.ints] for j, (_, tgt) in enumerate(pairs)]
        return cls.from_ints(d, mat_mul(transpose(weighted), adjugate3(s_mat, d), d))

    # -- algebra ---------------------------------------------------------------

    def __matmul__(self, other: AffineMap) -> AffineMap:
        """Composition: (f @ g) applies g first, then f."""
        if not isinstance(other, AffineMap):
            return NotImplemented
        d = join_d(self.d, other.d)
        return AffineMap.from_ints(d, mat_mul(self.ints, other.ints, d))

    def inverse(self) -> AffineMap:
        if self.is_degenerate():
            raise DegenerateMap("map is not invertible")
        return AffineMap.from_ints(self.d, adjugate3(self.ints, self.d))

    def __call__(self, p: Point) -> Point:
        d = join_d(self.d, p.d)
        return Point.from_ints(d, mat_vec(self.ints, p.ints, d))

    def apply_to_line(self, l: Line) -> Line:
        """Image of a line: coefficients transform by the adjugate transpose."""
        if self.is_degenerate():
            raise DegenerateMap("cannot push a line through a degenerate map")
        d = join_d(self.d, l.d)
        return Line.from_ints(d, mat_vec(transpose(adjugate3(self.ints, self.d)), l.ints, d))

    # -- classification ----------------------------------------------------------

    def classify(self) -> Classification:
        """Exact type of the map: identity, translation, homothety, affine
        reflection (involution with a pointwise-fixed ordinary axis), or
        general.  Invariant under rescaling of the matrix.

        The matrix is s times the one with unit column sums, s its column
        sum, so an eigenvalue k of that one is k*s here.  Each answer is read
        off a rank-one matrix.  M acts on directions as k*I exactly when
        M - k*I = c 1^T, c the center (k != s) or the translation direction
        (k = s).  An affine reflection is M = s*I + c r^T with trace s, which
        makes M^2 = s^2 I: r is its axis and c the direction it reverses (r
        is never the line at infinity, which would make M a translation).
        `require_iso_reflection` tests the same two conditions."""
        if self.is_degenerate():
            raise DegenerateMap("cannot classify a degenerate map")
        m, d = self.ints, self.d
        s = zsum(row[0] for row in m)
        m_minus_s = _minus_diagonal(m, s)
        if m_minus_s == _ZERO_MATRIX:
            return Identity()
        k = zsub(m[0][0], m[0][1])  # the eigenvalue of the direction (1 : -1 : 0)
        m_minus_k = _minus_diagonal(m, k)
        if all(row[0] == row[1] == row[2] for row in m_minus_k):
            c = Point.from_ints(d, [row[0] for row in m_minus_k])
            return Translation(c) if k == s else Homothety(c, ratio(k, s, d))
        if _trace(m) == s and _rank_one(m_minus_s, d):
            axis = next(row for row in m_minus_s if row != _ZERO_ROW)
            direction = next(col for col in zip(*m_minus_s) if col != _ZERO_ROW)
            return AffineReflection(Line.from_ints(d, axis), Point.from_ints(d, direction))
        return GeneralMap()


def _minus_diagonal(m: Sequence[Sequence[Pair]], k: Pair) -> Rows:
    """m - k*I."""
    (x0, x1, x2), (y0, y1, y2), (z0, z1, z2) = m
    return ((zsub(x0, k), x1, x2), (y0, zsub(y1, k), y2), (z0, z1, zsub(z2, k)))


def _trace(m: Sequence[Sequence[Pair]]) -> Pair:
    return zsum([m[0][0], m[1][1], m[2][2]])


_OTHER_INDICES = ((1, 2), (0, 2), (0, 1))


def _rank_one(m: Sequence[Sequence[Pair]], d: int) -> bool:
    """Whether m has rank one: its first nonzero entry p = m[i][j] exists,
    and the four 2x2 minors through it vanish, which makes m its column j
    times its row i over p.  Eight products of entries, where adj(m) = 0
    takes 18."""
    for i, row in enumerate(m):
        for j, (a, b) in enumerate(row):
            if a or b:
                for k in _OTHER_INDICES[i]:
                    other = m[k]
                    c, e = other[j]
                    for l in _OTHER_INDICES[j]:
                        (x, y), (g, h) = other[l], row[l]
                        # p * m[k][l] - m[i][l] * m[k][j]
                        if a * x + b * y * d != g * c + h * e * d or a * y + b * x != g * e + h * c:
                            return False
                return True
    return False


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


def row_constant_map(d: int, c: Sequence[Pair], m: Pair) -> AffineMap:
    """The affine map c 1^T + m I over Z[sqrt(d)]: row k is c_k in every
    column, plus m on the diagonal."""
    return AffineMap.from_ints(d, [
        [zsum((ck, m)) if k == j else ck for j in range(3)] for k, ck in enumerate(c)
    ])


def point_reflection(center: Point) -> AffineMap:
    """The half-turn about an ordinary point, as an affine map: 2c/w - I for
    the coordinate sum w of c, scaled by w."""
    return row_constant_map(
        center.d, [zscale(2, c) for c in center.ints], zscale(-1, center._weight())
    )


def reflect_through(center: Point, p: Point) -> Point:
    """Half-turn about an ordinary center; fixes every point at infinity.
    This is `point_reflection(center)(p)` without the matrix: 2 w_p c - w_c p
    for the coordinate sums w."""
    w_c, w_p = center._weight(), zsum(p.ints)
    d = join_d(center.d, p.d)
    return Point.from_ints(d, combine(zscale(2, w_p), center.ints, zscale(-1, w_c), p.ints, d))


def cevian_traces(p: Point) -> tuple[Point, Point, Point]:
    """Traces of the cevians from A, B, C through p on the opposite sides."""
    x, y, z = p.ints
    if _ZERO in p.ints:
        raise OnSideline(f"{p} lies on a sideline; cevian triangle degenerates")
    d = p.d
    return (
        Point.from_ints(d, (_ZERO, y, z)),
        Point.from_ints(d, (x, _ZERO, z)),
        Point.from_ints(d, (x, y, _ZERO)),
    )


def cevian_map(p: Point) -> AffineMap:
    """The affine map taking ABC to the cevian triangle of p."""
    return AffineMap.from_pairs(tuple(zip(VERTICES, cevian_traces(p))))


def require_iso_reflection(eta: AffineMap, q: Point, q_iso: Point) -> AffineMap:
    """eta, once checked to be an affine reflection swapping q with q_iso.
    With s its column sum, eta - s*I must have rank one and trace -2s, which
    is `classify`'s test for a reflection: it makes eta^2 = s^2 I, and a
    half-turn, whose square is scalar as well, fails it.  The cross product
    of eta(q) with q_iso must vanish.  Nothing is canonicalized."""
    m = eta.ints
    s = zsum([row[0] for row in m])
    if _trace(m) != s or not _rank_one(_minus_diagonal(m, s), eta.d):
        raise DegenerateConfiguration("constructed map is not an affine reflection")
    d = join_d(join_d(eta.d, q.d), q_iso.d)
    if any(x != _ZERO for x in cross(mat_vec(eta.ints, q.ints, d), q_iso.ints, d)):
        raise DegenerateConfiguration("reflection does not swap the companion pair")
    return eta


def perspector(
    tri1: tuple[Point, Point, Point], tri2: tuple[Point, Point, Point]
) -> Optional[Point]:
    """Common point of the three lines joining corresponding vertices, or
    None when the triangles are not perspective, and None too when the three
    joins are one line, since then every point of it is common.
    Corresponding vertices must be distinct: a coincident pair raises
    CoincidentArguments, as `join` does.

    The joins are raw cross products.  The first two meet in their cross
    product unless they are one line, when the third join takes the second's
    place, and a zero cross product there means all three are one line.  The
    joins concur when the third passes through the meet of the first two,
    one `dot`; the second join of the fallback passes through it already.
    Only the perspector is canonicalized, and its vector is never zero.  The
    six points share one field: a second Q(sqrt(d)) raises
    IncompatibleExtensions, as join_d does."""
    d = 1
    joins = []
    for a, b in zip(tri1, tri2):
        d = join_d(d, join_d(a.d, b.d))
        line = cross(a.ints, b.ints, d)
        if all(x == _ZERO for x in line):
            raise CoincidentArguments(f"join of coincident points {a}")
        joins.append(line)
    first, second, third = joins
    common = cross(first, second, d)
    if all(x == _ZERO for x in common):
        common = cross(first, third, d)
        if all(x == _ZERO for x in common):
            return None
    elif dot(common, third, d) != _ZERO:
        return None
    return Point.from_ints(d, common)
