"""The full construction pipeline: from a driving point p, every derived
point, affine map, and conic of the generalized-center configuration.

`Centers(p)` holds the defining objects: q = K(isotomic(p)), the
orthocenter-like point H read off the vertex-locus forms of p, O = K(H),
both checked to lie on the parallels through the vertices and the midpoints
that define them, and the cevian conic through A, B, C, p, q, whose center
is Z.  `ConstructionSet` adds every other member, `construct(p)` builds
one, and the anticevian siblings need only `Centers`.  Like the
iso-reflection check, the parallel check runs on uncanonicalized vectors:
the directions of the q-trace lines are cross products, never points, so
`construct` canonicalizes only the objects it keeps.

Every member is read off a closed form in the pairs of p = (u : v : w), at
the degree it keeps once canonical, so no canonicalization divides out a
polynomial content.  The products of two coordinates of p are made in one
table, `_report_and_forms`: the squares, the products P = (vw, wu, uv),
which are the coordinates of isotomic(p), and the vertex-locus forms.  The
degeneracy flags, H, isotomic(p), the cevian conic, every member of
`ConstructionSet` and the Z sweep read them off it, so no other code here
multiplies two coordinates of p.  Z has one body, `_feuerbach_ints`, and
the isotomic product of p, of the locus forms and of the other forms one,
`projective.isotomic_ints`.  The maps T_p, T_p', their inverses and their
composites, the primed centers, the conics and the axis point are such
forms, not products, inverses or conic centers; those paths, the affine
formula O = T_p_iso^-1(K(q)) among them, run only in the checks and the
tests that compare them with the forms.

Degeneracy is graded.  A point on a sideline of the reference triangle or of
its anticomplementary triangle is a hard error (nothing is constructible).
A point on a median keeps the central objects but loses the members that
need the reflection axis (v, the iso-reflection, the insimilicenter, the
cevian-conic center); a point on the outer centroid ellipse collapses the
orthocenter, circumcenter, and inconic center into one infinite point.
"""

from __future__ import annotations

import random
from typing import Optional

from .scalar import Pair, Record, _ZERO, quadratic_roots
from .projective import (
    AffineMap,
    DegenerateConfiguration,
    GeometryError,
    HardDegeneracy,
    InfiniteInput,
    LINE_AT_INFINITY,
    Line,
    MIDPOINTS,
    OnSideline,
    Point,
    VERTICES,
    Vector,
    _ZERO_ROW,
    anticomplement,
    cevian_traces,
    combine,
    complement,
    cross,
    det3,
    isotomic,
    isotomic_ints,
    reflect_through,
    require_iso_reflection,
    row_constant_map,
    zmul,
    zscale,
    zsub,
    zsum,
)
from .conics import (
    Conic,
    inconic_from_isotomic,
    isotomic_image_of_line,
)


class OnAnticomplementarySideline(HardDegeneracy):
    flag = "on_anticomplementary_sideline"


class ConstructionInconsistency(GeometryError):
    """The dual computation paths disagreed; indicates an internal bug."""


class ExhaustedRejections(GeometryError):
    pass


class DegeneracyReport(Record):
    """Exact polynomial membership flags for the special loci of p: four
    bools, and h_is_vertex, one of "A", "B", "C" or None."""

    __slots__ = _fields = (
        "on_sideline",
        "on_anticomplementary_sideline",
        "on_median",
        "on_steiner_circumellipse",
        "h_is_vertex",
    )

    def hard(self) -> bool:
        return self.on_sideline or self.on_anticomplementary_sideline

    def any(self) -> bool:
        return (
            self.hard()
            or self.on_median
            or self.on_steiner_circumellipse
            or self.h_is_vertex is not None
        )


def _report_and_forms(
    p: Point,
) -> tuple[DegeneracyReport, list[Pair], Vector, tuple[Pair, Pair, Pair]]:
    """degeneracy_report(p) and the one table of p's forms, each product of
    two coordinates of p = (x_0 : x_1 : x_2) made here and nowhere else: the
    squares x_k^2; the products P_k = x_l x_m of the other two coordinates,
    which are the coordinates of the isotomic conjugate; and the locus forms
    e = (s - x_0^2, s - x_1^2, s - x_2^2) for s = P_0 + P_1 + P_2.  s
    vanishes on the outer centroid ellipse, and e_k off the sidelines on the
    locus of points whose orthocenter-like point is vertex k.  Centers reads
    the report, p_iso, the cevian conic and H off one call, and
    ConstructionSet its forms."""
    x, d = p.ints, p.d
    on_side = _ZERO in x
    on_anti = any(zsum((x[k - 2], x[k - 1])) == _ZERO for k in range(3))
    on_median = x[0] == x[1] or x[1] == x[2] or x[2] == x[0]
    squares = [zmul(c, c, d) for c in x]
    prods = isotomic_ints(x, d)
    s = zsum(prods)
    e = (zsub(s, squares[0]), zsub(s, squares[1]), zsub(s, squares[2]))
    h_vertex = None if on_side else next((k for k, e_k in zip("ABC", e) if e_k == _ZERO), None)
    report = DegeneracyReport(on_side, on_anti, on_median, s == _ZERO, h_vertex)
    return report, squares, prods, e


def degeneracy_report(p: Point) -> DegeneracyReport:
    return _report_and_forms(p)[0]


def _orthocenter(p: Point, e: tuple[Pair, Pair, Pair]) -> Point:
    """The orthocenter-like point H of p = (u : v : w) off the sidelines of
    both triangles: (u e_v e_w : v e_w e_u : w e_u e_v) for the locus forms
    e of p, so H is vertex k exactly where e_k vanishes."""
    d = p.d
    return Point.from_ints(d, [zmul(c, e_c, d) for c, e_c in zip(p.ints, isotomic_ints(e, d))])


def cevian_conic(p: Point, squares: list[Pair]) -> Optional[Conic]:
    """The conic through A, B, C, p and q = K(isotomic(p)) for p = (u : v : w)
    off the sidelines of both triangles, given the squares of p's
    coordinates: the isotomic image of the line
    (u(v^2 - w^2) : v(w^2 - u^2) : w(u^2 - v^2)) through the isotomic
    conjugates of p and q.  None when that line vanishes, which happens at
    the centroid alone, where p = q and a whole pencil passes through the five
    points."""
    d = p.d
    line = [zmul(c, zsub(squares[k - 2], squares[k - 1]), d) for k, c in enumerate(p.ints)]
    if all(c == _ZERO for c in line):
        return None
    return isotomic_image_of_line(Line.from_ints(d, line))


def _feuerbach_ints(x: Vector, squares: list[Pair], uvw: Pair, d: int) -> list[Pair]:
    """The center Z of the cevian conic of p = (x_0 : x_1 : x_2) off the
    medians and the hard loci, from the table's squares and uvw = x_0 x_1 x_2:
    Z_k = x_k (x_l^2 + x_m^2) - 2uvw, which is x_k (x_l - x_m)^2."""
    two_uvw = zscale(2, uvw)
    return [zsub(zmul(c, zsum((squares[k - 2], squares[k - 1])), d), two_uvw) for k, c in enumerate(x)]


def _on_parallels(
    x: Point, bases: tuple[Point, Point, Point], directions: list[Vector], d: int
) -> bool:
    """Whether x, a point over Q(sqrt(d)), lies on the line through each
    base in the matching direction, tested as a vanishing determinant of x,
    the base and the direction.  The directions are uncanonicalized vectors
    over Z[sqrt(d)]; a zero one fails the test, which would otherwise pass
    for any x.  The bases are not collinear, so the three lines are never
    one line and share one point at most: x is that point."""
    return all(
        t != _ZERO_ROW and det3((x.ints, b.ints, t), d) == _ZERO
        for b, t in zip(bases, directions)
    )


class Centers:
    """The defining objects of one driving point p.

    q is the complement of the isotomic conjugate p_iso of p (the inconic
    center).  The orthocenter-like point H is read off the vertex-locus
    forms of p, computed once for it and for the degeneracy flags, and the
    circumcenter-like point is O = K(H).  Both are checked to lie on the
    parallels to the q-trace lines through the vertices (H) and the
    midpoints (O), which define them.
    The cevian conic through A, B, C, p, q is None when p is the centroid,
    with the reason recorded in `absent`.
    """

    def __init__(self, p: Point):
        self._centers(p)

    def _centers(self, p: Point) -> tuple[list[Pair], Vector]:
        """Set the defining objects of p off its table of forms, and return
        the squares and products of that table for ConstructionSet."""
        flags, squares, prods, e = _report_and_forms(p)
        if flags.on_sideline:
            raise OnSideline(f"{p} lies on a sideline of the reference triangle")
        if flags.on_anticomplementary_sideline:
            raise OnAnticomplementarySideline(
                f"{p} lies on a sideline of the anticomplementary triangle"
            )
        self.p = p
        self.flags = flags
        self.absent: dict[str, str] = {}
        d, infinity = p.d, LINE_AT_INFINITY.ints
        self.p_iso = Point.from_ints(d, prods)
        self.q = q = complement(self.p_iso)
        self.traces = cevian_traces(p)

        self.orthocenter = _orthocenter(p, e)
        self.circumcenter = complement(self.orthocenter)
        # the point at infinity of each q-trace line, (q x t) x [1 : 1 : 1]
        directions = [cross(cross(q.ints, t.ints, d), infinity, d) for t in self.traces]
        if not (
            _on_parallels(self.orthocenter, VERTICES, directions, d)
            and _on_parallels(self.circumcenter, MIDPOINTS, directions, d)
        ):
            raise ConstructionInconsistency(
                f"formula and parallel definitions disagree at p={p}"
            )

        self.cevian_conic = cevian_conic(p, squares)
        if self.cevian_conic is None:
            self.absent["cevian_conic"] = "on_median"
        return squares, prods


class ConstructionSet(Centers):
    """Everything derived from one driving point p = (u : v : w).

    q_iso is the construction of q applied to p_iso, i.e. the complement of
    p itself.  Members that a degenerate p cannot support are None, with the
    reason recorded in `absent`.  The iso-reflection is checked as `Centers`
    checks H and O, and a failure raises out of `construct` the same way:
    `require_iso_reflection` reads its closed form as an affine reflection
    (eta - s*I of rank one and trace -2s, s its column sum) that swaps q
    with q_iso.

    Each member is a closed form in the pairs of p = (x_0 : x_1 : x_2),
    written with the sums s = (v+w, w+u, u+v), the products
    P = (vw, wu, uv), the differences D = (v-w, w-u, u-v), the forms
    a = (u^2 - vw, v^2 - wu, w^2 - uv) and the products t_j of the two sums
    other than s_j.  A map or conic is given by its entry at row k, column
    j, diagonal / off it, with l the index other than k and j:

    - T_p: 0 / x_k t_j, and T_p': 0 / x_l t_j;
    - T_p^-1: -s_k P_k / s_k P_j, and T_p'^-1: -s_k x_k^2 / s_k x_k x_j;
    - the transfer map T_p' T_p^-1: P_k s_k / P_j (x_j - x_l), and its
      inverse x_k^2 s_k / x_k x_j (x_l - x_j);
    - four maps of the shape c 1^T + m I (`row_constant_map`), whose row k
      is c_k in every column plus m on the diagonal, with uvw = x_0 x_1 x_2:
      T_p T_p' has c = x_k^2 s_k and T_p' T_p has c = P_k s_k, both with
      m = 2uvw; T_p K^-1 T_p' has c = S = x_k s_k^2 and m = -4uvw, and that
      map followed by K^-1 has c = Z = x_k D_k^2 = x_k (x_l^2 + x_m^2) - 2uvw
      ({l, m} the indices other than k) and m = 8uvw;
    - the iso-reflection: -D_k x_k a_l a_m ({l, m} the indices other than
      k) / D_j s_k a_k a_j;
    - the inconics with perspectors p and p_iso: P_k^2 / -P_k P_j and
      x_k^2 / -x_k x_j; the nine-point conic of A, B, C, p_iso: -2 x_k /
      x_k + x_j;
    - the circumconic, with L = (q_0^2, q_1^2, q_2^2): 0 / L_l, and its
      complement, the nine-point conic N_H of A, B, C, H: L_k - L_j - L_l
      ({j, l} the indices other than k) / L_l.

    The points are H' = isotomic(c) for c = (u + v + w) p - P, the
    preimage T_p^-1(H) = x_k s_k (x_k (x_l^2 + x_m^2) - s_k a_k) ({l, m}
    the indices other than k), the axis point v = x_k (s_k^2 - P_k), the
    insimilicenter S (q * q_iso coordinatewise), Z (`_feuerbach_ints`) and
    the nine-point center K(O).  None divides out a polynomial content: each
    is built at the degree it keeps once canonical.

    The squares x_k^2 and the products P come from the one table of p's
    forms (`_report_and_forms`), which `Centers` reads too and hands on;
    the inconic with perspector p_iso is x_k^2 on the diagonal and -P_l
    off it.  The other entries are read off tables of shared products,
    each product made once: x_k t_j (k != j) is T_p, whose entry at (l, j)
    is that of T_p' at (k, j); s_k P_j is T_p^-1, and its diagonal P_k s_k
    is also that of the transfer map and the c of T_p' T_p; s_k x_k x_j is
    T_p'^-1, and its diagonal x_k^2 s_k is also that of the transfer
    inverse and the c of T_p T_p'; P_j (x_j - x_l) serves the transfer map
    and its inverse.  s_k x_k also serves H~ and S, and s_k a_k serves H~
    and the iso-reflection.  Z is read off the squares of the table, and H~
    off Z: H~_k = s_k x_k (Z_k + 2uvw - s_k a_k).  The isotomic products
    t of s, H' of c and a_l a_m of a come from `isotomic_ints`.  v and c
    need no product of their own: v_k = S_k - uvw, since x_k P_k = uvw,
    and c_k = x_k^2 + s_k x_k - P_k.
    """

    def __init__(self, p: Point):
        squares, prods = self._centers(p)
        p_iso, q = self.p_iso, self.q
        self.q_iso = q_iso = complement(p)
        d, x = p.d, p.ints
        r = range(3)

        s = [zsum((x[k - 2], x[k - 1])) for k in r]
        a = [zsub(sq, pk) for sq, pk in zip(squares, prods)]
        t = isotomic_ints(s, d)
        # the shared products (see the class docstring)
        xt = [[_ZERO if k == j else zmul(x[k], t[j], d) for j in r] for k in r]  # x_k t_j
        sp = [[zmul(sk, pj, d) for pj in prods] for sk in s]  # s_k P_j
        sx = [zmul(sk, xk, d) for sk, xk in zip(s, x)]  # s_k x_k
        sxx = [[zmul(sxk, xj, d) for xj in x] for sxk in sx]  # s_k x_k x_j
        pd = [  # P_j (x_j - x_l)
            [_ZERO if j == l else zmul(prods[j], zsub(x[j], x[l]), d) for l in r] for j in r
        ]
        sa = [zmul(sk, ak, d) for sk, ak in zip(s, a)]  # s_k a_k
        uvw = zmul(x[0], prods[0], d)
        big_z = _feuerbach_ints(x, squares, uvw, d)

        self.traces_iso = tuple(
            Point.from_ints(d, [_ZERO if k == j else x[3 - j - k] for k in r])
            for j in r
        )
        self.cevian_map = AffineMap.from_ints(d, xt)
        self.cevian_map_inverse = AffineMap.from_ints(d, [
            [zscale(-1, sp[k][j]) if k == j else sp[k][j] for j in r] for k in r
        ])
        self.cevian_map_iso = AffineMap.from_ints(d, [
            [_ZERO if k == j else xt[3 - k - j][j] for j in r] for k in r
        ])
        self.cevian_map_iso_inverse = AffineMap.from_ints(d, [
            [zscale(-1, sxx[k][j]) if k == j else sxx[k][j] for j in r] for k in r
        ])

        # (u + v + w) x_k - P_k
        c = [zsub(zsum((sq, sxk)), pk) for sq, sxk, pk in zip(squares, sx, prods)]
        self.orthocenter_iso = Point.from_ints(d, isotomic_ints(c, d))
        self.circumcenter_iso = complement(self.orthocenter_iso)
        # x_k (x_l^2 + x_m^2) - s_k a_k, where x_k (x_l^2 + x_m^2) = Z_k + 2uvw
        two_uvw = zscale(2, uvw)
        self.orthocenter_preimage = Point.from_ints(d, [
            zmul(sx[k], zsub(zsum((big_z[k], two_uvw)), sa[k]), d) for k in r
        ])

        self.transfer_map = AffineMap.from_ints(d, [
            [sp[k][k] if k == j else pd[j][3 - k - j] for j in r] for k in r
        ])
        self.transfer_map_inverse = AffineMap.from_ints(d, [
            [sxx[k][k] if k == j else pd[3 - k - j][j] for j in r] for k in r
        ])
        self.second_cevian_map = row_constant_map(d, [sxx[k][k] for k in r], two_uvw)
        self.second_cevian_map_iso = row_constant_map(d, [sp[k][k] for k in r], two_uvw)
        big_s = [zmul(sxk, sk, d) for sxk, sk in zip(sx, s)]
        self.circum_to_inconic = row_constant_map(d, big_s, zscale(-4, uvw))
        self.ninepoint_to_inconic = row_constant_map(d, big_z, zscale(8, uvw))

        self.ninepoint_conic_iso = Conic.from_ints(d, [
            [zscale(-2, x[k]) if k == j else zsum((x[k], x[j])) for j in r] for k in r
        ])
        q_squares = [zmul(qk, qk, d) for qk in q.ints]
        self.circumconic = isotomic_image_of_line(  # sum u^2(v+w)^2 yz = 0
            Line.from_ints(d, q_squares)
        )
        self.ninepoint_conic = Conic.from_ints(d, [[
            zsub(q_squares[k], zsum((q_squares[k - 1], q_squares[k - 2])))
            if k == j else q_squares[3 - k - j]
            for j in r
        ] for k in r])
        self.ninepoint_center = complement(self.circumcenter)
        self.inconic = inconic_from_isotomic(p_iso.ints, d)
        self.inconic_iso = Conic.from_ints(d, [
            [squares[k] if k == j else zscale(-1, prods[3 - k - j]) for j in r] for k in r
        ])

        self.v: Optional[Point] = None
        self.iso_reflection: Optional[AffineMap] = None
        self.insimilicenter: Optional[Point] = None
        self.feuerbach_point: Optional[Point] = None
        self.fourth_intersection: Optional[Point] = None
        if self.flags.on_median:
            for name in ("v", "iso_reflection", "insimilicenter", "feuerbach_point", "fourth_intersection"):
                self.absent[name] = "on_median"
        else:
            # v is pq . p_iso q_iso, a meet of two lines that differ off the
            # medians; it is infinite exactly when p is at infinity or on the
            # outer ellipse, and it is the centroid only on a median.  Its
            # x_k (s_k^2 - P_k) is S_k - uvw, since x_k P_k = uvw
            self.v = Point.from_ints(d, [zsub(bk, uvw) for bk in big_s])
            if self.v.is_infinite():
                self.absent["iso_reflection"] = f"axis point {self.v} unusable"
            else:
                diffs = [zsub(x[k - 2], x[k - 1]) for k in r]  # D
                ad = [zmul(aj, dj, d) for aj, dj in zip(a, diffs)]  # a_j D_j
                xd = [zmul(xk, dk, d) for xk, dk in zip(x, diffs)]  # x_k D_k
                aa = isotomic_ints(a, d)  # a_l a_m
                eta = AffineMap.from_ints(d, [[
                    zscale(-1, zmul(xd[k], aa[k], d))
                    if k == j else zmul(sa[k], ad[j], d)
                    for j in r
                ] for k in r])
                self.iso_reflection = require_iso_reflection(eta, q, q_iso)
            # the fixed point of circum_to_inconic, where the lines oq, o'q'
            # and the axis gv meet.  Off the medians two of them differ: v is
            # not G, G lies on oq only where O = q (on the outer ellipse) and
            # on o'q' only where O' = q' (at infinity), and no real p is
            # both.  Every such meet is S = q * q_iso coordinatewise,
            # (u(v+w)^2 : v(w+u)^2 : w(u+v)^2)
            self.insimilicenter = Point.from_ints(d, big_s)
            # off the medians the cevian conic is proper, with center Z
            self.feuerbach_point = Point.from_ints(d, big_z)
            try:
                self.fourth_intersection = reflect_through(
                    self.circumcenter, anticomplement(self.feuerbach_point)
                )
            except InfiniteInput:
                self.absent["fourth_intersection"] = "circumcenter at infinity"


def construct(p: Point) -> ConstructionSet:
    """Derive the complete configuration of p, every member computed."""
    return ConstructionSet(p)


# ---------------------------------------------------------------------------
# the four-point family


class AnticevianFamily(Record):
    """Anticevian triangle of q plus the three sibling driving points that
    share p's orthocenter-like and circumcenter-like points."""

    __slots__ = _fields = ("q_a", "q_b", "q_c", "p_a", "p_b", "p_c")

    def siblings(self) -> tuple[Point, Point, Point]:
        return (self.p_a, self.p_b, self.p_c)


def anticevian_family(cs: ConstructionSet) -> AnticevianFamily:
    if cs.flags.on_median:
        raise DegenerateConfiguration("anticevian family needs p off the medians")
    tinv = cs.cevian_map_iso_inverse
    q_a, q_b, q_c = (tinv(v) for v in VERTICES)
    p_a, p_b, p_c = (isotomic(anticomplement(x)) for x in (q_a, q_b, q_c))
    return AnticevianFamily(q_a, q_b, q_c, p_a, p_b, p_c)


# ---------------------------------------------------------------------------
# the locus of points whose orthocenter-like point is a vertex


def locus_conic(vertex: str) -> Conic:
    """Conic carrying every p whose orthocenter-like point is the given
    vertex (minus its four base points): x_v^2 = xy + yz + zx for the
    vertex coordinate x_v, the identity `degeneracy_report` tests.  Tests
    check its base points (the other two vertices and the midpoints of the
    sides through the vertex) and its tangents there."""
    k = {"A": 0, "B": 1, "C": 2}.get(vertex)
    if k is None:
        raise ValueError(f"vertex must be A, B, or C, not {vertex!r}")
    return Conic([[-2 if i == j == k else int(i != j) for j in range(3)] for i in range(3)])


# ---------------------------------------------------------------------------
# the sweep of cevian-conic centers (display only)


_Z_LOCUS_SAMPLES = 80  # sweep positions on each side of p


def z_locus_sweep(p: Point, toward: Point) -> list[Point]:
    """Centers of the cevian conics as the driving point slides along the
    line through p toward the rational point at infinity `toward` (the CLI
    passes the direction perpendicular to side BC in the render triangle).
    Display only: each sample is exact, the sweep itself is a finite
    sampling.  Sample k is p/w + k/(3*count) * toward, scaled by 3*count*w."""
    if p.is_infinite():
        raise InfiniteInput(f"--z-locus sweeps from a finite p, and {p} is at infinity")
    direction = toward.ints
    w = p._weight()
    count = _Z_LOCUS_SAMPLES
    out: list[Point] = []
    for k in range(-count, count + 1):
        if k == 0:
            continue
        moved = Point.from_ints(p.d, combine((3 * count, 0), p.ints, zscale(k, w), direction, p.d))
        rep, squares, prods, _ = _report_and_forms(moved)
        if rep.hard() or rep.on_median:
            continue  # off the medians the cevian conic is a proper conic
        x, d = moved.ints, moved.d
        out.append(Point.from_ints(d, _feuerbach_ints(x, squares, zmul(x[0], prods[0], d), d)))
    return out


# ---------------------------------------------------------------------------
# the sqrt(2) configuration


def special_configuration_point() -> Point:
    """The point over Q(sqrt(2)) whose orthocenter-like point is A while the
    p_iso trace on BC bisects the segment from A to p_iso.

    Those two conditions reduce to y + z = 2x and yz = -x^2; with x = 1 the
    coordinates solve t^2 - 2t - 1 = 0, whose discriminant 8 asks
    `quadratic_roots` for sqrt(2); the roots n1 / den and n2 / den give the
    point (den : n1 : n2).
    """
    roots = quadratic_roots((1, 0), (-2, 0), (-1, 0), 1)
    return Point.from_ints(roots.d, (roots.den, *roots.nums))


# ---------------------------------------------------------------------------
# sampling


_SAMPLE_BOUND = 50  # largest absolute coordinate of a sampled point
_SAMPLE_LIMIT = 10_000  # most points one call returns, and most draws it rejects


def sample_nondegenerate(seed: int, count: int) -> list[Point]:
    """Deterministic rational points clear of every degeneracy flag.

    Small integer coordinates keep coefficient growth bounded through the
    dozen-odd matrix compositions each configuration performs.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    if count > _SAMPLE_LIMIT:
        raise ValueError(f"count must be at most {_SAMPLE_LIMIT}")
    rng = random.Random(seed)
    points: list[Point] = []
    rejections = 0
    while len(points) < count:
        coords = tuple(rng.randint(-_SAMPLE_BOUND, _SAMPLE_BOUND) for _ in range(3))
        if 0 in coords or degeneracy_report(p := Point(*coords)).any():
            rejections += 1
            if rejections > _SAMPLE_LIMIT:
                raise ExhaustedRejections(f"10^4 rejections at seed {seed}")
            continue
        points.append(p)
    return points
