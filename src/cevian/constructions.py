"""The full construction pipeline: from a driving point p, every derived
point, affine map, and conic of the generalized-center configuration.

`Centers(p)` holds the defining objects: q = K(isotomic(p)), the
orthocenter-like point H read off the vertex-locus forms of p, O = K(H),
both checked against the common points of the parallels through the
vertices and the midpoints, and the cevian conic through A, B, C, p, q,
whose center is Z.  The affine formula O = T_p_iso^-1(K(q)) runs only in
the check `thm_HO_formula`.  `ConstructionSet` adds every other member,
`construct(p)` builds one, and the anticevian siblings need only `Centers`.

Degeneracy is graded.  A point on a sideline of the reference triangle or of
its anticomplementary triangle is a hard error (nothing is constructible).
A point on a median keeps the central objects but loses the members that
need the reflection axis (v, the iso-reflection, the insimilicenter, the
cevian-conic center); a point on the outer centroid ellipse collapses the
orthocenter, circumcenter, and inconic center into one infinite point.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from .scalar import NeedsExtension, Pair, Roots, quadratic_roots
from .projective import (
    AffineMap,
    CENTROID,
    CoincidentArguments,
    DegenerateConfiguration,
    GeometryError,
    InfiniteInput,
    Line,
    MIDPOINTS,
    OnSideline,
    Point,
    VERTICES,
    anticomplement,
    anticomplement_map,
    cevian_map,
    cevian_traces,
    combine,
    common_point,
    complement,
    complement_map,
    iso_reflection_map,
    isotomic,
    join,
    meet,
    parallel_through,
    reflect_through,
    reflection_axis_point,
    zmul,
    zscale,
    zsub,
    zsum,
)
from .conics import (
    Conic,
    inconic_with_contacts,
    isotomic_image_of_line,
    transform_conic,
    vertex_nine_point_conic,
)

if TYPE_CHECKING:
    from .render import RenderTriangle


class OnAnticomplementarySideline(GeometryError):
    pass


class ConstructionInconsistency(GeometryError):
    """The dual computation paths disagreed; indicates an internal bug."""


class ExhaustedRejections(GeometryError):
    pass


@dataclass(frozen=True)
class DegeneracyReport:
    """Exact polynomial membership flags for the special loci of p."""

    on_sideline: bool
    on_anticomplementary_sideline: bool
    on_median: bool
    on_steiner_circumellipse: bool
    h_is_vertex: Optional[str]  # "A", "B", "C", or None

    def hard(self) -> bool:
        return self.on_sideline or self.on_anticomplementary_sideline

    def any(self) -> bool:
        return (
            self.hard()
            or self.on_median
            or self.on_steiner_circumellipse
            or self.h_is_vertex is not None
        )


def _locus_forms(p: Point) -> tuple[Pair, tuple[Pair, ...]]:
    """s = xy + yz + zx and e = (s - x^2, s - y^2, s - z^2) at p = (x : y : z).
    s vanishes on the outer centroid ellipse, and e_k off the sidelines on
    the locus of points whose orthocenter-like point is vertex k."""
    (x, y, z), d = p.ints, p.d
    s = zsum((zmul(x, y, d), zmul(y, z, d), zmul(z, x, d)))
    return s, tuple(zsub(s, zmul(c, c, d)) for c in p.ints)


def degeneracy_report(p: Point) -> DegeneracyReport:
    x, y, z = p.ints
    on_side = (0, 0) in p.ints
    on_anti = any(zsum(pair) == (0, 0) for pair in ((y, z), (z, x), (x, y)))
    on_median = x == y or y == z or z == x
    s, e = _locus_forms(p)
    h_vertex = None if on_side else next((k for k, e_k in zip("ABC", e) if e_k == (0, 0)), None)
    return DegeneracyReport(on_side, on_anti, on_median, s == (0, 0), h_vertex)


def generalized_orthocenter(p: Point) -> Point:
    """The orthocenter-like point H of p = (u : v : w) off the sidelines of
    both triangles: (u e_v e_w : v e_w e_u : w e_u e_v) for the locus forms
    e of p, so H is vertex k exactly where e_k vanishes."""
    d, (_, e) = p.d, _locus_forms(p)
    others = (zmul(e[1], e[2], d), zmul(e[2], e[0], d), zmul(e[0], e[1], d))
    return Point.from_ints(d, [zmul(c, e_c, d) for c, e_c in zip(p.ints, others)])


def cevian_conic(p: Point, q: Point) -> Optional[Conic]:
    """The conic through A, B, C, p and q: the isotomic image of the line
    through their isotomic conjugates.  None when p = q (p the centroid),
    where a whole pencil passes through the five points."""
    try:
        return isotomic_image_of_line(join(isotomic(p), isotomic(q)))
    except CoincidentArguments:
        return None


def _concurrent_parallels(
    bases: tuple[Point, Point, Point],
    q: Point,
    traces: tuple[Point, Point, Point],
) -> Point:
    """Common point of the lines through the bases parallel to the q-trace
    lines; raises if the three parallels fail to concur."""
    lines = [parallel_through(b, join(q, t)) for b, t in zip(bases, traces)]
    try:
        common = common_point(lines)
    except CoincidentArguments as exc:
        raise DegenerateConfiguration("parallels all coincide") from exc
    if common is None:
        raise ConstructionInconsistency("parallels are not concurrent")
    return common


class Centers:
    """The defining objects of one driving point p.

    q is the complement of the isotomic conjugate p_iso of p (the inconic
    center).  The orthocenter-like point H is `generalized_orthocenter(p)`,
    read off the vertex-locus forms, and the circumcenter-like point is
    O = K(H).  Both are checked against the common points of the parallels
    to the q-trace lines through the vertices (H) and the midpoints (O).
    The cevian conic through A, B, C, p, q is None when p lies on a median,
    with the reason recorded in `absent`.
    """

    def __init__(self, p: Point):
        flags = degeneracy_report(p)
        if flags.on_sideline:
            raise OnSideline(f"{p} lies on a sideline of the reference triangle")
        if flags.on_anticomplementary_sideline:
            raise OnAnticomplementarySideline(
                f"{p} lies on a sideline of the anticomplementary triangle"
            )
        self.p = p
        self.flags = flags
        self.absent: dict[str, str] = {}
        self.p_iso = isotomic(p)
        self.q = q = complement(self.p_iso)
        self.traces = cevian_traces(p)

        self.orthocenter = generalized_orthocenter(p)
        self.circumcenter = complement(self.orthocenter)
        h_direct = _concurrent_parallels(VERTICES, q, self.traces)
        o_direct = _concurrent_parallels(MIDPOINTS, q, self.traces)
        if h_direct != self.orthocenter or o_direct != self.circumcenter:
            raise ConstructionInconsistency(
                f"formula and parallel definitions disagree at p={p}"
            )

        self.cevian_conic = cevian_conic(p, q)
        if self.cevian_conic is None:
            self.absent["cevian_conic"] = "on_median"

    @property
    def extension_d(self) -> int:
        return self.p.d


class ConstructionSet(Centers):
    """Everything derived from one driving point.

    q_iso is the construction of q applied to p_iso, i.e. the complement of
    p itself.  Members that a degenerate p cannot support are None, with the
    reason recorded in `absent`.
    """

    def __init__(self, p: Point):
        super().__init__(p)
        p_iso, q = self.p_iso, self.q
        self.q_iso = q_iso = complement(p)
        self.traces_iso = cevian_traces(p_iso)
        self.cevian_map = t_p = cevian_map(p)
        self.cevian_map_inverse = t_p_inv = t_p.inverse()
        self.cevian_map_iso = t_p_iso = cevian_map(p_iso)
        self.cevian_map_iso_inverse = t_p_iso.inverse()
        kinv = anticomplement_map()

        self.orthocenter_iso = generalized_orthocenter(p_iso)
        self.circumcenter_iso = complement(self.orthocenter_iso)
        self.orthocenter_preimage = t_p_inv(self.orthocenter)

        self.transfer_map = t_p_iso @ t_p_inv
        self.transfer_map_inverse = self.transfer_map.inverse()
        self.second_cevian_map = t_p @ t_p_iso
        self.second_cevian_map_iso = t_p_iso @ t_p
        self.circum_to_inconic = t_p @ kinv @ t_p_iso
        self.ninepoint_to_inconic = self.circum_to_inconic @ kinv

        self.ninepoint_conic_iso = vertex_nine_point_conic(p_iso)
        squares = [zmul(c, c, p.d) for c in q.ints]  # sum u^2(v+w)^2 yz = 0
        self.circumconic = isotomic_image_of_line(Line.from_ints(p.d, squares))
        self.ninepoint_conic = transform_conic(complement_map(), self.circumconic)
        self.ninepoint_center = self.ninepoint_conic.center()
        self.inconic = inconic_with_contacts(*self.traces)
        self.inconic_iso = inconic_with_contacts(*self.traces_iso)

        self.v: Optional[Point] = None
        self.iso_reflection: Optional[AffineMap] = None
        self.insimilicenter: Optional[Point] = None
        if self.flags.on_median:
            for name in ("v", "iso_reflection", "insimilicenter"):
                self.absent[name] = "on_median"
        else:
            try:
                self.v = reflection_axis_point(p, p_iso, q, q_iso)
            except DegenerateConfiguration as exc:
                self.absent["v"] = "axis point undetermined"
                self.absent["iso_reflection"] = str(exc)
            else:
                try:
                    self.iso_reflection = iso_reflection_map(p, p_iso, q, q_iso, self.v)
                except DegenerateConfiguration as exc:
                    self.absent["iso_reflection"] = str(exc)
            self.insimilicenter = _insimilicenter(self)
            if self.insimilicenter is None:
                self.absent["insimilicenter"] = "center lines coincide"

        self.feuerbach_point: Optional[Point] = None
        self.fourth_intersection: Optional[Point] = None
        if self.cevian_conic is None or self.cevian_conic.is_degenerate():
            self.absent["feuerbach_point"] = "on_median"
            self.absent["fourth_intersection"] = "on_median"
        else:
            self.feuerbach_point = self.cevian_conic.center()
            try:
                self.fourth_intersection = reflect_through(
                    self.circumcenter, anticomplement(self.feuerbach_point)
                )
            except InfiniteInput:
                self.absent["fourth_intersection"] = "circumcenter at infinity"


def construct(p: Point) -> ConstructionSet:
    """Derive the complete configuration of p, every member computed."""
    return ConstructionSet(p)


def _insimilicenter(cs: ConstructionSet) -> Optional[Point]:
    """Fixed locus of the circumconic-to-inconic map: oq . gv (= oq . o'q');
    the meet is a direction when that map is a translation."""
    candidates = []
    if cs.circumcenter != cs.q:
        candidates.append((cs.circumcenter, cs.q))
    if cs.circumcenter_iso != cs.q_iso:
        candidates.append((cs.circumcenter_iso, cs.q_iso))
    axis = None
    if cs.v is not None and cs.v != CENTROID:
        axis = join(CENTROID, cs.v)
    for a, b in candidates:
        line = join(a, b)
        if axis is not None and line != axis:
            return meet(line, axis)
    if len(candidates) == 2:
        l1 = join(*candidates[0])
        l2 = join(*candidates[1])
        if l1 != l2:
            return meet(l1, l2)
    return None


# ---------------------------------------------------------------------------
# the four-point family


@dataclass(frozen=True)
class AnticevianFamily:
    """Anticevian triangle of q plus the three sibling driving points that
    share p's orthocenter-like and circumcenter-like points."""

    q_a: Point
    q_b: Point
    q_c: Point
    p_a: Point
    p_b: Point
    p_c: Point

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


def z_locus_sweep(p: Point, tri: RenderTriangle) -> list[Point]:
    """Centers of the cevian conics as the driving point slides along the
    line through p perpendicular to side BC in the render triangle.  Display
    only: each sample is exact, the sweep itself is a finite sampling.
    Sample k is p/w + k/(3*count) * direction, scaled by 3*count*w."""
    if p.is_infinite():
        raise InfiniteInput(f"--z-locus sweeps from a finite p, and {p} is at infinity")
    direction = tri.perpendicular_to_bc().ints
    w = p._weight()
    count = _Z_LOCUS_SAMPLES
    out: list[Point] = []
    for k in range(-count, count + 1):
        if k == 0:
            continue
        moved = Point.from_ints(p.d, combine((3 * count, 0), p.ints, zscale(k, w), direction, p.d))
        rep = degeneracy_report(moved)
        if rep.hard() or rep.on_median:
            continue  # off the medians the cevian conic is a proper conic
        out.append(cevian_conic(moved, complement(isotomic(moved))).center())
    return out


# ---------------------------------------------------------------------------
# the sqrt(2) configuration


def special_configuration_point() -> Point:
    """The point over Q(sqrt(2)) whose orthocenter-like point is A while the
    p_iso trace on BC bisects the segment from A to p_iso.

    Those two conditions reduce to y + z = 2x and yz = -x^2; with x = 1 the
    coordinates solve t^2 - 2t - 1 = 0, which forces the field extension;
    the roots n1 / den and n2 / den give the point (den : n1 : n2).
    """
    coeffs = (1, 0), (-2, 0), (-1, 0)
    first = quadratic_roots(*coeffs, 1)
    assert isinstance(first, NeedsExtension)
    lifted = quadratic_roots(*coeffs, 1, field_d=first.d)
    assert isinstance(lifted, Roots)
    return Point.from_ints(lifted.d, (lifted.den, *lifted.nums))


def special_configuration() -> ConstructionSet:
    return construct(special_configuration_point())


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
        if 0 in coords or degeneracy_report(Point(*coords)).any():
            rejections += 1
            if rejections > _SAMPLE_LIMIT:
                raise ExhaustedRejections(f"10^4 rejections at seed {seed}")
            continue
        points.append(Point(*coords))
    return points
