"""The full construction pipeline: from a driving point p, every derived
point, affine map, and conic of the generalized-center configuration.

Degeneracy is graded.  A point on a sideline of the reference triangle or of
its anticomplementary triangle is a hard error (nothing is constructible).
A point on a median keeps the central objects but loses the members that
need the reflection axis (v, the iso-reflection, the insimilicenter, the
cevian-conic center); a point on the outer centroid ellipse collapses the
orthocenter, circumcenter, and inconic center into one infinite point.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING, Optional

from .scalar import NeedsExtension, Scalar, TwoRoots, solve_quadratic
from .projective import (
    AffineMap,
    CENTROID,
    CoincidentArguments,
    DegenerateConfiguration,
    GeometryError,
    InfiniteInput,
    Line,
    MID_AB,
    MID_BC,
    MID_CA,
    MIDPOINTS,
    OnSideline,
    Point,
    VERTEX_A,
    VERTEX_B,
    VERTEX_C,
    VERTICES,
    anticomplement,
    anticomplement_map,
    cevian_map,
    cevian_traces,
    common_point,
    complement,
    complement_map,
    iso_reflection_map,
    isotomic,
    join,
    meet,
    null_space,
    parallel_through,
    reflect_through,
)
from .conics import (
    Conic,
    RankDeficient,
    conic_from_vector,
    conic_row,
    conic_through_five,
    inconic_with_contacts,
    nine_point_conic,
    polar_rows,
    transform_conic,
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


def degeneracy_report(p: Point) -> DegeneracyReport:
    x, y, z = p.coords
    on_side = x.is_zero() or y.is_zero() or z.is_zero()
    on_anti = (y + z).is_zero() or (z + x).is_zero() or (x + y).is_zero()
    on_median = (x - y).is_zero() or (y - z).is_zero() or (z - x).is_zero()
    s = x * y + y * z + z * x
    on_steiner = s.is_zero()
    h_vertex = None
    if not on_side:
        if s == x * x:
            h_vertex = "A"
        elif s == y * y:
            h_vertex = "B"
        elif s == z * z:
            h_vertex = "C"
    return DegeneracyReport(on_side, on_anti, on_median, on_steiner, h_vertex)


@dataclass
class ConstructionSet:
    """Everything derived from one driving point.

    q is the complement of the isotomic conjugate of p (the inconic center);
    q_iso is the same construction applied to p_iso, i.e. the complement of
    p itself.  Members that a degenerate p cannot support are None, with the
    reason recorded in `absent`.
    """

    p: Point
    p_iso: Point
    q: Point
    q_iso: Point
    traces: tuple[Point, Point, Point]
    traces_iso: tuple[Point, Point, Point]
    orthocenter: Point
    circumcenter: Point
    orthocenter_iso: Point
    circumcenter_iso: Point
    ninepoint_center: Point
    orthocenter_preimage: Point
    cevian_map: AffineMap
    cevian_map_iso: AffineMap
    transfer_map: AffineMap
    second_cevian_map: AffineMap
    second_cevian_map_iso: AffineMap
    circum_to_inconic: AffineMap
    ninepoint_to_inconic: AffineMap
    circumconic: Conic
    ninepoint_conic_iso: Conic
    ninepoint_conic: Conic
    inconic: Conic
    inconic_iso: Conic
    flags: DegeneracyReport
    v: Optional[Point] = None
    iso_reflection: Optional[AffineMap] = None
    insimilicenter: Optional[Point] = None
    cevian_conic: Optional[Conic] = None
    feuerbach_point: Optional[Point] = None
    fourth_intersection: Optional[Point] = None
    absent: dict = field(default_factory=dict)

    @property
    def extension_d(self) -> int:
        return max(c.d for c in self.p.coords)


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


def construct(p: Point) -> ConstructionSet:
    """Derive the complete configuration of p.  The orthocenter-like and
    circumcenter-like points are computed independently from the affine
    formula and from the defining parallels, and must agree exactly."""
    flags = degeneracy_report(p)
    if flags.on_sideline:
        raise OnSideline(f"{p} lies on a sideline of the reference triangle")
    if flags.on_anticomplementary_sideline:
        raise OnAnticomplementarySideline(
            f"{p} lies on a sideline of the anticomplementary triangle"
        )
    p_iso = isotomic(p)
    q = complement(p_iso)
    q_iso = complement(p)
    traces = cevian_traces(p)
    traces_iso = cevian_traces(p_iso)
    t_p = cevian_map(p)
    t_p_iso = cevian_map(p_iso)
    t_p_inv = t_p.inverse()
    t_p_iso_inv = t_p_iso.inverse()
    kmap = complement_map()
    kinv = anticomplement_map()

    circumcenter = t_p_iso_inv(complement(q))
    orthocenter = anticomplement(circumcenter)
    h_direct = _concurrent_parallels(VERTICES, q, traces)
    o_direct = _concurrent_parallels(MIDPOINTS, q, traces)
    if h_direct != orthocenter or o_direct != circumcenter:
        raise ConstructionInconsistency(
            f"formula and parallel definitions disagree at p={p}"
        )
    circumcenter_iso = t_p_inv(complement(q_iso))
    orthocenter_iso = anticomplement(circumcenter_iso)

    transfer = t_p_iso @ t_p_inv
    second_cev = t_p @ t_p_iso
    second_cev_iso = t_p_iso @ t_p
    circum_to_inconic = t_p @ kinv @ t_p_iso
    ninepoint_to_inconic = circum_to_inconic @ kinv

    ninepoint_iso = nine_point_conic((*VERTICES, p_iso))
    circumconic = transform_conic(t_p_iso_inv, ninepoint_iso)
    ninepoint = transform_conic(kmap, circumconic)
    inconic = inconic_with_contacts(*traces)
    inconic_iso = inconic_with_contacts(*traces_iso)

    cs = ConstructionSet(
        p=p,
        p_iso=p_iso,
        q=q,
        q_iso=q_iso,
        traces=traces,
        traces_iso=traces_iso,
        orthocenter=orthocenter,
        circumcenter=circumcenter,
        orthocenter_iso=orthocenter_iso,
        circumcenter_iso=circumcenter_iso,
        ninepoint_center=ninepoint.center(),
        orthocenter_preimage=t_p_inv(orthocenter),
        cevian_map=t_p,
        cevian_map_iso=t_p_iso,
        transfer_map=transfer,
        second_cevian_map=second_cev,
        second_cevian_map_iso=second_cev_iso,
        circum_to_inconic=circum_to_inconic,
        ninepoint_to_inconic=ninepoint_to_inconic,
        circumconic=circumconic,
        ninepoint_conic_iso=ninepoint_iso,
        ninepoint_conic=ninepoint,
        inconic=inconic,
        inconic_iso=inconic_iso,
        flags=flags,
    )

    try:
        cs.cevian_conic = conic_through_five((*VERTICES, p, q))
    except RankDeficient:
        cs.absent["cevian_conic"] = "on_median"
    if cs.cevian_conic is not None:
        if cs.cevian_conic.is_degenerate():
            cs.absent["feuerbach_point"] = "on_median"
        else:
            cs.feuerbach_point = cs.cevian_conic.center()

    if flags.on_median:
        for name in ("v", "iso_reflection", "insimilicenter"):
            cs.absent[name] = "on_median"
    else:
        try:
            cs.v = meet(join(p, q), join(p_iso, q_iso))
        except CoincidentArguments:
            cs.absent["v"] = "axis point undetermined"
        try:
            cs.iso_reflection = iso_reflection_map(p, p_iso, q, q_iso)
        except DegenerateConfiguration as exc:
            cs.absent["iso_reflection"] = str(exc)
        cs.insimilicenter = _insimilicenter(cs)
        if cs.insimilicenter is None:
            cs.absent["insimilicenter"] = "center lines coincide"

    if cs.feuerbach_point is not None:
        try:
            cs.fourth_intersection = reflect_through(
                cs.circumcenter, anticomplement(cs.feuerbach_point)
            )
        except InfiniteInput:
            cs.absent["fourth_intersection"] = "circumcenter at infinity"
    elif "feuerbach_point" in cs.absent:
        cs.absent["fourth_intersection"] = cs.absent["feuerbach_point"]
    else:
        cs.absent["feuerbach_point"] = cs.absent.get("cevian_conic", "on_median")
        cs.absent["fourth_intersection"] = cs.absent["feuerbach_point"]
    return cs


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
    tinv = cs.cevian_map_iso.inverse()
    q_a, q_b, q_c = (tinv(v) for v in VERTICES)
    p_a, p_b, p_c = (isotomic(anticomplement(x)) for x in (q_a, q_b, q_c))
    return AnticevianFamily(q_a, q_b, q_c, p_a, p_b, p_c)


# ---------------------------------------------------------------------------
# the locus of points whose orthocenter-like point is a vertex


_LOCUS_DATA = {
    # vertex -> (four conic points, tangency contact, tangent line)
    "A": ((VERTEX_B, VERTEX_C, MID_CA, MID_AB), VERTEX_B, Line(1, 0, 1)),
    "B": ((VERTEX_C, VERTEX_A, MID_AB, MID_BC), VERTEX_C, Line(1, 1, 0)),
    "C": ((VERTEX_A, VERTEX_B, MID_BC, MID_CA), VERTEX_A, Line(0, 1, 1)),
}


def locus_conic(vertex: str) -> Conic:
    """Conic carrying every p whose orthocenter-like point is the given
    vertex (minus its four base points).  Built from the four base points
    plus one tangency; the symmetric tangency at the other vertex and the
    closed-form equation are asserted by tests, not assumed."""
    try:
        points, contact, tangent = _LOCUS_DATA[vertex]
    except KeyError:
        raise ValueError(f"vertex must be A, B, or C, not {vertex!r}")
    rows = [conic_row(pt) for pt in points]
    polar = polar_rows(contact)
    l, m, n = tangent.coords
    # cross(C.contact, tangent) = 0: three rows, two independent
    for i, j, ci, cj in ((1, 2, n, m), (2, 0, l, n), (0, 1, m, l)):
        rows.append(tuple(ci * a - cj * b for a, b in zip(polar[i], polar[j])))
    basis = null_space(rows, 6)
    if len(basis) != 1:
        raise RankDeficient("locus system is not rank five")  # pragma: no cover
    return conic_from_vector(basis[0])


# ---------------------------------------------------------------------------
# the sweep of cevian-conic centers (display only)


def z_locus_sweep(p: Point, tri: RenderTriangle, count: int = 80) -> list[Point]:
    """Centers of the cevian conics as the driving point slides along the
    line through p perpendicular to side BC in the render triangle.  Display
    only: each sample is exact, the sweep itself is a finite sampling."""
    (bx, by), (cx, cy) = tri.b, tri.c
    dx, dy = -(cy - by), cx - bx
    rows = (
        (tri.b[1] - tri.c[1], tri.c[0] - tri.b[0]),
        (tri.c[1] - tri.a[1], tri.a[0] - tri.c[0]),
        (tri.a[1] - tri.b[1], tri.b[0] - tri.a[0]),
    )
    direction = Point(*(Scalar(r[0] * dx + r[1] * dy) for r in rows))
    base = p.normalized()
    out: list[Point] = []
    for k in range(-count, count + 1):
        if k == 0:
            continue
        t = Fraction(k, 3 * count)
        moved = Point(*(base[i] + t * direction.coords[i] for i in range(3)))
        rep = degeneracy_report(moved)
        if rep.hard() or rep.on_median:
            continue
        q = complement(isotomic(moved))
        try:
            conic = conic_through_five((*VERTICES, moved, q))
        except RankDeficient:
            continue
        if conic.is_degenerate():
            continue
        out.append(conic.center())
    return out


# ---------------------------------------------------------------------------
# the sqrt(2) configuration


def special_configuration_point() -> Point:
    """The point over Q(sqrt(2)) whose orthocenter-like point is A while the
    p_iso trace on BC bisects the segment from A to p_iso.

    Those two conditions reduce to y + z = 2x and yz = -x^2; with x = 1 the
    coordinates solve t^2 - 2t - 1 = 0, which forces the field extension.
    """
    first = solve_quadratic(1, -2, -1)
    assert isinstance(first, NeedsExtension)
    lifted = solve_quadratic(1, -2, -1, field_d=first.d)
    assert isinstance(lifted, TwoRoots)
    return Point(Scalar(1), lifted.r1, lifted.r2)


def special_configuration() -> ConstructionSet:
    return construct(special_configuration_point())


# ---------------------------------------------------------------------------
# sampling


def sample_nondegenerate(
    seed: int, count: int, bound: int = 50
) -> list[Point]:
    """Deterministic rational points clear of every degeneracy flag.

    Small integer coordinates keep coefficient growth bounded through the
    dozen-odd matrix compositions each configuration performs.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    rng = random.Random(seed)
    points: list[Point] = []
    attempts = 0
    while len(points) < count:
        attempts += 1
        if attempts > 10_000:
            raise ExhaustedRejections(f"10^4 rejections at seed {seed}")
        coords = tuple(rng.randint(-bound, bound) for _ in range(3))
        if any(c == 0 for c in coords):
            continue
        candidate = Point(*coords)
        if degeneracy_report(candidate).any():
            continue
        points.append(candidate)
    return points
