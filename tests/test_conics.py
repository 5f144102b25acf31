from functools import reduce
from itertools import combinations

import pytest
from hypothesis import assume, event, given, settings, strategies as st

from cevian.scalar import Scalar, combine, join_d, zmul, zscale, zsum
from cevian.projective import (
    CENTROID,
    LINE_AT_INFINITY,
    Line,
    MID_AB,
    MID_BC,
    MID_CA,
    Point,
    SIDE_BC,
    VERTEX_A,
    VERTEX_B,
    VERTEX_C,
    anticomplement,
    are_collinear,
    cevian_traces,
    complement,
    complement_map,
    incident,
    isotomic,
    join,
    meet,
    midpoint,
    null_space,
    perspector,
)
from cevian.conics import (
    Conic,
    DegenerateConic,
    DegenerateQuadrangle,
    InfinityInvolution,
    NoRealIntersection,
    NotIncident,
    NotPerspective,
    RankDeficient,
    SelfConjugate,
    TangentAt,
    TwoPoints,
    conic_from_vector,
    conic_row,
    conic_through_five,
    infinity_intersection_count,
    inconic_with_contacts,
    isotomic_image_of_line,
    line_conic_intersections,
    nine_point_conic,
    second_intersection,
    steiner_circumellipse,
    tangent_conics_at,
    transform_conic,
)
from cevian.constructions import cevian_conic, construct, degeneracy_report, locus_conic

from matrix_text import read_matrix
from projective_reference import direction_of
from test_classification import NoSuchConic, reference_circumconic_with_center

VERTICES = (VERTEX_A, VERTEX_B, VERTEX_C)

interior = st.integers(min_value=1, max_value=15)
nonzero = st.integers(min_value=-15, max_value=15).filter(lambda v: v != 0)


def test_circumconics_have_zero_diagonal():
    conic = conic_through_five((*VERTICES, CENTROID, Point(1, 2, 3)))
    assert all(conic.matrix[i][i].is_zero() for i in range(3))
    for p in (*VERTICES, CENTROID, Point(1, 2, 3)):
        assert conic.contains(p)


def test_cevian_conic_contains_isotomic_conjugate():
    p = Point(2, 3, 6)
    q = complement(isotomic(p))
    conic = conic_through_five((*VERTICES, p, q))
    assert conic.contains(Point(3, 2, 1))


def test_three_collinear_gives_degenerate_flag():
    conic = conic_through_five(
        (VERTEX_A, VERTEX_B, Point(1, 1, 0), CENTROID, Point(1, 2, 3))
    )
    assert conic.is_degenerate()


def test_four_collinear_rank_deficient():
    with pytest.raises(RankDeficient):
        conic_through_five(
            (VERTEX_A, VERTEX_B, Point(1, 1, 0), Point(1, 2, 0), CENTROID)
        )


def test_duplicate_points_rank_deficient():
    with pytest.raises(RankDeficient):
        conic_through_five((*VERTICES, CENTROID, Point(2, 2, 2)))


@given(st.tuples(interior, interior, interior), st.tuples(nonzero, nonzero, nonzero))
@settings(max_examples=40, deadline=None)
def test_five_point_conic_contains_inputs(t1, t2):
    p1, p2 = Point(*t1), Point(*t2)
    pts = (*VERTICES, p1, p2)
    try:
        conic = conic_through_five(pts)
    except RankDeficient:
        return
    for p in pts:
        assert conic.contains(p)


def test_steiner_circumellipse():
    conic = steiner_circumellipse()
    assert conic == Conic(((0, 1, 1), (1, 0, 1), (1, 1, 0)))  # xy + yz + zx = 0
    assert conic.center() == CENTROID
    assert infinity_intersection_count(conic) == 0


def test_polar_pole_involution():
    conic = steiner_circumellipse()
    p = Point(2, 5, 3)
    assert conic.pole(conic.polar(p)) == p


def test_polar_of_point_on_conic_is_tangent():
    conic = reference_circumconic_with_center(Point(1, 2, 4))
    tangent = conic.tangent_at(VERTEX_A)
    assert incident_count(conic, tangent) == 1


def incident_count(conic, line):
    out = line_conic_intersections(line, conic)
    if isinstance(out, TangentAt):
        return 1
    if isinstance(out, TwoPoints):
        return 2
    return 0


@given(st.tuples(nonzero, nonzero, nonzero))
@settings(max_examples=60, deadline=None)
def test_circumconic_center_round_trip(t):
    o = Point(*t)
    if o.is_infinite() or o in VERTICES:
        return
    try:
        conic = reference_circumconic_with_center(o)
    except NoSuchConic:
        return
    assert conic.center() == o
    for v in VERTICES:
        assert conic.contains(v)


def test_circumconic_centered_at_centroid_is_steiner():
    assert reference_circumconic_with_center(CENTROID) == steiner_circumellipse()


def test_circumconic_center_at_side_midpoint():
    conic = reference_circumconic_with_center(MID_BC)
    assert conic.center() == MID_BC
    for v in VERTICES:
        assert conic.contains(v)
    # the chosen pencil member is the isotomic image of the line through the
    # anticomplement of A parallel to BC
    assert conic == Conic(((0, 1, 1), (1, 0, 2), (1, 2, 0)))  # 2yz + zx + xy = 0


def test_circumconic_center_on_sideline_fails():
    with pytest.raises(NoSuchConic):
        reference_circumconic_with_center(Point(0, 1, 2))


def test_circumconic_center_on_medial_sideline_fails():
    # (1:2:3) satisfies x + y = z: only a degenerate line pair qualifies
    with pytest.raises(NoSuchConic):
        reference_circumconic_with_center(Point(1, 2, 3))


def test_circumconic_center_at_vertex_fails():
    with pytest.raises(NoSuchConic):
        reference_circumconic_with_center(VERTEX_A)


def test_inconic_at_midpoints_is_steiner_inellipse():
    conic = inconic_with_contacts(MID_BC, MID_CA, MID_AB)
    assert conic.center() == CENTROID
    for m in (MID_BC, MID_CA, MID_AB):
        assert conic.contains(m)
        assert conic.polar(m) in (SIDE_BC, Line(0, 1, 0), Line(0, 0, 1))


def test_inconic_center_is_isotom_complement():
    p = Point(2, 3, 6)
    conic = inconic_with_contacts(*cevian_traces(p))
    assert conic.center() == complement(isotomic(p)) == Point(3, 4, 5)


def test_inconic_rejects_non_perspective_contacts():
    with pytest.raises(NotPerspective):
        inconic_with_contacts(MID_BC, MID_CA, Point(2, 1, 0))


def test_inconic_rejects_vertex_contact():
    with pytest.raises(NotPerspective):
        inconic_with_contacts(VERTEX_B, MID_CA, MID_AB)


def test_nine_point_conic_of_centroidal_quadrangle():
    conic = nine_point_conic((*VERTICES, CENTROID))
    for p in (MID_BC, MID_CA, MID_AB):
        assert conic.contains(p)
    for v in VERTICES:
        assert conic.contains(midpoint(v, CENTROID))


def test_nine_point_conic_center():
    p = Point(2, 3, 6)
    p_iso = isotomic(p)
    conic = nine_point_conic((*VERTICES, p_iso))
    q = complement(p_iso)
    assert conic.center() == complement(q)


def test_nine_point_conic_all_nine_points():
    quad = (*VERTICES, Point(3, 5, 7))
    conic = nine_point_conic(quad)
    sides = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    for i, j in sides:
        assert conic.contains(midpoint(quad[i], quad[j]))
    diag = (
        meet_sides(quad, 0, 1, 2, 3),
        meet_sides(quad, 0, 2, 1, 3),
        meet_sides(quad, 0, 3, 1, 2),
    )
    for d in diag:
        assert conic.contains(d)


def meet_sides(quad, i, j, k, l):
    return meet(join(quad[i], quad[j]), join(quad[k], quad[l]))


def test_nine_point_conic_with_infinite_vertex():
    inf = Point(3, 6, -9)  # 3+6-9 = 0
    conic = nine_point_conic((*VERTICES, inf))
    assert conic.contains(inf)
    for m in (MID_BC, MID_CA, MID_AB):
        assert conic.contains(m)


def test_nine_point_conic_degenerate_quadrangle():
    with pytest.raises(DegenerateQuadrangle):
        nine_point_conic((VERTEX_A, VERTEX_B, Point(1, 1, 0), CENTROID))
    with pytest.raises(DegenerateQuadrangle):
        nine_point_conic((VERTEX_A, VERTEX_B, Point(0, 1, -1), Point(1, 0, -1)))


def test_second_intersection_tangent_returns_known():
    conic = reference_circumconic_with_center(Point(1, 2, 4))
    tangent = conic.tangent_at(VERTEX_A)
    assert second_intersection(tangent, conic, VERTEX_A) == VERTEX_A


def test_second_intersection_along_sideline():
    conic = reference_circumconic_with_center(Point(1, 2, 4))
    assert second_intersection(SIDE_BC, conic, VERTEX_B) == VERTEX_C


def test_second_intersection_requires_incidence():
    conic = steiner_circumellipse()
    with pytest.raises(NotIncident):
        second_intersection(SIDE_BC, conic, CENTROID)


@given(st.tuples(nonzero, nonzero, nonzero))
@settings(max_examples=80, deadline=None)
def test_second_intersection_lands_on_both(t):
    # secants through a vertex of a fixed circumconic
    conic = reference_circumconic_with_center(Point(1, 2, 4))
    other = Point(*t)
    if other == VERTEX_A:
        return
    line = join(VERTEX_A, other)
    residual = second_intersection(line, conic, VERTEX_A)
    assert conic.contains(residual)
    assert incident(residual, line)


def test_line_conic_two_points():
    conic = reference_circumconic_with_center(Point(1, 2, 4))
    out = line_conic_intersections(SIDE_BC, conic)
    assert isinstance(out, TwoPoints)
    assert {out.p1, out.p2} == {VERTEX_B, VERTEX_C}


def test_line_conic_none():
    inellipse = inconic_with_contacts(MID_BC, MID_CA, MID_AB)
    assert line_conic_intersections(LINE_AT_INFINITY, inellipse) == NoRealIntersection()


def test_line_conic_tangent():
    conic = reference_circumconic_with_center(Point(1, 2, 4))
    out = line_conic_intersections(conic.tangent_at(VERTEX_A), conic)
    assert out == TangentAt(VERTEX_A)


@pytest.mark.parametrize("line, tangent", [(Line(1, 0, 2), False), (Line(1, 0, 1), True)])
def test_line_conic_through_its_first_sideline_meet(line, tangent):
    """A line through B meets BC at B first, on the Steiner circumellipse:
    a secant gives B and the residual meet, the tangent at B gives B alone."""
    conic = steiner_circumellipse()
    assert incident(VERTEX_B, line)
    out = line_conic_intersections(line, conic)
    if tangent:
        assert out == TangentAt(VERTEX_B)
    else:
        assert out == TwoPoints(VERTEX_B, second_intersection(line, conic, VERTEX_B))
        assert out.p2 != VERTEX_B and conic.contains(out.p2)


def test_line_conic_needs_extension_then_lift():
    """A rational line meets a rational conic in points over Q(sqrt(2)) in
    one call, and either point gives the other as the residual meet."""
    locus = Conic(((-2, 1, 1), (1, 0, 1), (1, 1, 0)))  # -x^2 + xy + xz + yz = 0
    l_g = Line(-2, 1, 1)
    out = line_conic_intersections(l_g, locus)
    assert isinstance(out, TwoPoints)
    assert {out.p1, out.p2} == {
        Point(Scalar(1), Scalar(1, 1, 2), Scalar(1, -1, 2)),
        Point(Scalar(1), Scalar(1, -1, 2), Scalar(1, 1, 2)),
    }
    for p in (out.p1, out.p2):
        assert locus.contains(p)
    # the residual meet works in the known point's field, Q(sqrt(2)) here
    assert second_intersection(l_g, locus, out.p1) == out.p2


def test_tangent_conics_at():
    conic = steiner_circumellipse()
    assert tangent_conics_at(conic, conic, VERTEX_A)
    inellipse = inconic_with_contacts(MID_BC, MID_CA, MID_AB)
    # the inellipse touches the sidelines, not the circumellipse, at D0
    assert not tangent_conics_at(inellipse, conic, MID_BC)


def test_conic_transform_push_forward():
    p = Point(2, 3, 6)
    q = complement(isotomic(p))
    conic = conic_through_five((*VERTICES, p, q))
    k = complement_map()
    image = transform_conic(k, conic)
    assert image.contains(complement(p))
    assert image.contains(complement(VERTEX_A))
    assert not image.contains(p) or conic.contains(anticomplement(p))


@given(st.tuples(nonzero, nonzero, nonzero))
@settings(max_examples=100, deadline=None)
def test_transform_preserves_incidence(t):
    x = Point(*t)
    conic = steiner_circumellipse()
    k = complement_map()
    image = transform_conic(k, conic)
    assert image.contains(complement(x)) == conic.contains(x)


def test_center_commutes_with_complement():
    conic = reference_circumconic_with_center(Point(2, 3, 7))
    image = transform_conic(complement_map(), conic)
    assert image.center() == complement(conic.center())


def test_conjugate_involution_is_involutive():
    p = Point(2, 3, 6)
    inconic = inconic_with_contacts(*cevian_traces(p))
    psi = InfinityInvolution(inconic)
    x = Point(1, 1, -2)
    assert psi(psi(x)) == x


def test_conjugate_involution_contact_direction():
    # the direction conjugate to a contact cevian is the touched side
    p = Point(2, 3, 6)
    d, e, f = cevian_traces(p)
    q = complement(isotomic(p))
    psi = InfinityInvolution(inconic_with_contacts(d, e, f))
    assert psi(direction_of(join(q, d))) == direction_of(SIDE_BC)


def test_conjugate_involution_rejects_asymptotic_direction():
    # 2yz + 2zx + 9xy factors over the rationals on the infinity line
    hyperbola = Conic(((0, 9, 2), (9, 0, 2), (2, 2, 0)))
    assert infinity_intersection_count(hyperbola) == 2
    psi = InfinityInvolution(hyperbola)
    with pytest.raises(SelfConjugate):
        psi(Point(1, 2, -3))
    with pytest.raises(NotIncident):
        psi(CENTROID)


def test_involution_needs_ordinary_center():
    p = Point(3, 6, -2)  # the inconic here is a parabola
    parabola = inconic_with_contacts(*cevian_traces(p))
    assert infinity_intersection_count(parabola) == 1
    with pytest.raises(DegenerateConic):
        InfinityInvolution(parabola)


def test_isotomic_image_of_line():
    line = Line(2, 1, 1)
    conic = isotomic_image_of_line(line)
    assert conic == Conic(((0, 1, 1), (1, 0, 2), (1, 2, 0)))
    # the image of a generic line point under the isotomic map is on the conic
    p = Point(1, 3, -5)  # 2*1 + 3 - 5 = 0
    assert conic.contains(isotomic(p))


def test_conic_parse_round_trip():
    conic = reference_circumconic_with_center(Point(1, 2, 4))
    assert read_matrix(Conic, str(conic)) == conic


# -- the closed forms against the solvers they replaced ---------------------------------
#
# The cevian conic, the nine-point conic of A, B, C, x, the nine-point conic
# of any quadrangle, the inconic and the vertex-locus conic are read off
# closed forms.  Each must equal, as a canonical conic, what the solve it
# replaced returns: `conic_through_five`, and copies of the nine-point and
# polar-row solves kept here.

FIELDS = (1, 2, 6, 1610924047)
_Z = (0, 0)


def polar_rows(contact):
    """The three components of C . contact, each a row over the coefficient
    vector of conic_row."""
    x, y, z = contact.ints
    return (
        (x, _Z, _Z, y, z, _Z),
        (_Z, y, _Z, x, _Z, z),
        (_Z, _Z, z, _Z, x, y),
    )


def solved_inconic(contacts):
    """The conic tangent to sideline k at contact k: the polar of contact k
    has only component k, six rows in all."""
    rows = [row for k, c in enumerate(contacts) for i, row in enumerate(polar_rows(c)) if i != k]
    d = perspector(VERTICES, contacts).d
    (vector,) = null_space(d, rows)
    return conic_from_vector(d, vector)


_LOCUS_DATA = {
    "A": ((VERTEX_B, VERTEX_C, MID_CA, MID_AB), VERTEX_B, Line(1, 0, 1)),
    "B": ((VERTEX_C, VERTEX_A, MID_AB, MID_BC), VERTEX_C, Line(1, 1, 0)),
    "C": ((VERTEX_A, VERTEX_B, MID_BC, MID_CA), VERTEX_A, Line(0, 1, 1)),
}


def solved_locus(vertex):
    """The conic through four base points, tangent to one line at one of
    them: cross(C . contact, tangent) = 0 gives two more rows."""
    points, contact, tangent = _LOCUS_DATA[vertex]
    rows = [conic_row(pt) for pt in points]
    polar = polar_rows(contact)
    l, m, n = tangent.ints
    for i, j, ci, cj in ((1, 2, n, m), (2, 0, l, n), (0, 1, m, l)):
        rows.append(combine(ci, polar[i], zscale(-1, cj), polar[j], 1))
    (vector,) = null_space(1, rows)
    return conic_from_vector(1, vector)


def solved_nine_point_conic(quadrangle):
    """The conic through the three diagonal points and the six side
    midpoints (an infinite vertex standing in for the midpoints of its
    sides), solved from their nine incidence rows, behind the same guards as
    nine_point_conic."""
    infinite = [p for p in quadrangle if p.is_infinite()]
    if len(infinite) > 1:
        raise DegenerateQuadrangle("at most one vertex may be infinite")
    for trio in combinations(quadrangle, 3):
        if are_collinear(*trio):
            raise DegenerateQuadrangle(f"collinear vertices {trio}")
    nine = [meet_sides(quadrangle, *ijkl) for ijkl in ((0, 1, 2, 3), (0, 2, 1, 3), (0, 3, 1, 2))]
    for p, q in combinations(quadrangle, 2):
        nine.append(p if p.is_infinite() else q if q.is_infinite() else midpoint(p, q))
    d = reduce(join_d, [p.d for p in quadrangle], 1)
    basis = null_space(d, [conic_row(p) for p in nine])
    if len(basis) != 1:
        raise DegenerateQuadrangle("nine-point system is rank-deficient")
    return conic_from_vector(d, basis[0])


def solved_cevian_conic(p, q):
    try:
        return conic_through_five((*VERTICES, p, q))
    except RankDeficient:
        return None


@pytest.mark.parametrize("vertex", "ABC")
def test_locus_conic_equals_the_solved_conic(vertex):
    assert locus_conic(vertex) == solved_locus(vertex)


@st.composite
def special_points(draw):
    """A point over Q or Q(sqrt(d)) of one of the shapes the closed forms
    meet: generic, the centroid, a median, the outer centroid ellipse
    xy + yz + zx = 0 (where the inconic is a parabola), or the vertex locus
    x^2 = xy + yz + zx of one vertex, with its coordinates rotated."""
    d = draw(st.sampled_from(FIELDS))
    rational = st.integers(-30, 30)
    pair = st.tuples(rational, st.integers(-5, 5) if d > 1 else st.just(0))
    x, y, z = draw(st.tuples(pair, pair, pair))
    shape = draw(st.sampled_from(("generic", "median", "steiner", "locus", "centroid")))
    if shape == "centroid":
        y = z = x
    elif shape == "median":
        y = x
    elif shape == "steiner":
        s = zsum((x, y))
        x, y, z = zmul(x, s, d), zmul(y, s, d), zscale(-1, zmul(x, y, d))
    elif shape == "locus":
        # the line z = t x through B, t = y / x, meets the conic again here
        s, t = zsum((x, y)), zsum((x, zscale(-1, y)))
        x, y, z = zmul(x, s, d), zmul(x, t, d), zmul(y, s, d)
    shift = draw(st.integers(0, 2))
    coords = (x, y, z)[shift:] + (x, y, z)[:shift]
    assume(any(c != _Z for c in coords))
    return shape, shift, Point.from_ints(d, coords)


@given(special_points())
@settings(max_examples=300, deadline=None)
def test_closed_forms_equal_the_solved_conics(case):
    shape, shift, p = case
    flags = degeneracy_report(p)
    assume(not flags.hard())
    event(f"{shape} over d = {p.d}")
    if shape == "locus":
        assert flags.h_is_vertex is not None and locus_conic("ACB"[shift]).contains(p)
    if shape == "steiner":
        assert flags.on_steiner_circumellipse
    p_iso = isotomic(p)
    q = complement(p_iso)
    closed = cevian_conic(p, [zmul(c, c, p.d) for c in p.ints])
    assert closed == solved_cevian_conic(p, q)
    assert (closed is None) == (p == CENTROID)
    if flags.on_median:
        assert closed is None or closed.is_degenerate()
    # construct(x) reads off the nine-point conic of A, B, C, isotomic(x)
    for x, x_iso in ((p, p_iso), (p_iso, p)):
        quadrangle = (*VERTICES, x_iso)
        conic = construct(x).ninepoint_conic_iso
        assert conic == nine_point_conic(quadrangle) == solved_nine_point_conic(quadrangle)
    traces = cevian_traces(p)
    inconic = inconic_with_contacts(*traces)
    assert inconic == solved_inconic(traces)
    if shape == "steiner":
        assert infinity_intersection_count(inconic) == 1


@st.composite
def quadrangles(draw):
    """Four points over Q or Q(sqrt(d)), in a drawn order, of one of the
    shapes the nine-point conic meets: generic, A, B, C and a point, one
    infinite vertex (possibly in the direction of a median of the other
    three), a parallelogram, or three collinear vertices."""
    d = draw(st.sampled_from(FIELDS))
    pair = st.tuples(st.integers(-9, 9), st.integers(-4, 4) if d > 1 else st.just(0))
    triple = st.tuples(pair, pair, pair).filter(lambda v: any(x != _Z for x in v))
    shape = draw(st.sampled_from(
        ("generic", "triangle", "infinite", "median", "parallelogram", "collinear")
    ))
    if shape == "triangle":
        points = [*VERTICES, Point.from_ints(d, draw(triple))]
    else:
        points = [Point.from_ints(d, draw(triple)) for _ in range(3)]
        assume(not are_collinear(*points))
    if shape == "generic":
        points.append(Point.from_ints(d, draw(triple)))
    elif shape == "infinite":
        x, y = draw(pair), draw(pair)
        assume(x != _Z or y != _Z)
        points.append(Point.from_ints(d, (x, y, zscale(-1, zsum((x, y))))))
    elif shape == "median":
        p0, p1, p2 = points
        assume(not any(p.is_infinite() for p in points))
        points.append(meet(join(p0, midpoint(p1, p2)), LINE_AT_INFINITY))
    elif shape == "parallelogram":
        # P0 - P1 + P2 in normalized coordinates, times the three weights
        weights = [zsum(p.ints) for p in points]
        assume(_Z not in weights)
        w0, w1, w2 = weights
        terms = [
            [zmul(zmul(wa, wb, d), x, d) for x in p.ints]
            for (wa, wb), p in zip(((w1, w2), (zscale(-1, w0), w2), (w0, w1)), points)
        ]
        coords = [zsum(xs) for xs in zip(*terms)]
        assume(any(x != _Z for x in coords))
        points.append(Point.from_ints(d, coords))
    elif shape == "collinear":
        s, t = draw(pair), draw(pair)
        coords = combine(s, points[0].ints, t, points[1].ints, d)
        assume(any(x != _Z for x in coords))
        points.append(Point.from_ints(d, coords))
    event(f"{shape} over d = {d}")
    return draw(st.permutations(points))


def conic_or_error(quadrangle, solve):
    try:
        return solve(quadrangle)
    except DegenerateQuadrangle as exc:
        return type(exc)


@given(quadrangles())
@settings(max_examples=400, deadline=None)
def test_nine_point_conic_equals_the_solved_conic(quadrangle):
    """The pole-locus form and the nine-point solve give the same canonical
    conic, or both raise DegenerateQuadrangle."""
    closed = conic_or_error(quadrangle, nine_point_conic)
    assert closed == conic_or_error(quadrangle, solved_nine_point_conic)
    event("raises" if closed is DegenerateQuadrangle else "conic")
