import hashlib
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, event, given, settings, strategies as st

from cevian.scalar import Scalar
from cevian import projective
from cevian.projective import (
    AffineMap,
    CoincidentArguments,
    HomogeneousMatrix,
    HomogeneousTriple,
    CENTROID,
    DegenerateConfiguration,
    DependentSources,
    Line,
    MID_AB,
    MID_BC,
    MID_CA,
    OnSideline,
    Point,
    SIDE_BC,
    VERTEX_A,
    VERTEX_B,
    VERTEX_C,
    VERTICES,
    MIDPOINTS,
    anticomplement,
    anticomplement_map,
    are_collinear,
    cevian_map,
    cevian_traces,
    centroid_of,
    collinear_ratio,
    complement,
    complement_map,
    incident,
    isotomic,
    join,
    meet,
    midpoint,
    parallel_through,
    require_iso_reflection,
    Translation,
    zmul,
    zscale,
    zsub,
    zsum,
)
from cevian.conics import (
    Conic,
    conic_through_five,
    inconic_with_contacts,
    infinity_intersection_count,
    isotomic_image_of_line,
    nine_point_conic,
    second_intersection,
    tangent_conics_at,
    transform_conic,
)
from cevian import constructions
from cevian.constructions import (
    Centers,
    ConstructionInconsistency,
    DegeneracyReport,
    ExhaustedRejections,
    OnAnticomplementarySideline,
    anticevian_family,
    construct,
    degeneracy_report,
    locus_conic,
    sample_nondegenerate,
    special_configuration_point,
    z_locus_sweep,
)
from cevian.render import RenderTriangle
from cevian.verify import run_point, run_suite
from projective_reference import common_point


def generalized_orthocenter(p):
    """H of p off the hard loci, read off its locus forms as Centers reads it."""
    return constructions._orthocenter(p, constructions._report_and_forms(p)[3])


# -- degeneracy flags -----------------------------------------------------------


def test_flags_for_generic_point():
    flags = degeneracy_report(Point(4, 9, 25))
    assert not flags.any()


@pytest.mark.parametrize(
    "coords, attr",
    [
        ((0, 1, 2), "on_sideline"),
        ((1, 2, -2), "on_anticomplementary_sideline"),
        ((5, 5, 2), "on_median"),
        ((3, 6, -2), "on_steiner_circumellipse"),
    ],
)
def test_flags_detect_special_loci(coords, attr):
    flags = degeneracy_report(Point(*coords))
    assert getattr(flags, attr)


@pytest.mark.parametrize(
    "coords, vertex",
    [((6, 3, 2), "A"), ((-1, 3, 2), "A"), ((3, 6, 2), "B"), ((2, 3, 6), "C")],
)
def test_flags_detect_vertex_orthocenter(coords, vertex):
    assert degeneracy_report(Point(*coords)).h_is_vertex == vertex


# -- the main pipeline -----------------------------------------------------------


@pytest.fixture(scope="module")
def gergonne345():
    return construct(Point(2, 3, 6))


def test_isotom_complement_is_incenter(gergonne345):
    # for the gergonne point of a 3-4-5 triangle, q is the incenter
    assert gergonne345.q == Point(3, 4, 5)
    assert gergonne345.p_iso == Point(3, 2, 1)
    assert gergonne345.q_iso == Point(9, 8, 5)


def test_orthocenter_is_right_angle_vertex(gergonne345):
    assert gergonne345.orthocenter == Point(0, 0, 1)
    assert gergonne345.circumcenter == complement(gergonne345.orthocenter)


def test_orthocenter_against_cartesian_altitudes(gergonne345):
    # independent oracle: intersect two altitudes of the 3-4-5 triangle
    # A=(0,0), B=(5,0), C=(16/5,12/5) in exact rational Cartesian coordinates
    a = (Fraction(0), Fraction(0))
    b = (Fraction(5), Fraction(0))
    c = (Fraction(16, 5), Fraction(12, 5))

    def altitude_foot_free_form(p, q1, q2):
        # line through p perpendicular to q1q2: returns (coeffs) of a*x+b*y=c
        dx, dy = q2[0] - q1[0], q2[1] - q1[1]
        return (dx, dy, dx * p[0] + dy * p[1])

    l1 = altitude_foot_free_form(a, b, c)
    l2 = altitude_foot_free_form(b, a, c)
    det = l1[0] * l2[1] - l2[0] * l1[1]
    hx = (l1[2] * l2[1] - l2[2] * l1[1]) / det
    hy = (l1[0] * l2[2] - l2[0] * l1[2]) / det
    # barycentrics from signed areas
    def area2(p, q, r):
        return (q[0] - p[0]) * (r[1] - p[1]) - (r[0] - p[0]) * (q[1] - p[1])

    h = (hx, hy)
    bary = Point(area2(h, b, c), area2(a, h, c), area2(a, b, h))
    assert bary == gergonne345.orthocenter


def test_internal_dual_path_assertion_runs():
    # construct() itself cross-checks the formula against the parallels
    for coords in ((7, 3, 2), (5, -2, 9), (11, 4, 29)):
        cs = construct(Point(*coords))
        for base, trace in zip((VERTEX_A, VERTEX_B, VERTEX_C), cs.traces):
            assert incident(cs.orthocenter, parallel_through(base, join(cs.q, trace)))
        for base, trace in zip((MID_BC, MID_CA, MID_AB), cs.traces):
            assert incident(cs.circumcenter, parallel_through(base, join(cs.q, trace)))


def test_sideline_point_rejected():
    with pytest.raises(OnSideline):
        construct(Point(0, 1, 2))


def test_anticomplementary_point_rejected():
    with pytest.raises(OnAnticomplementarySideline):
        construct(Point(1, 2, -2))


def test_centroid_collapses_to_itself():
    cs = construct(Point(1, 1, 1))
    assert cs.orthocenter == CENTROID
    assert cs.circumcenter == CENTROID
    assert cs.cevian_conic is None
    for name in ("cevian_conic", "v", "iso_reflection", "insimilicenter", "feuerbach_point"):
        assert cs.absent[name] == "on_median"


def test_median_point_keeps_central_members():
    cs = construct(Point(1, 1, 2))
    assert cs.cevian_conic is not None and cs.cevian_conic.is_degenerate()
    assert cs.feuerbach_point is None
    assert cs.absent["feuerbach_point"] == "on_median"
    assert cs.v is None and cs.iso_reflection is None and cs.insimilicenter is None
    # the central objects survive
    assert cs.circumconic.center() == cs.circumcenter
    assert cs.inconic.center() == cs.q


OPTIONAL_MEMBERS = (
    "v",
    "iso_reflection",
    "insimilicenter",
    "cevian_conic",
    "feuerbach_point",
    "fourth_intersection",
)
ALL_ON_MEDIAN = dict.fromkeys(OPTIONAL_MEMBERS, "on_median")


@pytest.mark.parametrize(
    "coords, absent",
    [
        ((1, 1, 1), ALL_ON_MEDIAN),
        ((1, 1, 2), {k: v for k, v in ALL_ON_MEDIAN.items() if k != "cevian_conic"}),
        (
            (-6, -3, 2),
            {
                "fourth_intersection": "circumcenter at infinity",
                "iso_reflection": "axis point (1 : 2 : -3) unusable",
            },
        ),
        (
            (3, 6, -2),
            {
                "fourth_intersection": "circumcenter at infinity",
                "iso_reflection": "axis point (2 : 1 : -3) unusable",
            },
        ),
        ((1, 2, -3), {"iso_reflection": "axis point (1 : 2 : -3) unusable"}),
        ((1, -6, 15), {}),
        ((6, 3, 2), {}),
    ],
)
def test_absence_reasons(coords, absent):
    assert construct(Point(*coords)).absent == absent


def test_steiner_point_collapse():
    cs = construct(Point(3, 6, -2))
    assert cs.orthocenter == cs.circumcenter == cs.q == cs.p_iso
    assert cs.q.is_infinite()
    assert infinity_intersection_count(cs.inconic) == 1
    assert cs.inconic.center() == cs.q


def test_extension_marker():
    assert construct(Point(2, 3, 6)).p.d == 1
    assert construct(special_configuration_point()).p.d == 2


def test_dual_path_rejects_a_center_off_the_parallels(monkeypatch):
    """Centers checks H and O against the parallels that define them, so a
    wrong H raises by name rather than entering the construction."""
    monkeypatch.setattr(constructions, "_orthocenter", lambda p, e: Point(1, 2, 3))
    with pytest.raises(
        ConstructionInconsistency,
        match=r"^formula and parallel definitions disagree at p=\(21 : 24 : 28\)$",
    ):
        construct(Point(21, 24, 28))


SQRT6_POINT = Point(3, Scalar(1, 2, 6), Scalar(-2, 1, 6))


@pytest.mark.parametrize("p", [Point(21, 24, 28), SQRT6_POINT], ids=["Q", "Q(sqrt(6))"])
def test_dual_path_rejects_the_anticomplement_of_h(monkeypatch, p):
    """The parallel-line check runs on uncanonicalized directions and still
    refuses an H that is off its parallels, over Q and over Q(sqrt(6))."""
    h = generalized_orthocenter(p)
    monkeypatch.setattr(constructions, "_orthocenter", lambda p, e: anticomplement(h))
    with pytest.raises(ConstructionInconsistency) as raised:
        Centers(p)
    assert str(raised.value) == f"formula and parallel definitions disagree at p={p}"


def test_dual_path_refuses_a_zero_direction(monkeypatch):
    """A zero direction puts every point on its "parallel", so the check
    must refuse it rather than pass: here every trace is q itself, which
    makes each q-trace line, and so its direction, zero."""
    x, zero = Point(2, 3, 6), ((0, 0),) * 3
    assert not constructions._on_parallels(x, VERTICES, [zero, zero, zero], 1)
    monkeypatch.setattr(
        constructions, "cevian_traces", lambda p: (complement(isotomic(p)),) * 3
    )
    with pytest.raises(
        ConstructionInconsistency,
        match=r"^formula and parallel definitions disagree at p=\(2 : 3 : 6\)$",
    ):
        Centers(x)


# -- anticevian family -------------------------------------------------------------


def test_anticevian_vertices_closed_form():
    # independent cross-check: the anticevian triangle of (u:v:w) is
    # (-u:v:w), (u:-v:w), (u:v:-w)
    cs = construct(Point(2, 3, 6))
    fam = anticevian_family(cs)
    u, v, w = cs.q.coords
    assert fam.q_a == Point(-u, v, w)
    assert fam.q_b == Point(u, -v, w)
    assert fam.q_c == Point(u, v, -w)


def test_anticevian_meet_identities():
    cs = construct(Point(5, 2, 9))
    fam = anticevian_family(cs)
    from cevian.projective import meet

    assert meet(join(fam.q_b, fam.q_c), join(cs.q, fam.q_a)) == VERTEX_A
    assert meet(join(fam.q_a, fam.q_c), join(cs.q, fam.q_b)) == VERTEX_B
    assert meet(join(fam.q_a, fam.q_b), join(cs.q, fam.q_c)) == VERTEX_C


def test_family_shares_generalized_centers():
    cs = construct(Point(2, 3, 6))
    fam = anticevian_family(cs)
    for sibling in fam.siblings():
        sib = construct(sibling)
        assert sib.circumcenter == cs.circumcenter
        assert sib.orthocenter == cs.orthocenter


# -- the vertex locus ---------------------------------------------------------------


def test_locus_membership_by_integer_arithmetic():
    assert 6 * 3 + 6 * 2 + 3 * 2 == 6 * 6
    assert (-1) * 3 + (-1) * 2 + 3 * 2 == (-1) * (-1)


@pytest.mark.parametrize("coords", [(6, 3, 2), (-1, 3, 2)])
def test_locus_points_have_vertex_orthocenter(coords):
    cs = construct(Point(*coords))
    assert cs.orthocenter == VERTEX_A
    assert cs.circumcenter == MID_BC


def test_locus_conic_closed_form():
    conic = locus_conic("A")
    assert conic == Conic(((-2, 1, 1), (1, 0, 1), (1, 1, 0)))  # -x^2 + xy + xz + yz = 0
    assert locus_conic("B") == Conic(((0, 1, 1), (1, -2, 1), (1, 1, 0)))
    assert locus_conic("C") == Conic(((0, 1, 1), (1, 0, 1), (1, 1, -2)))
    with pytest.raises(ValueError):
        locus_conic("D")


def test_locus_conic_structure():
    conic = locus_conic("A")
    for p in (VERTEX_B, VERTEX_C, MID_CA, MID_AB):
        assert conic.contains(p)
    assert conic.tangent_at(VERTEX_B) == Line(1, 0, 1)
    assert conic.tangent_at(VERTEX_C) == Line(1, 1, 0)
    center = conic.center()
    assert center == Point(1, 3, 3)
    assert collinear_ratio(VERTEX_A, center, MID_BC) == Scalar(Fraction(6, 7))
    assert conic.polar(VERTEX_A) == Line(-2, 1, 1)
    assert infinity_intersection_count(conic) == 0  # always an ellipse


# -- the sqrt(2) configuration ---------------------------------------------------------


def test_special_point_coordinates():
    p = special_configuration_point()
    assert p == Point(Scalar(1), Scalar(1, 1, 2), Scalar(1, -1, 2))
    x, y, z = p.coords
    assert y + z == 2 * x
    assert y * z == -(x * x)


@pytest.fixture(scope="module")
def special():
    return construct(special_configuration_point())


def test_special_orthocenter_at_vertex(special):
    assert special.orthocenter == VERTEX_A
    assert special.circumcenter == MID_BC


def test_special_map_is_translation(special):
    assert isinstance(special.circum_to_inconic.classify(), Translation)
    # translation means congruent circumconic and inconic
    assert special.circumconic != special.inconic


def test_special_circumconic_is_isotomic_image(special):
    kinv = anticomplement_map()
    line = kinv.apply_to_line(kinv.apply_to_line(SIDE_BC))
    assert line == Line(2, 1, 1)
    assert special.circumconic == isotomic_image_of_line(line)


def test_special_collinear_centers_with_ratio(special):
    o, o_iso = special.circumcenter, special.circumcenter_iso
    assert are_collinear(o, o_iso, special.p)
    assert are_collinear(o, special.p, special.p_iso)
    ratio = collinear_ratio(o, special.p_iso, special.p)
    assert ratio * ratio == Scalar(9)


def test_special_squared_side_ratio(special):
    d = special.traces[0]
    ratio = collinear_ratio(special.circumcenter, d, VERTEX_C)
    assert ratio * ratio == Scalar(2)


def test_special_midpoint_and_centroid_relations(special):
    d3 = special.traces_iso[0]
    assert d3 == midpoint(VERTEX_A, special.p_iso)
    a3 = special.cevian_map(d3)
    assert a3 == midpoint(special.circumcenter, special.traces[0])
    assert special.p == centroid_of(
        special.circumcenter, special.traces[0], special.q
    )
    assert incident(special.p, Line(-2, 1, 1))


def test_special_sibling_on_second_intersection(special):
    fam = anticevian_family(special)
    line = join(special.p, CENTROID)
    assert fam.p_a == second_intersection(line, special.circumconic, special.p)


# -- infinite cevian-conic center -------------------------------------------------------


def test_infinite_center_configuration():
    cs = construct(Point(1, -6, 15))
    z = cs.feuerbach_point
    assert z is not None and z.is_infinite()
    assert tangent_conics_at(cs.ninepoint_conic, cs.inconic, z)
    shared_asymptote = join(cs.q, cs.ninepoint_center)
    assert cs.ninepoint_conic.polar(z) == shared_asymptote
    assert cs.inconic.polar(z) == shared_asymptote


# -- the generalized centers and the circumconic read off p -------------------------------
#
# H, O, their primed twins and the circumconic are read off closed forms in p.
# Each must equal what the affine formula O = T_p_iso^-1(K(q)), H = K^-1(O)
# gives (a copy of the code it replaced, kept here), and H and O must also be
# the common points of the parallels that define them.

FIELDS = (1, 2, 6, 1610924047)
_Z = (0, 0)


def affine_centers(p):
    """H and O of p from the affine formula, q = K(p_iso)."""
    p_iso = isotomic(p)
    o = cevian_map(p_iso).inverse()(complement(complement(p_iso)))
    return anticomplement(o), o


def concurrent_parallels(bases, q, traces):
    """The common point of the lines through the bases parallel to the
    q-trace lines."""
    common = common_point([parallel_through(b, join(q, t)) for b, t in zip(bases, traces)])
    assert common is not None
    return common


def parallel_centers(p):
    """H and O of p as the common points of the parallels to the q-trace
    lines through the vertices and through the midpoints."""
    q, traces = complement(isotomic(p)), cevian_traces(p)
    return concurrent_parallels(VERTICES, q, traces), concurrent_parallels(MIDPOINTS, q, traces)


@st.composite
def center_points(draw):
    """A point over Q or Q(sqrt(d)): generic, on a median, on the vertex
    locus x^2 = xy + yz + zx, on the outer centroid ellipse
    xy + yz + zx = 0, at infinity, or one of the suite's fixed points, with
    its coordinates rotated."""
    d = draw(st.sampled_from(FIELDS))
    pair = st.tuples(st.integers(-30, 30), st.integers(-5, 5) if d > 1 else st.just(0))
    x, y, z = draw(st.tuples(pair, pair, pair))
    shape = draw(st.sampled_from(("generic", "median", "locus", "steiner", "infinite", "fixed")))
    if shape == "median":
        y = x
    elif shape == "locus":
        # the line z = t x through B, t = y / x, meets the locus again here
        s, t = zsum((x, y)), zsub(x, y)
        x, y, z = zmul(x, s, d), zmul(x, t, d), zmul(y, s, d)
    elif shape == "steiner":
        s = zsum((x, y))
        x, y, z = zmul(x, s, d), zmul(y, s, d), zscale(-1, zmul(x, y, d))
    elif shape == "infinite":
        z = zscale(-1, zsum((x, y)))
    elif shape == "fixed":
        fixed = draw(st.sampled_from(((6, 3, 2), (3, 6, -2), (1, -6, 15))))
        d, (x, y, z) = 1, ((n, 0) for n in fixed)
    shift = draw(st.integers(0, 2))
    coords = (x, y, z)[shift:] + (x, y, z)[:shift]
    assume(any(c != _Z for c in coords))
    return shape, shift, Point.from_ints(d, coords)


@given(center_points())
@settings(max_examples=300, deadline=None)
def test_closed_form_centers_equal_the_paths_they_replace(case):
    shape, shift, p = case
    flags = degeneracy_report(p)
    assume(not flags.hard())
    event(f"{shape} over d = {p.d}")
    cs = construct(p)
    assert generalized_orthocenter(p) == cs.orthocenter
    assert (cs.orthocenter, cs.circumcenter) == affine_centers(p) == parallel_centers(p)
    assert (cs.orthocenter_iso, cs.circumcenter_iso) == affine_centers(cs.p_iso)
    assert (cs.orthocenter_iso, cs.circumcenter_iso) == parallel_centers(cs.p_iso)
    pullback = transform_conic(cevian_map(cs.p_iso).inverse(), nine_point_conic((*VERTICES, cs.p_iso)))
    assert cs.circumconic == pullback
    # h_is_vertex names the vertex k whose locus form s - x_k^2 vanishes,
    # and H is that vertex
    (x, y, z), d = p.ints, p.d
    s = zsum((zmul(x, y, d), zmul(y, z, d), zmul(z, x, d)))
    vanishing = [k for k, c in zip("ABC", p.ints) if zmul(c, c, d) == s]
    assert flags.h_is_vertex == (vanishing[0] if vanishing else None)
    assert len(vanishing) <= 1
    assert (cs.orthocenter in VERTICES) == bool(vanishing)
    if vanishing:
        assert cs.orthocenter == VERTICES["ABC".index(vanishing[0])]
    if shape == "locus":
        assert flags.h_is_vertex == "ACB"[shift]
    if shape == "steiner":
        assert flags.on_steiner_circumellipse and s == _Z


# -- every other member read off p ----------------------------------------------------
#
# The maps, the primed centers, the conics and the axis point are read off
# closed forms in p as well.  Each must equal the product, inverse, center or
# meet it replaced, built here from the projective and conic kernels.


def joined_cevian_conic(p, q):
    """The cevian conic as the isotomic image of the join of the isotomic
    conjugates of p and q; None when they coincide."""
    try:
        return isotomic_image_of_line(join(isotomic(p), isotomic(q)))
    except CoincidentArguments:
        return None


def met_insimilicenter(cs):
    """The insimilicenter as a meet of the lines oq, o'q' and gv: the axis
    with the first center line that differs from it, else the two center
    lines if they differ, else None."""
    lines = [join(a, b) for a, b in ((cs.circumcenter, cs.q), (cs.circumcenter_iso, cs.q_iso)) if a != b]
    axis = join(CENTROID, cs.v) if cs.v != CENTROID else None
    for line in lines:
        if axis is not None and line != axis:
            return meet(line, axis)
    if len(lines) == 2 and lines[0] != lines[1]:
        return meet(*lines)
    return None


def paired_iso_reflection(cs):
    """The affine reflection fixing the centroid and v pointwise and
    swapping p with p_iso, built from those three point pairs and refused
    as the construction refuses it."""
    if cs.v.is_infinite() or cs.v == CENTROID:
        raise DegenerateConfiguration(f"axis point {cs.v} unusable")
    try:
        eta = AffineMap.from_pairs(((CENTROID, CENTROID), (cs.v, cs.v), (cs.p, cs.p_iso)))
    except DependentSources as exc:
        raise DegenerateConfiguration("p lies on the would-be axis") from exc
    return require_iso_reflection(eta, cs.q, cs.q_iso)


def composed_members(cs):
    """Every map and point of cs that a closed form replaced, by the paths
    the construction used before."""
    t_p, t_iso = cevian_map(cs.p), cevian_map(cs.p_iso)
    t_inv, kinv = t_p.inverse(), anticomplement_map()
    transfer = t_iso @ t_inv
    circum_to_inconic = t_p @ kinv @ t_iso
    return {
        "traces_iso": cevian_traces(cs.p_iso),
        "cevian_map": t_p,
        "cevian_map_inverse": t_inv,
        "cevian_map_iso": t_iso,
        "cevian_map_iso_inverse": t_iso.inverse(),
        "transfer_map": transfer,
        "transfer_map_inverse": transfer.inverse(),
        "second_cevian_map": t_p @ t_iso,
        "second_cevian_map_iso": t_iso @ t_p,
        "circum_to_inconic": circum_to_inconic,
        "ninepoint_to_inconic": circum_to_inconic @ kinv,
        "orthocenter_iso": generalized_orthocenter(cs.p_iso),
        "orthocenter_preimage": t_inv(cs.orthocenter),
        "ninepoint_conic_iso": nine_point_conic((*VERTICES, cs.p_iso)),
        "ninepoint_conic": transform_conic(complement_map(), cs.circumconic),
        "inconic": inconic_with_contacts(*cs.traces),
        "inconic_iso": inconic_with_contacts(*cevian_traces(cs.p_iso)),
        "ninepoint_center": cs.ninepoint_conic.center(),
        "cevian_conic": joined_cevian_conic(cs.p, cs.q),
    }


@given(center_points())
@settings(max_examples=200, deadline=None)
def test_closed_form_members_equal_the_paths_they_replace(case):
    shape, _, p = case
    assume(not degeneracy_report(p).hard())
    event(f"{shape} over d = {p.d}")
    cs = construct(p)
    for name, member in composed_members(cs).items():
        assert getattr(cs, name) == member, name
    assert cs.circumcenter_iso == complement(cs.orthocenter_iso)
    conic = cs.cevian_conic
    if conic is None or conic.is_degenerate():
        assert cs.flags.on_median and cs.feuerbach_point is None
        return
    assert cs.feuerbach_point == conic.center()
    assert not cs.flags.on_median
    # off the medians the two joins that meet in v always differ
    assert cs.v == meet(join(cs.p, cs.q), join(cs.p_iso, cs.q_iso))
    try:
        eta = paired_iso_reflection(cs)
    except DegenerateConfiguration as exc:
        assert cs.iso_reflection is None and cs.absent["iso_reflection"] == str(exc)
    else:
        assert cs.iso_reflection == eta and "iso_reflection" not in cs.absent
        assert eta @ eta == AffineMap(((1, 0, 0), (0, 1, 0), (0, 0, 1))) and eta(cs.q) == cs.q_iso
    assert cs.insimilicenter == met_insimilicenter(cs)
    assert (cs.insimilicenter is None) == ("insimilicenter" in cs.absent)


def test_iso_reflection_checks_refuse_what_they_should():
    """The two checks of the iso-reflection, made on uncanonicalized
    products, refuse a map that is not an affine reflection and one that
    does not swap the pair."""
    cs = construct(Point(2, 3, 6))
    eta, q, q_iso = cs.iso_reflection, cs.q, cs.q_iso
    assert require_iso_reflection(eta, q, q_iso) is eta
    with pytest.raises(DegenerateConfiguration, match="^constructed map is not an affine reflection$"):
        require_iso_reflection(cs.transfer_map, q, q_iso)
    with pytest.raises(DegenerateConfiguration, match="^reflection does not swap the companion pair$"):
        require_iso_reflection(eta, q, cs.p)
    with pytest.raises(DegenerateConfiguration, match="^constructed map is not an affine reflection$"):
        require_iso_reflection(AffineMap(((1, 1, 1), (0, 0, 0), (0, 0, 0))), q, q_iso)


def test_iso_reflection_check_refuses_a_map_whose_square_is_scalar_but_is_no_reflection():
    """eta - s*I must have rank one and trace -2s, s the column sum of eta:
    a half-turn squares to a scalar matrix as a reflection does and is
    refused all the same, and so are the identity, a translation, and the
    closed-form eta with an off-diagonal entry changed (another entry of its
    column takes up the change, so the column sums stay equal)."""
    cs = construct(Point(2, 3, 6))
    eta, q, q_iso = cs.iso_reflection, cs.q, cs.q_iso
    half_turn = projective.point_reflection(Point(1, 2, 3))
    assert half_turn @ half_turn == AffineMap(((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    rows = [list(row) for row in eta.ints]
    rows[1][0], rows[2][0] = zsum([rows[1][0], (1, 0)]), zsub(rows[2][0], (1, 0))
    changed = AffineMap.from_ints(1, rows)
    for refused in (
        half_turn,
        AffineMap(((1, 0, 0), (0, 1, 0), (0, 0, 1))),
        AffineMap(((2, 1, 1), (-1, 0, -1), (0, 0, 1))),
        changed,
    ):
        with pytest.raises(DegenerateConfiguration, match="^constructed map is not an affine reflection$"):
            require_iso_reflection(refused, q, q_iso)


def test_construct_divides_out_only_integer_constants(monkeypatch):
    """At a generic 4096-bit point, no canonicalization in construct divides
    out a content of more than a few bits: every member is built at the
    degree it keeps, and a polynomial content would cost some 4096 bits."""
    rng = random.Random("content:4096")
    while True:
        p = Point(*(rng.getrandbits(4096) | 1 << 4095 for _ in range(3)))
        if not degeneracy_report(p).any():
            break
    canonical, removed = projective._canonical, []

    def recorded(d, v):
        out = canonical(d, v)
        before = max(abs(n).bit_length() for pair in v for n in pair)
        after = max(abs(n).bit_length() for pair in out[1] for n in pair)
        removed.append(before - after)
        return out

    monkeypatch.setattr(projective, "_canonical", recorded)
    construct(p)
    assert len(removed) == 39
    assert max(removed) <= 8, sorted(removed)[-5:]


# -- totality ------------------------------------------------------------------------------


nonzero_coord = st.integers(min_value=-25, max_value=25).filter(lambda v: v != 0)


@given(st.tuples(nonzero_coord, nonzero_coord, nonzero_coord))
@settings(max_examples=150, deadline=None)
def test_construct_total_on_every_non_hard_point(t):
    # medians, the outer ellipse, and vertex-orthocenter points must all
    # degrade gracefully rather than raise
    p = Point(*t)
    flags = degeneracy_report(p)
    if flags.hard():
        return
    cs = construct(p)
    assert cs.circumcenter == complement(cs.orthocenter)
    assert cs.circumconic.center() == cs.circumcenter
    assert cs.inconic.center() == cs.q
    for name in cs.absent:
        assert getattr(cs, name) is None
    for name in OPTIONAL_MEMBERS:
        if getattr(cs, name) is None:
            assert name in cs.absent


# -- the cevian-conic center sweep ----------------------------------------------------


@pytest.mark.parametrize(
    "p, tri, digest",
    [
        (
            Point(7, 3, 2),
            RenderTriangle.parse("0,0;1,0;7/20,4/5"),
            "f491c9b1de689376c5354d7bd66acc7811200e1924f19c6827f001ce734309c4",
        ),
        (
            Point(2, 3, 6),
            RenderTriangle.default(),
            "61e5243fd72b2d8bfb0f6cf414d5285ee1385031c3f2e96a2902dcf10f2c78c3",
        ),
    ],
)
def test_z_locus_sweep_is_pinned(p, tri, digest):
    points = z_locus_sweep(p, tri.perpendicular_to_bc())
    assert len(points) == 160
    assert hashlib.sha256("\n".join(map(str, points)).encode()).hexdigest() == digest


def test_z_locus_sweep_leaves_out_a_sample_on_a_median(monkeypatch):
    """Sample k of the sweep from (2 : 9 : 3) toward (1 : -1 : 0) is
    p/w + k/240 * toward; one of them lies on a median and is left out.
    Every other gives the center of the conic through A, B, C, the sample
    and the complement of its isotomic conjugate, the definition of Z, at
    10 products each: the 6 of the table and the 4 of Z."""
    u, t = (2, 9, 3), (1, -1, 0)
    p, toward = Point(*u), Point(*t)
    samples = [
        Point(*[Fraction(uk, 14) + Fraction(k, 240) * tk for uk, tk in zip(u, t)])
        for k in range(-80, 81)
        if k
    ]
    kept = [s for s in samples if not degeneracy_report(s).on_median]
    assert len(kept) == 159 and not any(degeneracy_report(s).hard() for s in samples)
    calls = count_calls(monkeypatch, "cevian.scalar", "zmul")
    points = z_locus_sweep(p, toward)
    assert len(calls) == 159 * 10 + 6
    monkeypatch.undo()
    assert points == [
        conic_through_five((*VERTICES, s, complement(isotomic(s)))).center() for s in kept
    ]


# -- the solves left ----------------------------------------------------------------------


def count_calls(monkeypatch, home, name):
    """Wrap the function `name` of module `home` in every cevian module that
    binds it; the returned list gets one entry per call."""
    fn = getattr(sys.modules[home], name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)

    for key, module in list(sys.modules.items()):
        if key.startswith("cevian") and getattr(module, name, None) is fn:
            monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("p", [Point(2, 3, 6), SQRT6_POINT], ids=["Q", "Q(sqrt(6))"])
def test_canonicalization_counts_are_pinned(monkeypatch, p):
    """construct canonicalizes the objects it keeps and no more: the
    parallel-line check of Centers and the half-turn of the fourth
    intersection canonicalize nothing of their own."""
    complement_map(), anticomplement_map()  # cached constants, built once
    calls = count_calls(monkeypatch, "cevian.projective", "_canonical")
    construct(p)
    assert len(calls) == 39
    calls.clear()
    Centers(p)
    assert len(calls) == 9


@pytest.mark.parametrize("p", [Point(5, -7, 11), SQRT6_POINT], ids=["Q", "Q(sqrt(6))"])
def test_product_counts_are_pinned(monkeypatch, p):
    """construct reads its closed forms off shared product tables, each
    product made once: 94 products of pairs, over Q and over Q(sqrt(6))
    alike, the checks of Centers included.  Centers makes 15 of them: the
    squares and pairwise products of p's coordinates once, in the table that
    the flags, p_iso, H, the cevian conic and ConstructionSet all read."""
    complement_map(), anticomplement_map()  # cached constants, built once
    calls = count_calls(monkeypatch, "cevian.scalar", "zmul")
    construct(p)
    assert len(calls) == 94
    calls.clear()
    Centers(p)
    assert len(calls) == 15


def test_construction_reads_its_conics_off_closed_forms(monkeypatch):
    """construct, over Q and over Q(sqrt(d)), the vertex-locus conics and
    the cevian-conic sweep solve no linear system."""
    solves = count_calls(monkeypatch, "cevian.projective", "null_space")
    construct(Point(2, 3, 6))
    construct(Point(1, Scalar(1, 1, 1610924047), Scalar(-2, 3, 1610924047)))
    construct(special_configuration_point())
    for vertex in "ABC":
        locus_conic(vertex)
    z_locus_sweep(Point(2, 3, 6), RenderTriangle.default().perpendicular_to_bc())
    assert solves == []


def count_map_builds(monkeypatch):
    """Count the calls of AffineMap.from_pairs, AffineMap.inverse and
    AffineMap.__matmul__."""
    calls = []
    from_pairs, inverse, matmul = AffineMap.from_pairs.__func__, AffineMap.inverse, AffineMap.__matmul__

    def counted_from_pairs(cls, pairs):
        calls.append("from_pairs")
        return from_pairs(cls, pairs)

    def counted_inverse(self):
        calls.append("inverse")
        return inverse(self)

    def counted_matmul(self, other):
        calls.append("matmul")
        return matmul(self, other)

    monkeypatch.setattr(AffineMap, "from_pairs", classmethod(counted_from_pairs))
    monkeypatch.setattr(AffineMap, "inverse", counted_inverse)
    monkeypatch.setattr(AffineMap, "__matmul__", counted_matmul)
    return calls


def test_centers_build_no_affine_map(monkeypatch):
    """H and O are read off p: Centers builds and inverts no affine map,
    over Q and over Q(sqrt(d))."""
    calls = count_map_builds(monkeypatch)
    Centers(Point(3, 5, 7))
    Centers(Point(1, Scalar(1, 1, 1610924047), Scalar(-2, 3, 1610924047)))
    assert calls == []


def test_construct_builds_inverts_and_composes_no_map(monkeypatch):
    """Every map of the construction is read off p: construct builds no map
    from point pairs, inverts none and composes none."""
    complement_map(), anticomplement_map()  # cached constants, built once
    calls = count_map_builds(monkeypatch)
    construct(Point(3, 5, 7))
    construct(Point(1, Scalar(1, 1, 1610924047), Scalar(-2, 3, 1610924047)))
    construct(special_configuration_point())
    assert calls == []


def test_construct_transforms_no_conic(monkeypatch):
    """The circumconic and its complement, the nine-point conic of A, B, C, H,
    are read off q: construct maps no conic."""
    transforms = count_calls(monkeypatch, "cevian.conics", "transform_conic")
    construct(Point(3, 5, 7))
    assert transforms == []


def test_checks_solve_the_nine_point_conic_as_their_second_path(monkeypatch):
    """The three checks that compare a nine-point conic with the
    construction's read it off the quadrangle's pencil with
    nine_point_conic."""
    solved = count_calls(monkeypatch, "cevian.conics", "nine_point_conic")
    for check_id in (
        "NH_complement_of_circumconic",
        "gen_feuerbach_tangency",
        "four_points_same_HO",
    ):
        assert run_point(Point(3, 5, 7), [check_id])[0].status == "pass"
    assert len(solved) == 3


def test_the_verify_path_solves_no_linear_system(monkeypatch):
    """The suite's checks, the nine-point conics of their quadrangles
    included, read every conic off a closed form."""
    solves = count_calls(monkeypatch, "cevian.projective", "null_space")
    assert all(r.status != "fail" for r in run_suite(42, 25).results)
    assert solves == []


# -- sampling -----------------------------------------------------------------------------


def test_sampler_is_deterministic():
    assert sample_nondegenerate(7, 5) == sample_nondegenerate(7, 5)
    assert sample_nondegenerate(7, 5) != sample_nondegenerate(8, 5)


def test_sampler_avoids_every_flag():
    for p in sample_nondegenerate(3, 40):
        assert not degeneracy_report(p).any()


def test_sampler_validates_count():
    with pytest.raises(ValueError, match="^count must be at least 1$"):
        sample_nondegenerate(1, 0)
    with pytest.raises(ValueError, match="^count must be at most 10000$"):
        sample_nondegenerate(1, 10_001)


def test_sampler_caps_rejections_not_draws():
    """10^4 points sample, about 900 draws rejected on the way, and the
    first 9000 are those a cap on all draws gave."""
    points = sample_nondegenerate(1, 10_000)
    assert len(points) == 10_000
    digest = hashlib.sha256("\n".join(map(str, points[:9000])).encode()).hexdigest()
    assert digest == "50ea17a00e1595a21663de199d744eb7341aad4f14563fb80911e529331df55e"


def test_sampler_gives_up_after_10_4_rejections(monkeypatch):
    flagged = DegeneracyReport(False, False, True, False, None)
    monkeypatch.setattr(constructions, "degeneracy_report", lambda p: flagged)
    with pytest.raises(ExhaustedRejections, match="10\\^4 rejections at seed 1"):
        sample_nondegenerate(1, 1)


# -- coefficient growth -----------------------------------------------------------------

# Bit length of each member over that of p, at random integer points: the
# degree of the member as a form in p.  A lost gcd or canonicalization
# shows up here as a higher degree.
MEMBER_DEGREES = {
    **dict.fromkeys(("p", "q_iso", "ninepoint_conic_iso"), 1),
    **dict.fromkeys(("p_iso", "q", "inconic_iso"), 2),
    **dict.fromkeys(
        (
            "cevian_map", "cevian_map_iso", "cevian_map_iso_inverse", "transfer_map",
            "second_cevian_map", "second_cevian_map_iso", "circum_to_inconic",
            "ninepoint_to_inconic", "cevian_map_inverse", "transfer_map_inverse",
            "cevian_conic", "v", "insimilicenter", "feuerbach_point",
        ),
        3,
    ),
    **dict.fromkeys(
        ("circumcenter_iso", "orthocenter_iso", "circumconic", "ninepoint_conic", "inconic"), 4
    ),
    **dict.fromkeys(("circumcenter", "orthocenter", "orthocenter_preimage", "ninepoint_center"), 5),
    "iso_reflection": 6,
    "fourth_intersection": 8,
}


def _max_bits(member) -> int:
    rows = member.ints if isinstance(member, HomogeneousMatrix) else (member.ints,)
    return max(abs(n).bit_length() for row in rows for pair in row for n in pair)


@pytest.mark.parametrize("bits", [256, 1024])
def test_member_coefficient_degrees(bits):
    rng = random.Random(f"degree:{bits}")
    while True:
        p = Point(
            *(rng.choice((-1, 1)) * (rng.getrandbits(bits - 1) | 1 << (bits - 1)) for _ in range(3))
        )
        if not degeneracy_report(p).any():
            break
    cs = construct(p)
    base = _max_bits(cs.p)
    degrees = {
        name: round(_max_bits(member) / base)
        for name, member in vars(cs).items()
        if isinstance(member, (HomogeneousTriple, HomogeneousMatrix))
    }
    assert degrees == MEMBER_DEGREES
