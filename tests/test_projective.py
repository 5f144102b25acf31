import ast
import re
from collections import Counter
from fractions import Fraction
from math import gcd, isqrt, lcm
from pathlib import Path

import pytest
from hypothesis import assume, event, given, settings, strategies as st

from cevian import scalar as scalar_module
from cevian.scalar import (
    InexactDivision,
    Scalar,
    ScalarError,
    combine,
    divide_exactly,
    zmul,
    zscale,
    zsub,
    zsum,
)
from cevian.conics import (
    Conic,
    DegenerateConic,
    InfinityInvolution,
    NotIncident,
    SelfConjugate,
    NoRealIntersection,
    TangentAt,
    TwoPoints,
    conic_through_five,
    inconic_with_contacts,
    infinity_intersection_count,
    line_conic_intersections,
    nine_point_conic,
    transform_conic,
)
from cevian.cli import main as cli_main
from cevian.constructions import construct, locus_conic, special_configuration_point, z_locus_sweep
from cevian.render import RenderTriangle, _cartesian, _float, bary_to_xy
from cevian.verify import run_suite
from cevian.projective import (
    AffineMap,
    AffineReflection,
    CENTROID,
    CanonicalObject,
    CoincidentArguments,
    DependentSources,
    GeneralMap,
    GeometryError,
    Homothety,
    Identity,
    InfiniteInput,
    InfinitePoint,
    LINE_AT_INFINITY,
    Line,
    MID_AB,
    MID_BC,
    MID_CA,
    NotCollinear,
    OnSideline,
    Point,
    SIDE_AB,
    SIDE_BC,
    SIDE_CA,
    Translation,
    VERTEX_A,
    VERTEX_B,
    VERTEX_C,
    VERTICES,
    anticomplement,
    anticomplement_map,
    are_collinear,
    centroid_of,
    cevian_map,
    cevian_traces,
    collinear_ratio,
    cross,
    dot,
    HomogeneousMatrix,
    HomogeneousTriple,
    _canonical,
    _rank_one,
    adjugate3,
    complement,
    complement_map,
    incident,
    isotomic,
    join,
    mat_mul,
    mat_vec,
    meet,
    midpoint,
    null_space,
    parallel,
    parallel_through,
    perspector,
    point_reflection,
    reflect_through,
)

from projective_reference import (
    composed_involution,
    composed_parallel_through,
    composed_perspector,
    direction_of,
)
from test_classification import reference_circumconic_with_center

IDENTITY = AffineMap(((1, 0, 0), (0, 1, 0), (0, 0, 1)))

coords = st.integers(min_value=-20, max_value=20)


def points_off_sidelines():
    # clear of the sidelines of both the reference triangle and its
    # anticomplementary triangle, so cevian traces stay ordinary
    return st.tuples(
        coords.filter(lambda v: v != 0),
        coords.filter(lambda v: v != 0),
        coords.filter(lambda v: v != 0),
    ).filter(
        lambda t: t[0] + t[1] != 0 and t[1] + t[2] != 0 and t[2] + t[0] != 0
    ).map(lambda t: Point(*t))


def test_join_of_vertices_is_sideline():
    assert join(VERTEX_A, VERTEX_B) == SIDE_AB
    assert join(VERTEX_B, VERTEX_C) == SIDE_BC


def test_meet_of_sidelines_is_vertex():
    assert meet(SIDE_AB, SIDE_CA) == VERTEX_A


def test_join_coincident_raises():
    with pytest.raises(CoincidentArguments):
        join(Point(2, 4, 6), Point(1, 2, 3))


def test_meet_coincident_raises():
    with pytest.raises(CoincidentArguments, match="meet of coincident lines"):
        meet(Line(2, 4, 6), Line(1, 2, 3))


def test_median_infinite_point():
    median_a = join(CENTROID, MID_BC)
    at_inf = meet(median_a, LINE_AT_INFINITY)
    assert at_inf.is_infinite()
    assert incident(at_inf, median_a)


def test_projective_equality_up_to_scale():
    assert Point(2, 4, 6) == Point(1, 2, 3)
    s = Scalar(0, 1, 2)
    assert Point(s, 2 * s, 3 * s) == Point(1, 2, 3)
    assert Point(1, 2, 3) != Point(1, 2, 4)


def test_point_parse_round_trip():
    for p in (Point(2, 3, 6), Point(Scalar(1), Scalar(1, 1, 2), Scalar(1, -1, 2))):
        assert Point.parse(str(p)) == p
    line = Line(-2, 1, 1)
    assert Line.parse(str(line)) == line


def test_midpoint_of_side():
    assert midpoint(VERTEX_B, VERTEX_C) == MID_BC


def test_midpoint_needs_ordinary_points():
    with pytest.raises(InfiniteInput):
        midpoint(VERTEX_A, Point(0, 1, -1))


def test_two_medians_are_not_parallel():
    assert not parallel(join(VERTEX_A, MID_BC), join(VERTEX_B, MID_CA))
    l_g = parallel_through(CENTROID, SIDE_BC)
    assert parallel(l_g, SIDE_BC)
    assert l_g == Line(-2, 1, 1)


def test_collinear_ratio_midpoint():
    assert collinear_ratio(MID_BC, VERTEX_B, VERTEX_C) == Scalar(-1)


def test_collinear_ratio_requires_collinearity():
    with pytest.raises(NotCollinear):
        collinear_ratio(VERTEX_A, VERTEX_B, CENTROID)


def test_collinear_ratio_refuses_coincident_base_points():
    with pytest.raises(CoincidentArguments, match="ratio base points coincide"):
        collinear_ratio(MID_BC, VERTEX_B, Point(0, 2, 2))


def test_reflection_fixes_infinite_points():
    d = Point(0, 1, -1)
    assert reflect_through(CENTROID, d) == d
    assert reflect_through(MID_BC, VERTEX_B) == VERTEX_C


# -- the complement map ------------------------------------------------------


def test_complement_map_basics():
    k = complement_map()
    assert k(CENTROID) == CENTROID
    assert k(VERTEX_A) == MID_BC
    assert k @ anticomplement_map() == IDENTITY


@given(points_off_sidelines())
@settings(max_examples=100, deadline=None)
def test_complement_closed_form(p):
    x, y, z = p.coords
    assert complement(p) == Point(y + z, z + x, x + y)


def test_classify_complement_map():
    kind = complement_map().classify()
    assert kind == Homothety(CENTROID, Scalar(Fraction(-1, 2)))


def test_classify_identity():
    assert IDENTITY.classify() == Identity()


def test_classify_halfturn_composition():
    # complement after a point reflection is the homothety with ratio 1/2
    # centered at the anticomplement of the reflection center
    o = Point(2, 5, 7)
    kind = (complement_map() @ point_reflection(o)).classify()
    assert kind == Homothety(anticomplement(o), Scalar(Fraction(1, 2)))


def test_classify_point_reflection():
    o = Point(1, 2, 4)
    assert point_reflection(o).classify() == Homothety(o, Scalar(-1))


def test_classify_translation():
    # column-sum-one matrix acting as identity at infinity with no fixed point
    t = AffineMap(((1, 0, 0), (1, 2, 1), (-1, -1, 0)))
    kind = t.classify()
    assert isinstance(kind, Translation)
    assert kind.direction.is_infinite()


def test_classify_general():
    m = AffineMap.from_pairs(
        ((VERTEX_A, VERTEX_B), (VERTEX_B, VERTEX_C), (VERTEX_C, VERTEX_A))
    )
    assert isinstance(m.classify(), GeneralMap)


# -- cevian maps ---------------------------------------------------------------


def test_cevian_map_fixed_point():
    p = Point(2, 3, 6)
    t = cevian_map(p)
    d, e, f = cevian_traces(p)
    assert (t(VERTEX_A), t(VERTEX_B), t(VERTEX_C)) == (d, e, f)
    q = complement(isotomic(p))
    assert t(q) == q


def test_from_pairs_rejects_dependent_sources():
    with pytest.raises(DependentSources):
        AffineMap.from_pairs(
            ((VERTEX_A, VERTEX_A), (VERTEX_B, VERTEX_B), (MID_AB, CENTROID))
        )


def test_from_pairs_rejects_infinite_targets():
    with pytest.raises(InfinitePoint):
        AffineMap.from_pairs(
            ((VERTEX_A, Point(0, 1, -1)), (VERTEX_B, VERTEX_B), (VERTEX_C, VERTEX_C))
        )


def test_degenerate_targets_allowed_but_flagged():
    m = AffineMap.from_pairs(
        ((VERTEX_A, CENTROID), (VERTEX_B, CENTROID), (VERTEX_C, MID_AB))
    )
    assert m.is_degenerate()


@given(points_off_sidelines(), points_off_sidelines())
@settings(max_examples=500, deadline=None)
def test_map_round_trip(p, x):
    t = cevian_map(p)
    assert t.inverse()(t(x)) == x


@given(points_off_sidelines(), points_off_sidelines())
@settings(max_examples=60, deadline=None)
def test_composition_keeps_column_sums_equal(p1, p2):
    m = (cevian_map(p1) @ cevian_map(p2)).matrix
    sums = [m[0][j] + m[1][j] + m[2][j] for j in range(3)]
    assert sums[0] == sums[1] == sums[2]
    assert not sums[0].is_zero()


def test_classification_scale_invariant():
    k = complement_map()
    doubled = AffineMap([[x * 2 for x in row] for row in k.matrix])
    assert doubled.classify() == k.classify()


# -- isotomic conjugation --------------------------------------------------------


def test_isotomic_examples():
    assert isotomic(CENTROID) == CENTROID
    assert isotomic(Point(2, 3, 6)) == Point(3, 2, 1)
    assert isotomic(isotomic(Point(5, 7, 11))) == Point(5, 7, 11)


def test_isotomic_on_sideline_rejected():
    with pytest.raises(OnSideline):
        isotomic(Point(0, 1, 2))


@given(points_off_sidelines())
@settings(max_examples=100, deadline=None)
def test_isotomic_involution(p):
    assert isotomic(isotomic(p)) == p


def test_isotomic_matches_trace_reflection():
    # reflecting each cevian trace in the corresponding side midpoint and
    # intersecting the new cevians reproduces the conjugate
    p = Point(3, 5, 7)
    d, e, f = cevian_traces(p)
    d2 = reflect_through(MID_BC, d)
    e2 = reflect_through(MID_CA, e)
    target = meet(join(VERTEX_A, d2), join(VERTEX_B, e2))
    assert target == isotomic(p)
    assert incident(target, join(VERTEX_C, reflect_through(MID_AB, f)))


# -- the iso-reflection ------------------------------------------------------------


def test_iso_reflection_swaps_pairs():
    cs = construct(Point(2, 3, 6))
    eta = cs.iso_reflection
    assert eta(cs.p) == cs.p_iso
    assert eta(cs.q) == cs.q_iso
    assert eta @ eta == IDENTITY
    kind = eta.classify()
    assert isinstance(kind, AffineReflection)
    v = meet(join(cs.p, cs.q), join(cs.p_iso, cs.q_iso))
    assert kind.axis == join(CENTROID, v)
    assert kind.direction == direction_of(join(cs.p, cs.p_iso))
    assert kind.direction.is_infinite()


def test_iso_reflection_commutes_with_complement():
    eta = construct(Point(5, 2, 9)).iso_reflection
    k = complement_map()
    assert eta @ k == k @ eta


def test_perspector_of_cevian_triangle():
    p = Point(4, 9, 2)
    assert perspector((VERTEX_A, VERTEX_B, VERTEX_C), cevian_traces(p)) == p


def test_perspector_none_when_not_perspective():
    not_perspective = (VERTICES, (Point(0, 1, 1), Point(1, 0, 1), Point(2, 1, 0)))
    # all three joins are the sideline AB, so no single point is singled out
    joins_coincide = ((VERTEX_A, VERTEX_B, MID_AB), (VERTEX_B, MID_AB, VERTEX_A))
    for tri1, tri2 in (not_perspective, joins_coincide):
        assert perspector(tri1, tri2) is None


# -- the integer kernel ----------------------------------------------------------

FIELDS = (1, 2, 6, 1610924047)


def as_scalar(value):
    return value if isinstance(value, Scalar) else Scalar(value)


def reference_canonical(values):
    """Canonical form by Scalar arithmetic: divide by the leading entry, then
    clear the rational content."""
    scalars = [as_scalar(v) for v in values]
    lead = next(s for s in scalars if not s.is_zero())
    scalars = [s / lead for s in scalars]
    parts = [part for s in scalars for part in (s.a, s.b) if part != 0]
    scale = Fraction(
        lcm(*(x.denominator for x in parts)), gcd(*(x.numerator for x in parts))
    )
    return tuple(s * scale for s in scalars)


def reference_null_space(rows, ncols):
    """Gauss-Jordan elimination over Scalars, dividing each pivot row by its
    pivot: the free columns and one basis vector per free column, with a 1
    there."""
    mat = [[as_scalar(x) for x in row] for row in rows]
    pivot_cols = []
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
    free_cols = [c for c in range(ncols) if c not in pivot_cols]
    basis = []
    for free in free_cols:
        vec = [Scalar(0)] * ncols
        vec[free] = Scalar(1)
        for row_idx, pc in enumerate(pivot_cols):
            vec[pc] = -mat[row_idx][free]
        basis.append(tuple(vec))
    return free_cols, basis


rationals = st.one_of(
    st.just(Fraction(0)),
    st.integers(-40, 40).map(Fraction),
    st.fractions(min_value=-50, max_value=50, max_denominator=36),
)


def field_entries(d):
    """Entries of Q(sqrt(d)): zeros, rationals and a + b*sqrt(d)."""
    if d == 1:
        return rationals
    return st.one_of(rationals, st.builds(lambda a, b: Scalar(a, b, d), rationals, rationals))


@st.composite
def field_vectors(draw, length):
    d = draw(st.sampled_from(FIELDS))
    values = draw(st.lists(field_entries(d), min_size=length, max_size=length))
    if all(as_scalar(v).is_zero() for v in values):
        values[draw(st.integers(0, length - 1))] = draw(
            st.sampled_from([Scalar(-3), Scalar(2, -1, d), Scalar(0, 5, d)])
        )
    return values


@given(field_vectors(3))
@settings(max_examples=400, deadline=None)
def test_canonical_triple_matches_scalar_reference(values):
    expected = reference_canonical(values)
    for cls in (Point, Line):
        obj = cls(*values)
        assert obj.coords == expected
        rescaled = cls(*(Fraction(-7, 3) * v for v in values))
        assert rescaled == obj and hash(rescaled) == hash(obj)


@given(field_vectors(9))
@settings(max_examples=200, deadline=None)
def test_canonical_matrix_matches_scalar_reference(values):
    expected = reference_canonical(values)
    m = HomogeneousMatrix([values[0:3], values[3:6], values[6:9]])
    assert m.matrix == (expected[0:3], expected[3:6], expected[6:9])
    scaled = [Fraction(-7, 3) * v for v in values]
    rescaled = HomogeneousMatrix([scaled[0:3], scaled[3:6], scaled[6:9]])
    assert rescaled == m and hash(rescaled) == hash(m)


def pair_mul(x, y, d):
    """(a + b*sqrt(d)) * (c + e*sqrt(d)) as a pair."""
    (a, b), (c, e) = x, y
    return a * c + b * e * d, a * e + b * c


@st.composite
def linear_systems(draw):
    """Pair rows over Z[sqrt(d)] with fresh rows, zero rows, duplicated rows
    and combinations of earlier rows, so that every rank from 0 to full
    occurs."""
    nrows, ncols = draw(st.sampled_from([(3, 3), (5, 6), (6, 6), (9, 6)]))
    d = draw(st.sampled_from(FIELDS))
    small = st.integers(-4, 4)
    rational = small.map(lambda a: (a, 0))
    entry = rational if d == 1 else st.one_of(rational, st.tuples(small, small))
    rows = []
    for _ in range(nrows):
        kind = draw(st.sampled_from(["fresh", "fresh", "zero", "copy", "combination"]))
        if kind == "fresh" or not rows:
            row = draw(st.lists(entry, min_size=ncols, max_size=ncols))
        elif kind == "zero":
            row = [(0, 0)] * ncols
        elif kind == "copy":
            row = list(draw(st.sampled_from(rows)))
        else:
            u, v = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            s, t = draw(entry), draw(entry)
            row = [
                tuple(a + b for a, b in zip(pair_mul(s, x, d), pair_mul(t, y, d)))
                for x, y in zip(u, v)
            ]
        rows.append(row)
    return d, rows


@given(linear_systems())
@settings(max_examples=300, deadline=None)
def test_null_space_matches_gauss_jordan_reference(system):
    d, rows = system
    ncols = len(rows[0])
    basis = null_space(d, rows)
    free_cols, expected = reference_null_space(
        [[Scalar(a, b, d) for a, b in row] for row in rows], ncols
    )
    assert len(basis) == len(expected)
    for vec, free, ref in zip(basis, free_cols, expected):
        assert all(isinstance(n, int) for pair in vec for n in pair)
        lead = Scalar(*vec[free], d)
        assert tuple(Scalar(a, b, d) / lead for a, b in vec) == ref
        for row in rows:
            products = [pair_mul(x, y, d) for x, y in zip(row, vec)]
            assert (sum(a for a, _ in products), sum(b for _, b in products)) == (0, 0)


def test_exact_division_checks_the_remainder():
    assert divide_exactly([(6, 4), (-2, 0)], (2, 0), 2) == [(3, 2), (-1, 0)]
    # (1 + sqrt(2)) * (-1 + sqrt(2)) = 1
    assert divide_exactly([(1, 0)], (1, 1), 2) == [(-1, 1)]
    with pytest.raises(InexactDivision):
        divide_exactly([(3, 0)], (2, 0), 1)
    with pytest.raises(InexactDivision):
        divide_exactly([(4, 0), (1, 0)], (2, 1), 2)


def test_canonical_refuses_an_irrational_part_at_d_1():
    """Every d = 1 branch of the kernel reads only the rational half, so an
    irrational part at d = 1 is refused where every object is built."""
    with pytest.raises(ValueError, match=r"entry 0 = \(2, 3\) has an irrational part at d = 1"):
        Point.from_ints(1, [(2, 3), (4, 0), (0, 0)])
    rows = (((1, 0), (0, 0), (0, 0)), ((0, 0), (1, 0), (0, 0)), ((0, 0), (0, -1), (1, 0)))
    with pytest.raises(ValueError, match=r"entry 7 = \(0, -1\) has an irrational part at d = 1"):
        HomogeneousMatrix.from_ints(1, rows)



def test_canonical_refuses_rational_multiples_of_an_irrational_lead_at_d_1():
    """Every entry a rational multiple of an irrational lead: conjugating
    the lead away would leave a rational vector, so the invariant at d = 1
    must be tested before any d != 1 arithmetic runs."""
    with pytest.raises(ValueError, match=r"^entry 0 = \(2, 1\) has an irrational part at d = 1$"):
        Point.from_ints(1, [(2, 1), (4, 2), (0, 0)])
    rows = (((0, 0), (3, -1), (0, 0)), ((-6, 2), (0, 0), (0, 0)), ((0, 0), (0, 0), (9, -3)))
    with pytest.raises(ValueError, match=r"^entry 1 = \(3, -1\) has an irrational part at d = 1$"):
        HomogeneousMatrix.from_ints(1, rows)


def led_at(length, k, lead):
    """Zeros before position k, lead at k, then even entries, rational and
    irrational: a vector whose gcd and sign both matter."""
    tail = [(2 * (j + 1) * (-1) ** j, 2 * j * (j % 3 != 1)) for j in range(k + 1, length)]
    return [(0, 0)] * k + [lead] + tail


@pytest.mark.parametrize("d", [2, 1610924047])
@pytest.mark.parametrize("lead", [(-6, 0), (-2, 4)], ids=["rational", "negative-norm"])
@pytest.mark.parametrize("length, k", [(3, k) for k in range(3)] + [(9, k) for k in range(9)])
def test_canonical_at_every_lead_position(length, k, lead, d):
    """The written-out d != 1 bodies pick the first nonzero entry as the
    lead in every position, for a rational lead and an irrational one of
    negative norm, and give what the general reference gives."""
    v = led_at(length, k, lead)
    assert _canonical(d, v) == general_canonical(d, v)


@pytest.mark.parametrize("d, v, expected", [
    (2, [(0, 1), (0, 2), (0, 0)], (1, ((1, 0), (2, 0), (0, 0)))),
    (6, [(0, -3), (0, 0), (0, 0), (0, 0), (0, -3), (0, 0), (0, 0), (0, 0), (0, -3)],
     (1, ((1, 0), (0, 0), (0, 0), (0, 0), (1, 0), (0, 0), (0, 0), (0, 0), (1, 0)))),
])
def test_canonical_folds_to_d_1(d, v, expected):
    """sqrt(d) times a rational vector canonicalizes to the rational one at d = 1."""
    assert _canonical(d, v) == expected == general_canonical(d, v)


@pytest.mark.parametrize("d, v, message", [
    (2, [(0, 0)] * 3, "zero tuple has no projective meaning"),
    (1610924047, [(0, 0)] * 9, "zero tuple has no projective meaning"),
    (1, [(1, 0), (2, 0)], "2 entries: a point or line has 3 and a flattened matrix 9"),
    (2, [(1, 0), (2, 0)], "2 entries: a point or line has 3 and a flattened matrix 9"),
    (2, [(0, 0)] * 4, "4 entries: a point or line has 3 and a flattened matrix 9"),
    (1, [(0, 1)] * 4, "entry 0 = (0, 1) has an irrational part at d = 1"),
])
def test_canonical_errors(d, v, message):
    """The zero vector at d != 1, and a length that is neither a point's or
    line's 3 nor a flattened matrix's 9, are refused with their messages."""
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        _canonical(d, v)


# Matrices that HomogeneousMatrix subclasses refuse, as pair rows over
# Z[sqrt(d)]: over Q(sqrt(2)) each differs from an accepted one only in the
# irrational parts.
_REFUSED_MATRICES = [
    (AffineMap, 1, [[1, 0, 0], [0, 1, 0], [0, 0, 2]], "column sums differ: not an affine map"),
    (AffineMap, 2, [[(0, 1), 0, 0], [0, (0, 1), (0, 1)], [1, 1, (1, 1)]], "column sums differ: not an affine map"),
    (AffineMap, 1, [[1, 0, 0], [0, 1, 0], [-1, -1, 0]], "zero column sums: does not fix the affine plane"),
    (AffineMap, 2, [[(0, 1), 0, 0], [0, (0, 1), 0], [(0, -1), (0, -1), 0]],
     "zero column sums: does not fix the affine plane"),
    (Conic, 1, [[1, 2, 0], [0, 1, 0], [0, 0, 1]], "conic matrix must be symmetric"),
    (Conic, 2, [[1, (1, 1), 0], [1, 1, 0], [0, 0, 1]], "conic matrix must be symmetric"),
]


@pytest.mark.parametrize("cls, d, matrix, message", _REFUSED_MATRICES)
def test_matrix_validation_messages(cls, d, matrix, message):
    """Unequal column sums, zero column sums and an asymmetric conic are
    refused with their own messages, by from_ints and by the constructor,
    at d = 1 and over Q(sqrt(2))."""
    pairs = [[x if isinstance(x, tuple) else (x, 0) for x in row] for row in matrix]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        cls.from_ints(d, pairs)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        cls([[Scalar(a, b, d) if b else a for a, b in row] for row in pairs])
    # unequal sums and asymmetry over Q(sqrt(2)) lie in the irrational parts alone
    if d != 1 and not message.startswith("zero"):
        assert cls.from_ints(1, [[(a, 0) for a, _ in row] for row in pairs]).d == 1


def test_readme_names_the_fast_paths_at_d_1():
    """The functions of the number, object and rendering modules with an
    `if d == 1` branch are the ones the README's kernel paragraph names."""
    src = Path(scalar_module.__file__).parent
    branched = {
        fn.name
        for name in ("scalar.py", "projective.py", "render.py")
        for fn in ast.parse((src / name).read_text(encoding="utf-8")).body
        if isinstance(fn, ast.FunctionDef) and any(
            isinstance(node, ast.If) and ast.unparse(node.test) == "d == 1"
            for node in ast.walk(fn)
        )
    }
    readme = (src.parents[1] / "README.md").read_text(encoding="utf-8")
    named = re.search(r"keep a fast path at `d = 1`:(.*?)\.", readme, flags=re.S).group(1)
    assert set(re.findall(r"`(\w+)`", named)) == branched


# One general Z[sqrt(d)] reference for each kernel routine that keeps a fast
# path, with no shortcut of its own: the kernel must give what it gives at
# every d, d = 1 included.


def general_dot(u, v, d):
    a = b = 0
    for (x, y), (z, w) in zip(u, v):
        a += x * z + y * w * d
        b += x * w + y * z
    return a, b


def general_cross(u, v, d):
    (a0, b0), (a1, b1), (a2, b2) = u
    (c0, e0), (c1, e1), (c2, e2) = v
    return (
        (a1 * c2 - a2 * c1 + (b1 * e2 - b2 * e1) * d, a1 * e2 + b1 * c2 - a2 * e1 - b2 * c1),
        (a2 * c0 - a0 * c2 + (b2 * e0 - b0 * e2) * d, a2 * e0 + b2 * c0 - a0 * e2 - b0 * c2),
        (a0 * c1 - a1 * c0 + (b0 * e1 - b1 * e0) * d, a0 * e1 + b0 * c1 - a1 * e0 - b1 * c0),
    )


def general_mat_vec(m, v, d):
    return tuple([general_dot(row, v, d) for row in m])


def general_mat_mul(a, b, d):
    return tuple([tuple([general_dot(row, col, d) for col in zip(*b)]) for row in a])


def general_canonical(d, v):
    """v times the conjugate of its lead, divided by the gcd of its ints,
    with the sign that makes the lead positive; the kernel's two errors."""
    if d == 1 and any(y for _, y in v):
        i, entry = next((i, e) for i, e in enumerate(v) if e[1])
        raise ValueError(f"entry {i} = {entry} has an irrational part at d = 1")
    lead = next((x for x in v if x != (0, 0)), None)
    if lead is None:
        raise ValueError("zero tuple has no projective meaning")
    a, b = lead
    v = [(x * a - y * b * d, y * a - x * b) for x, y in v]
    g = gcd(*[n for pair in v for n in pair]) * (1 if a * a > b * b * d else -1)
    v = tuple([(x // g, y // g) for x, y in v])
    return (d if any(y for _, y in v) else 1), v


def general_matrix(d, rows):
    """HomogeneousMatrix._set by the reference: flatten, canonicalize, cut."""
    d, flat = general_canonical(d, [x for row in rows for x in row])
    return d, (flat[0:3], flat[3:6], flat[6:9])


def general_bary_to_xy(p, tri):
    """(X, Y) / w, w the coordinate sum of p, with w times its conjugate as
    the denominator."""
    d, xy, den = _cartesian(p, tri)
    a, b = zsum(p.ints)
    norm = a * a - b * b * d
    conj = (a, -b) if norm > 0 else (-a, b)
    return tuple([_float(*pair_mul(v, conj, d), d, den * abs(norm)) for v in xy])


def fraction_divide_exactly(v, y, d):
    """v / y entrywise as Fractions, (a + b r)(c - e r) / (c^2 - e^2 d) for
    r = sqrt(d): a quotient that is not an integer pair is an error."""
    c, e = y
    norm = Fraction(c * c - e * e * d)
    out = []
    for a, b in v:
        qa, qb = (a * c - b * e * d) / norm, (b * c - a * e) / norm
        if qa.denominator != 1 or qb.denominator != 1:
            raise InexactDivision(f"an entry is not a multiple of {y} in Z[sqrt({d})]")
        out.append((int(qa), int(qb)))
    return out


def outcome(f, *args):
    """The result of f, or the type and message of the error it raises."""
    try:
        return f(*args)
    except (ValueError, ScalarError, ZeroDivisionError) as exc:
        return type(exc), str(exc)


def built_matrix(d, rows):
    m = HomogeneousMatrix.from_ints(d, rows)
    return m.d, m.ints


def reflected(reflect, center, p):
    """The half-turn of p about center, or the message of InfiniteInput."""
    try:
        return reflect(center, p)
    except InfiniteInput as exc:
        return InfiniteInput, str(exc)


_BIG = st.integers(0, 4096).flatmap(lambda k: st.integers(-(1 << k), 1 << k))

_TRIANGLES = (RenderTriangle.default(), RenderTriangle.parse("1/3,2;-5,7/2;4,-1/6"))


@st.composite
def kernel_vectors(draw, d, length, stray=False):
    """Pair vectors over Z[sqrt(d)] with ints of up to 4096 bits: any, zero,
    with leading zero entries, or led by an irrational entry of negative
    norm a^2 - b^2 d.  With stray, an irrational part at d = 1 too."""
    v = [(draw(_BIG), draw(_BIG) if d != 1 else 0) for _ in range(length)]
    kind = draw(st.sampled_from(
        ["any", "zero", "zero lead", "negative norm lead"] + ["stray"] * stray
    ))
    if kind == "zero":
        v = [(0, 0)] * length
    elif kind == "zero lead":
        k = draw(st.integers(1, length - 1))
        v[:k] = [(0, 0)] * k
    elif kind == "negative norm lead" and d != 1:
        k = draw(st.integers(0, length - 1))
        b = draw(_BIG.filter(bool))
        a = draw(st.integers(-isqrt(b * b * d - 1), isqrt(b * b * d - 1)))
        v[:k + 1] = [(0, 0)] * k + [(a, b)]
    elif kind == "stray" and d == 1:
        k = draw(st.integers(0, length - 1))
        v[k] = (v[k][0], draw(_BIG.filter(bool)))
    return tuple(v)


@st.composite
def kernel_points(draw, d):
    """A point over Q(sqrt(d)) of up to 4096 bits, a third of them at
    infinity."""
    v = list(draw(kernel_vectors(d, 3)))
    if draw(st.integers(0, 2)) == 0:
        v[2] = zscale(-1, zsum(v[:2]))
    if all(x == (0, 0) for x in v):
        v[0] = (1, 0)
    return Point.from_ints(d, v)


def check_kernel_against_references(data, d):
    """dot, cross, mat_vec, mat_mul, _canonical, HomogeneousMatrix._set and
    bary_to_xy give what their general references give over Z[sqrt(d)],
    with 4096-bit ints, zero vectors and zero rows, leading zeros and irrational leads of
    negative norm, and the same errors and messages: the zero vector and an
    irrational part at d = 1.  Exact division gives what Fraction quotients
    give, and reflect_through what point_reflection gives, an infinite
    center's error included."""
    u, v, r0, r1, r2 = (data.draw(kernel_vectors(d, 3)) for _ in range(5))
    m = (r0, r1, r2)
    assert dot(u, v, d) == general_dot(u, v, d)
    assert cross(u, v, d) == general_cross(u, v, d)
    assert mat_vec(m, v, d) == general_mat_vec(m, v, d)
    n = tuple(data.draw(kernel_vectors(d, 3)) for _ in range(3))
    assert mat_mul(m, n, d) == general_mat_mul(m, n, d)
    assert mat_mul(n, m, d) == general_mat_mul(n, m, d)
    flat = data.draw(kernel_vectors(d, 9, stray=True))
    for w in (u, v, flat):
        assert outcome(_canonical, d, w) == outcome(general_canonical, d, w)
    for rows in (m, (flat[0:3], flat[3:6], flat[6:9])):
        assert outcome(built_matrix, d, rows) == outcome(general_matrix, d, rows)
    # a divisor y divides y * w exactly, and w itself only now and then
    y = next((x for x in u if x != (0, 0)), (-3, 0))
    w = tuple([pair_mul(y, x, d) for x in v]) if data.draw(st.booleans()) else v
    assert outcome(divide_exactly, w, y, d) == outcome(fraction_divide_exactly, w, y, d)
    center, p = data.draw(kernel_points(d)), data.draw(kernel_points(d))
    expected = reflected(lambda c, x: point_reflection(c)(x), center, p)
    assert reflected(reflect_through, center, p) == expected
    assert isinstance(expected, tuple) == center.is_infinite()
    if not p.is_infinite():
        tri = data.draw(st.sampled_from(_TRIANGLES))
        assert bary_to_xy(p, tri) == general_bary_to_xy(p, tri)


@pytest.mark.parametrize(
    "coords", [(3, -5, 7), (10**400, -1, 1), (2**1100, 1 - 2**1100, 0), (1, 10**400, -(10**400))]
)
def test_rational_bary_to_xy_gives_the_general_doubles(coords):
    """At d = 1 bary_to_xy reads the ints alone, and gives the doubles of
    the general path to the sign of a zero: an underflow is 0.0, never
    -0.0, and a coordinate beyond the double range is None."""
    p = Point(*coords)
    for tri in _TRIANGLES:
        assert repr(bary_to_xy(p, tri)) == repr(general_bary_to_xy(p, tri))


@pytest.mark.parametrize(
    "p, d", [(Point(1, -2, 1), 1), (Point(Scalar(1, 1, 2), -1, Scalar(0, -1, 2)), 2)], ids=["Q", "Q(sqrt(2))"]
)
def test_bary_to_xy_names_a_point_at_infinity(p, d):
    """A point at infinity has no position: bary_to_xy raises InfiniteInput
    over Q as over Q(sqrt(d)), and no ZeroDivisionError."""
    assert p.is_infinite() and p.d == d
    with pytest.raises(InfiniteInput, match=r" is at infinity$"):
        bary_to_xy(p, RenderTriangle.default())


@st.composite
def rank_test_matrices(draw, d):
    """3x3 pair matrices over Z[sqrt(d)]: any, zero, rank one (a column
    times a row), rank one with one entry changed, and rank two."""
    def outer():
        c, r = draw(kernel_vectors(d, 3)), draw(kernel_vectors(d, 3))
        return [[pair_mul(ck, rj, d) for rj in r] for ck in c]

    kind = draw(st.sampled_from(["any", "zero", "rank one", "changed", "rank two"]))
    if kind == "any":
        return tuple(draw(kernel_vectors(d, 3)) for _ in range(3))
    if kind == "zero":
        return (((0, 0),) * 3,) * 3
    m = outer()
    if kind == "changed":
        i, j = draw(st.integers(0, 2)), draw(st.integers(0, 2))
        m[i][j] = (m[i][j][0] + draw(st.integers(-2, 2)), m[i][j][1])
    elif kind == "rank two":
        m = [[(a + x, b + y) for (a, b), (x, y) in zip(row, more)] for row, more in zip(m, outer())]
    return tuple(tuple(row) for row in m)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_rank_one_is_a_vanishing_adjugate_of_a_nonzero_matrix(data):
    """_rank_one(m), read off one pivot and its four 2x2 minors, says what
    adj(m) = 0 with m != 0 says, over Q and Q(sqrt(d))."""
    d = data.draw(st.sampled_from(FIELDS))
    m = data.draw(rank_test_matrices(d))
    zero = (((0, 0),) * 3,) * 3
    assert _rank_one(m, d) == (adjugate3(m, d) == zero and m != zero)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_rational_branch_matches_the_general_kernel(data):
    """At d = 1 each kernel routine's fast path gives what the general
    Z[sqrt(d)] reference gives, errors and their messages included."""
    check_kernel_against_references(data, 1)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_written_out_kernel_matches_the_loop_forms(data):
    """Over Q(sqrt(d)), d != 1, the kernel written out for 3-vectors gives
    what the general references, loops over the entries, give."""
    check_kernel_against_references(data, data.draw(st.sampled_from(FIELDS[1:])))


@pytest.fixture
def scalar_arithmetic(monkeypatch):
    """Counts of Scalar +, -, * and / calls and of unary - calls ("neg"), by
    operation, and of Scalars built ("built"), by the constructor or by
    `Scalar._make`, which every arithmetic result and every Scalar view goes
    through."""
    counts = Counter()
    for op in ("add", "sub", "mul", "truediv"):
        for name in (f"__{op}__", f"__r{op}__"):
            original = getattr(Scalar, name, None)
            if original is None:  # Scalar has no reflected - or /
                continue

            def counted(self, other, _op=op, _original=original):
                counts[_op] += 1
                return _original(self, other)

            monkeypatch.setattr(Scalar, name, counted)
    neg = Scalar.__neg__

    def counted_neg(self):
        counts["neg"] += 1
        return neg(self)

    monkeypatch.setattr(Scalar, "__neg__", counted_neg)
    init, make = Scalar.__init__, Scalar._make

    def counted_init(self, *args, **kwargs):
        counts["built"] += 1
        init(self, *args, **kwargs)

    def counted_make(a, b, d):
        counts["built"] += 1
        return make(a, b, d)

    monkeypatch.setattr(Scalar, "__init__", counted_init)
    monkeypatch.setattr(Scalar, "_make", staticmethod(counted_make))
    monkeypatch.setattr(scalar_module, "_make", counted_make)
    return counts


def test_scalar_guard_counts_what_it_claims(scalar_arithmetic):
    x = Scalar(1, 2, 3)
    assert scalar_arithmetic["built"] == 1
    Point(1, 2, 3).coords  # three views, built by Scalar._make
    assert scalar_arithmetic["built"] == 4
    x / x  # one quotient, built by the module's _make
    assert scalar_arithmetic["truediv"] == 1
    assert scalar_arithmetic["built"] == 5
    -x
    assert scalar_arithmetic["neg"] == 1


SQRT = 1610924047
FIELD_POINTS = [
    (Point(3, -5, 7), Point(2, 9, -4)),
    (
        Point(1, Scalar(1, 1, SQRT), Scalar(-2, 3, SQRT)),
        Point(Scalar(0, 2, SQRT), 5, Scalar(4, -1, SQRT)),
    ),
]


@pytest.mark.parametrize("p, other", FIELD_POINTS)
def test_kernel_makes_no_scalar_arithmetic(scalar_arithmetic, p, other):
    cs = construct(p)
    m, m2, conic = cs.cevian_map, cevian_map(other), cs.inconic
    l = join(cs.q, other)
    rows = [
        tuple(pair_mul(c, c, p.d) for c in x.ints) + x.ints
        for x in (p, other, cs.q, cs.orthocenter)
    ]
    scalar_arithmetic.clear()
    join(p, other)
    meet(l, join(p, cs.q))
    incident(p, l)
    m @ m2
    m.inverse()
    m(other)
    m.apply_to_line(l)
    conic.contains(other)
    conic.polar(other)
    conic.pole(l)
    transform_conic(m2, conic)
    null_space(p.d, rows)
    nine_point_conic((*VERTICES, other))
    assert not +scalar_arithmetic


@pytest.mark.parametrize("p, other", FIELD_POINTS)
def test_solvers_build_no_scalar(scalar_arithmetic, p, other):
    """Every linear solve takes and returns pair vectors: a solver that went
    back through Scalars would build some."""
    cs = construct(p)
    five = (*VERTICES, p, cs.q)
    quadrangle = (*VERTICES, other)
    rows = [x.ints for x in (p, other)]
    scalar_arithmetic.clear()
    solved = [
        null_space(p.d, rows),
        conic_through_five(five),
        inconic_with_contacts(*cs.traces),
        nine_point_conic(quadrangle),
        reference_circumconic_with_center(cs.circumcenter),
    ]
    if p.d == 1:
        solved += [reference_circumconic_with_center(MID_BC), locus_conic("A")]
    assert not +scalar_arithmetic
    assert solved[1] == cs.cevian_conic
    assert solved[2] == cs.inconic
    assert solved[4] == cs.circumconic


@pytest.mark.parametrize("p, other", FIELD_POINTS)
def test_quadratic_roots_build_no_scalar(scalar_arithmetic, p, other):
    """A line meets a conic on pair vectors in each outcome, two points over
    the extension that a rational discriminant asks for included: the roots
    stay numerators over one denominator.
    So does the sqrt(2) point, and the count of meets at infinity reads the
    sign of the discriminant."""
    cs = construct(p)
    conic = cs.cevian_conic
    secant, tangent = join(cs.p, cs.q), conic.tangent_at(cs.p)
    inellipse = inconic_with_contacts(MID_BC, MID_CA, MID_AB)
    locus = Conic(((-2, 1, 1), (1, 0, 1), (1, 1, 0)))
    l_g = Line(-2, 1, 1)
    parabola = construct(Point(3, 6, -2)).inconic
    hyperbola = reference_circumconic_with_center(Point(1, 2, -4))
    scalar_arithmetic.clear()
    outcomes = [
        line_conic_intersections(secant, conic),
        line_conic_intersections(tangent, conic),
        line_conic_intersections(LINE_AT_INFINITY, inellipse),
        line_conic_intersections(l_g, locus),
    ]
    special = special_configuration_point()
    counts = [infinity_intersection_count(c) for c in (inellipse, parabola, hyperbola)]
    assert scalar_arithmetic["built"] == 0
    assert outcomes[0] in (TwoPoints(cs.p, cs.q), TwoPoints(cs.q, cs.p))
    assert outcomes[1] == TangentAt(cs.p)
    assert outcomes[2] == NoRealIntersection()
    assert isinstance(outcomes[3], TwoPoints) and outcomes[3].p1.d == 2
    assert locus.contains(outcomes[3].p1) and locus.contains(outcomes[3].p2)
    assert str(special) == "(1 : 1+1*sqrt(2) : 1-1*sqrt(2))"
    assert counts == [0, 1, 2]


def test_suite_scalar_totals(scalar_arithmetic):
    """The Scalars of run_suite(42, 25): the ratios of the homotheties the
    checks classify, and the two collinear ratios of the sqrt(2)
    configuration, which are compared, not squared.  The suite does no
    Scalar arithmetic."""
    run_suite(42, 25)
    assert scalar_arithmetic["built"] == 93
    assert arithmetic(scalar_arithmetic) == 0


def kernel_members(cs):
    """The points, lines, maps and conics of a construction, tuples unpacked."""
    for value in vars(cs).values():
        for x in value if isinstance(value, tuple) else (value,):
            if isinstance(x, (HomogeneousTriple, HomogeneousMatrix)):
                yield x


@pytest.mark.parametrize("p", [p for p, _ in FIELD_POINTS])
def test_printing_and_hashing_build_no_scalar(scalar_arithmetic, p):
    """Kernel objects print and hash from their integer pairs."""
    cs = construct(p)
    members = list(kernel_members(cs))
    assert len(members) > 30
    scalar_arithmetic.clear()
    for value in vars(cs).values():
        str(value)
    for x in members:
        hash(x)
    assert scalar_arithmetic["built"] == 0


def test_cli_construct_builds_only_the_parsed_scalars(scalar_arithmetic, capsys):
    """The three Scalars of the parsed coordinates are all the command builds."""
    assert cli_main(["construct", "--p=2:3:6"]) == 0
    assert scalar_arithmetic["built"] == 3
    assert '"bary": "(2 : 3 : 6)"' in capsys.readouterr().out


def arithmetic(counts):
    """The Scalar +, -, * and / and unary - calls of the counts."""
    return sum(counts[op] for op in ("add", "sub", "mul", "truediv", "neg"))


@pytest.mark.parametrize(
    "text", ["3:-5:7", f"1:1+1*sqrt({SQRT}):-2+3*sqrt({SQRT})"]
)
def test_cli_construct_makes_no_scalar_arithmetic(scalar_arithmetic, capsys, text):
    """The whole command, render block included: floats come from pair
    vectors, not from Scalar sums."""
    assert cli_main(["construct", f"--p={text}", "--triangle=-1/3,2;7,1/9;3,-5"]) == 0
    assert arithmetic(scalar_arithmetic) == 0
    assert capsys.readouterr().out.count('"xy"') > 20


@pytest.mark.parametrize("p, other", FIELD_POINTS)
def test_affine_helpers_make_no_scalar_arithmetic(scalar_arithmetic, p, other):
    cs = construct(p)
    scalar_arithmetic.clear()
    point_reflection(cs.circumcenter)
    collinear_ratio(cs.p, midpoint(cs.p, other), other)
    centroid_of(p, other, cs.q)
    z_locus_sweep(p, RenderTriangle.parse("0,0;1,0;7/20,4/5").perpendicular_to_bc())
    assert arithmetic(scalar_arithmetic) == 0


def normalized(p):
    """The test's oracle for affine coordinates: p / (x + y + z), in Scalars."""
    w = sum(p.coords, Scalar(0))
    return [x / w for x in p.coords]


@given(points_off_sidelines(), points_off_sidelines(), st.fractions(max_denominator=9))
@settings(max_examples=100, deadline=None)
def test_collinear_ratio_matches_affine_coordinates(x, z, t):
    assume(x != z and not x.is_infinite() and not z.is_infinite())
    nx, nz = normalized(x), normalized(z)
    y = Point(*(a + t * (b - a) for a, b in zip(nx, nz)))
    assert collinear_ratio(x, y, z) == t


@pytest.mark.parametrize("p, other", FIELD_POINTS)
def test_affine_helpers_match_affine_coordinates(p, other):
    cs = construct(p)
    t = Scalar(2, -1, p.d) if p.d != 1 else Scalar(Fraction(-3, 4))
    nx, nz = normalized(cs.q), normalized(other)
    y = Point(*(a + t * (b - a) for a, b in zip(nx, nz)))
    assert collinear_ratio(cs.q, y, other) == t
    sums = [sum(c, Scalar(0)) for c in zip(*map(normalized, (p, other, cs.q)))]
    assert centroid_of(p, other, cs.q) == Point(*sums)
    center = normalized(cs.circumcenter)
    for x in (p, other, cs.q, VERTEX_A):
        if not x.is_infinite():
            image = Point(*(2 * c - a for c, a in zip(center, normalized(x))))
            assert point_reflection(cs.circumcenter)(x) == image
            assert reflect_through(cs.circumcenter, x) == image


# -- the raw-vector helpers against the compositions they replaced ------------------
#
# parallel_through, perspector and InfinityInvolution canonicalize only what
# they return.  Each must give what its composition of canonical objects in
# projective_reference.py gives, or raise the same GeometryError with the
# same message, over Q and over Q(sqrt(d)): a bare ValueError from a zero
# vector fails these tests.  Each case is built to reach one outcome, and
# the test asserts that it does.


def small_pairs(d):
    return st.tuples(st.integers(-9, 9), st.integers(-9, 9) if d != 1 else st.just(0))


def nonzero(v):
    assume(any(x != (0, 0) for x in v))
    return v


def raw_vector(data, d):
    return nonzero(data.draw(st.tuples(small_pairs(d), small_pairs(d), small_pairs(d))))


def nonzero_pair(data, d):
    return data.draw(small_pairs(d).filter(lambda x: x != (0, 0)))


def on_line(data, d, u, v):
    """A point of the line through the vectors u and v."""
    return Point.from_ints(d, nonzero(combine(nonzero_pair(data, d), u, nonzero_pair(data, d), v, d)))


def outcome_of(f, *args):
    """What f returns, or the type and message of the GeometryError it raises."""
    try:
        return f(*args)
    except GeometryError as exc:
        return type(exc), str(exc)


def outcome_name(outcome):
    if outcome is None or isinstance(outcome, CanonicalObject):
        return type(outcome).__name__
    return outcome[0].__name__


_ONES = ((1, 0), (1, 0), (1, 0))


@given(
    st.data(),
    st.sampled_from(FIELDS),
    st.sampled_from(["any", "p on l", "p at the direction", "l at infinity"]),
)
@settings(max_examples=300, deadline=None)
def test_parallel_through_is_the_join_with_the_direction(data, d, case):
    p, l = raw_vector(data, d), raw_vector(data, d)
    if case == "p on l":
        l = nonzero(cross(p, raw_vector(data, d), d))
    elif case == "p at the direction":
        p = nonzero(cross(l, _ONES, d))
    elif case == "l at infinity":
        l = (nonzero_pair(data, d),) * 3
    p, l = Point.from_ints(d, p), Line.from_ints(d, l)
    got = outcome_of(parallel_through, p, l)
    assert got == outcome_of(composed_parallel_through, p, l)
    event(f"{case}: {outcome_name(got)}")
    if case == "l at infinity":
        assert got == (InfiniteInput, "the line at infinity has no single direction")
    elif case == "p at the direction":
        assert got == (CoincidentArguments, "point is the direction itself")
    elif isinstance(got, Line) and not p.is_infinite():
        assert incident(p, got) and parallel(got, l)
        if case == "p on l":
            assert got == l


@given(
    st.data(),
    st.sampled_from(FIELDS),
    st.sampled_from(["perspective", "any", "two joins one line", "one line", "coincident pair"]),
)
@settings(max_examples=400, deadline=None)
def test_perspector_is_the_common_point_of_the_joins(data, d, case):
    tri1 = [Point.from_ints(d, raw_vector(data, d)) for _ in range(3)]
    tri2 = [Point.from_ints(d, raw_vector(data, d)) for _ in range(3)]
    center = Point.from_ints(d, raw_vector(data, d))
    if case == "perspective":
        tri2 = [on_line(data, d, a.ints, center.ints) for a in tri1]
    elif case in ("two joins one line", "one line"):
        # the joins of every pair but the odd one lie on the line uv
        u, v = raw_vector(data, d), raw_vector(data, d)
        odd = data.draw(st.integers(0, 2)) if case == "two joins one line" else None
        for k in range(3):
            if k != odd:
                tri1[k], tri2[k] = on_line(data, d, u, v), on_line(data, d, u, v)
    elif case == "coincident pair":
        k, scale = data.draw(st.integers(0, 2)), nonzero_pair(data, d)
        tri2[k] = Point.from_ints(d, [zmul(x, scale, d) for x in tri1[k].ints])
    tri1, tri2 = tuple(tri1), tuple(tri2)
    got = outcome_of(perspector, tri1, tri2)
    assert got == outcome_of(composed_perspector, tri1, tri2)
    event(f"{case}: {outcome_name(got)}")
    coincident = [a for a, b in zip(tri1, tri2) if a == b]
    assert coincident or case != "coincident pair"
    if coincident:
        assert got == (CoincidentArguments, f"join of coincident points {coincident[0]}")
    elif case == "perspective":
        one_line = are_collinear(*tri1[:2], center) and are_collinear(tri1[0], tri1[2], center)
        assert got == (None if one_line else center)
    elif case == "one line":
        assert got is None
    if isinstance(got, Point):
        assert all(incident(got, join(a, b)) for a, b in zip(tri1, tri2))


@given(
    st.data(),
    st.sampled_from(FIELDS),
    st.sampled_from(["direction", "asymptotic direction", "finite x"]),
)
@settings(max_examples=300, deadline=None)
def test_conjugate_direction_is_the_polar_meet_with_infinity(data, d, case):
    m00, m11, m22, m01, m02, m12 = data.draw(st.tuples(*[small_pairs(d)] * 6))
    rows = ((m00, m01, m02), (m01, m11, m12), (m02, m12, m22))
    a, b = nonzero_pair(data, d), data.draw(small_pairs(d))
    x = nonzero((a, b, zscale(-1, zsum((a, b)))))
    if case == "finite x":
        x = (a, b, data.draw(small_pairs(d).filter(lambda c: zsum((a, b, c)) != (0, 0))))
    elif case == "asymptotic direction":
        # s C - f S, for S = u u^T with s = x.Sx = (u.x)^2 != 0 and f = x.Cx,
        # has x on it
        u = raw_vector(data, d)
        ux = dot(u, x, d)
        assume(ux != (0, 0))
        s, f = zmul(ux, ux, d), dot(x, mat_vec(rows, x, d), d)
        rows = tuple(
            tuple(zsub(zmul(s, c, d), zmul(f, zmul(ui, uj, d), d)) for c, uj in zip(row, u))
            for row, ui in zip(rows, u)
        )
    nonzero([c for row in rows for c in row])
    conic = Conic.from_ints(d, rows)
    try:
        inv = InfinityInvolution(conic)
    except DegenerateConic:
        assume(False)
    x = Point.from_ints(d, x)
    got = outcome_of(inv, x)
    assert got == outcome_of(composed_involution, conic, x)
    event(f"{case}: {outcome_name(got)}")
    if case == "finite x":
        assert got == (NotIncident, f"{x} is not at infinity")
    elif case == "asymptotic direction":
        assert got == (SelfConjugate, f"{x} is an asymptotic direction")
    elif not conic.contains(x):
        assert got.is_infinite() and inv(got) == x
