"""Differential tests of the answers read off in closed form: map
classification, the circumconic with center O and parallelism, each
against a test-local copy of the solver-based code it replaced."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from cevian.scalar import Scalar, ratio, zmul, zscale, zsub, zsum
from cevian.conics import isotomic_image_of_line
from cevian.constructions import construct, special_configuration_point
from cevian.render import named_maps
from cevian.projective import (
    AffineMap,
    AffineReflection,
    DegenerateMap,
    DependentSources,
    GeneralMap,
    GeometryError,
    Homothety,
    Identity,
    InfiniteInput,
    LINE_AT_INFINITY,
    Line,
    MIDPOINTS,
    Point,
    Translation,
    VERTICES,
    complement_map,
    cross,
    join,
    mat_mul,
    mat_vec,
    meet,
    null_space,
    parallel,
    point_reflection,
)

ZERO = (0, 0)
ZERO_MATRIX = ((ZERO,) * 3,) * 3
V1 = ((1, 0), (-1, 0), (0, 0))
V2 = ((0, 0), (1, 0), (-1, 0))


def minus_diagonal(m, k):
    return tuple(
        tuple(zsub(x, k) if i == j else x for j, x in enumerate(row)) for i, row in enumerate(m)
    )


def reference_classify(f):
    """The solver-based classification: null spaces for the homothety center,
    the fixed axis and the reversed direction, and a join for the axis."""
    if f.is_degenerate():
        raise DegenerateMap("cannot classify a degenerate map")
    m, d = f.ints, f.d
    s = zsum(row[0] for row in m)
    m_minus_s = minus_diagonal(m, s)
    if m_minus_s == ZERO_MATRIX:
        return Identity()
    w1, w2 = mat_vec(m, V1, d), mat_vec(m, V2, d)
    k = w1[0]
    if (
        w2[1] == k
        and all(x == ZERO for x in cross(w1, V1, d))
        and all(x == ZERO for x in cross(w2, V2, d))
    ):
        if k == s:
            shift, other = tuple(zip(*m_minus_s))[:2]
            if all(x == ZERO for x in shift):
                shift = other
            return Translation(Point.from_ints(d, shift))
        center = Point.from_ints(d, null_space(d, m_minus_s)[0])
        return Homothety(center, ratio(k, s, d))
    if minus_diagonal(mat_mul(m, m, d), zmul(s, s, d)) == ZERO_MATRIX:
        fixed = null_space(d, m_minus_s)
        if len(fixed) == 2:
            axis = join(Point.from_ints(d, fixed[0]), Point.from_ints(d, fixed[1]))
            if not axis.is_line_at_infinity():
                minus = null_space(d, minus_diagonal(m, zscale(-1, s)))
                return AffineReflection(axis, Point.from_ints(d, minus[0]))
    return GeneralMap()


class NoSuchConic(GeometryError):
    """No nondegenerate circumconic has the given center."""


def reference_circumconic_with_center(o):
    """The circumconic centered at o solved from the pole conditions, with
    the mirror symmetry imposed where they drop rank."""
    if o.is_infinite():
        raise NoSuchConic("center must be ordinary")
    if o in VERTICES:
        raise NoSuchConic("no circumconic is centered at a vertex")
    (u, v, w), d = o.ints, o.d
    rows = [
        (zsub(w, v), zscale(-1, u), u),
        (v, zsub(u, w), zscale(-1, v)),
        (zscale(-1, w), w, zsub(v, u)),
    ]
    basis = null_space(d, rows)
    if len(basis) == 2:
        if u == ZERO:
            rows.append((ZERO, (1, 0), (-1, 0)))
        elif v == ZERO:
            rows.append(((1, 0), ZERO, (-1, 0)))
        else:
            rows.append(((1, 0), (-1, 0), ZERO))
        basis = null_space(d, rows)
    if len(basis) != 1:
        raise NoSuchConic(f"no circumconic has center {o}")
    conic = isotomic_image_of_line(Line.from_ints(d, basis[0]))
    if conic.is_degenerate() or conic.center() != o:
        raise NoSuchConic(f"only a degenerate conic is centered at {o}")
    return conic


def outcome(fn, *args):
    """The value of fn, or the type and message of the GeometryError it
    raises."""
    try:
        return fn(*args)
    except GeometryError as exc:
        return type(exc), str(exc)


# -- entries over Q and Q(sqrt(d)) --------------------------------------------

FIELDS = (1, 2, 6)
small = st.fractions(min_value=-6, max_value=6, max_denominator=4)


def scalars(d):
    if d == 1:
        return small.map(Scalar)
    return st.one_of(small.map(Scalar), st.builds(lambda a, b: Scalar(a, b, d), small, small))


ENTRIES = {d: scalars(d) for d in FIELDS}
AFFINE_XY = {d: st.tuples(entry, entry) for d, entry in ENTRIES.items()}


def affine_point(x, y):
    """The ordinary point with affine (normalized) coordinates x, y."""
    return Point(x, y, Scalar(1) - x - y)


def shift(p, q, t):
    """p + t*(q - p) on affine coordinate pairs."""
    return tuple(a + t * (b - a) for a, b in zip(p, q))


@st.composite
def affine_maps(draw):
    """(kind, map): maps by three point pairs, with random pairs, two fixed
    points (stretches, shears and reflections), homotheties, translations
    and affine reflections about a random axis."""
    d = draw(st.sampled_from(FIELDS))
    entry, xy = ENTRIES[d], AFFINE_XY[d]
    kind = draw(st.sampled_from(["random", "two_fixed", "homothety", "translation", "reflection"]))
    a, b, c = draw(xy), draw(xy), draw(xy)
    if kind == "random":
        images = (draw(xy), draw(xy), draw(xy))
    elif kind == "two_fixed":
        images = (a, b, draw(xy))
    elif kind == "homothety":
        center, k = draw(xy), draw(entry)
        images = tuple(shift(center, p, k) for p in (a, b, c))
    elif kind == "translation":
        v = draw(xy)
        images = tuple((p[0] + v[0], p[1] + v[1]) for p in (a, b, c))
    else:
        # a, b on the axis; c reflected through a point m of it, at times
        # along a sideline's direction, which zeroes a row of M - s*I
        m = shift(a, b, draw(entry))
        if draw(st.booleans()):
            e, t = draw(st.sampled_from([(0, 1), (1, 0), (1, -1)])), draw(entry)
            c = (m[0] + t * e[0], m[1] + t * e[1])
        images = (a, b, shift(c, m, Scalar(2)))
    sources = [affine_point(*p) for p in (a, b, c)]
    targets = [affine_point(*p) for p in images]
    try:
        f = AffineMap.from_pairs(tuple(zip(sources, targets)))
    except DependentSources:
        assume(False)
    return kind, f


EXPECTED_KIND = {
    "homothety": (Homothety, Translation, Identity),
    "translation": (Translation, Identity),
    "reflection": (AffineReflection, Identity),
}


@given(affine_maps())
@settings(max_examples=200, deadline=None)
def test_classify_matches_solver_reference(drawn):
    kind, f = drawn
    expected = outcome(reference_classify, f)
    assert outcome(f.classify) == expected
    if kind in EXPECTED_KIND and not f.is_degenerate():
        assert isinstance(expected, EXPECTED_KIND[kind])


def configuration_maps(p):
    """The named maps of p's configuration and the half-turn composite."""
    cs = construct(p)
    maps = [m for _, m in named_maps(cs) if m is not None]
    if not cs.circumcenter.is_infinite():
        maps.append(complement_map() @ point_reflection(cs.circumcenter))
    return maps


@given(st.tuples(*[st.integers(-9, 9)] * 3))
@settings(max_examples=80, deadline=None)
def test_configuration_maps_classify_as_the_reference(coords):
    try:
        maps = configuration_maps(Point(*coords))
    except (GeometryError, ValueError):
        assume(False)
    for f in maps:
        assert outcome(f.classify) == outcome(reference_classify, f)


def test_configuration_maps_cover_every_kind():
    """Over Q and Q(sqrt(2)) the configuration maps include affine
    reflections, homotheties, a translation and general maps, and each
    classifies as the reference does."""
    points = [Point(x, y, 7) for x in range(1, 6) for y in range(2, 9) if x != y]
    points += [special_configuration_point(), Point(1, Scalar(1, 1, 2), Scalar(3, -1, 2))]
    seen = set()
    for p in points:
        for f in configuration_maps(p):
            kind = f.classify()
            assert kind == reference_classify(f)
            seen.add(type(kind))
    assert {AffineReflection, Homothety, Translation, GeneralMap} <= seen


# -- the circumconic with center O --------------------------------------------


@st.composite
def driving_points(draw):
    """Points over Q or Q(sqrt(d)) with small entries."""
    entry = ENTRIES[draw(st.sampled_from(FIELDS))]
    coords = [draw(entry) for _ in range(3)]
    assume(any(not x.is_zero() for x in coords))
    return Point(*coords)


@given(driving_points())
@settings(max_examples=200, deadline=None)
def test_circumconic_with_center_matches_solver_reference(p):
    """The construction reads C~_O off q; the reference solves for the
    circumconic centered at O.  At a side midpoint a whole pencil shares the
    center, and q picks the member."""
    try:
        cs = construct(p)
    except GeometryError:
        assume(False)
    o = cs.circumcenter
    assume(not o.is_infinite())
    if o in MIDPOINTS:
        assert cs.circumconic.center() == o
    else:
        assert cs.circumconic == reference_circumconic_with_center(o)


# -- parallelism ----------------------------------------------------------------


@st.composite
def line_pairs(draw):
    """Two lines over Q or Q(sqrt(d)): random, equal, or the second a
    shift of the first by a multiple of the line at infinity (parallel)."""
    entry = ENTRIES[draw(st.sampled_from(FIELDS))]
    first = [draw(entry) for _ in range(3)]
    assume(any(not x.is_zero() for x in first))
    kind = draw(st.sampled_from(["random", "equal", "parallel"]))
    if kind == "random":
        second = [draw(entry) for _ in range(3)]
    elif kind == "equal":
        second = [x * Fraction(-3, 2) for x in first]
    else:
        t = draw(entry)
        second = [x + t for x in first]
    assume(any(not x.is_zero() for x in second))
    return Line(*first), Line(*second)


@given(line_pairs())
@settings(max_examples=200, deadline=None)
def test_parallel_matches_meet_at_infinity(lines):
    l1, l2 = lines
    if l1.is_line_at_infinity() or l2.is_line_at_infinity():
        with pytest.raises(InfiniteInput):
            parallel(l1, l2)
    else:
        assert parallel(l1, l2) == (l1 == l2 or meet(l1, l2).is_infinite())


def test_parallel_refuses_the_line_at_infinity():
    with pytest.raises(InfiniteInput):
        parallel(LINE_AT_INFINITY, Line(1, 2, 3))
