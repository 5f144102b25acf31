"""The quadratic solver over Z[sqrt(d)] against the Scalar solver it
replaced: that code, kept here as the reference with its own arithmetic and
brought to the one-call contract (a root over Q that needs sqrt(f) is
returned over Q(sqrt(f))), must give equal outcomes and equal error messages for
`quadratic_roots` (its roots read through `ratio`), `zsqrt` and
`line_conic_intersections`, over Q and three quadratic fields."""

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, lcm

from hypothesis import assume, event, given, settings, strategies as st

from cevian.conics import (
    Conic,
    DegenerateConic,
    NoRealIntersection,
    TangentAt,
    TwoPoints,
    _points_on_line,
    _residual,
    conic_through_five,
    line_conic_intersections,
)
from cevian.projective import Line, Point, dot, join, mat_vec
from cevian.scalar import (
    DegenerateEquation,
    IncompatibleExtensions,
    NoRealRoots,
    Roots,
    Scalar,
    combine,
    integer_vector,
    join_d,
    quadratic_roots,
    ratio,
    squarefree_decompose,
    zscale,
    zsqrt,
)

FIELDS = (1, 2, 6, 1610924047)


# -- the reference: the Scalar solver, as it was ------------------------------


@dataclass(frozen=True)
class TwoRoots:
    r1: Scalar
    r2: Scalar


@dataclass(frozen=True)
class DoubleRoot:
    r: Scalar


def as_scalar(value):
    return value if isinstance(value, Scalar) else Scalar(value)


def sign(x):
    """The exact sign of a + b*sqrt(d), decided on squares."""
    sa, sb = (x.a > 0) - (x.a < 0), (x.b > 0) - (x.b < 0)
    if sa == sb or not sb:
        return sa
    if not sa:
        return sb
    return sa if x.a * x.a > x.b * x.b * x.d else sb


def ref_rational_sqrt(q):
    if q < 0:
        return None
    if q == 0:
        return Fraction(0)
    rn, rd = isqrt(q.numerator), isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


def ref_sqrt_in_field(x, ambient_d=None):
    ambient = ambient_d if ambient_d is not None else x.d
    if x.d != 1 and ambient != x.d:
        raise IncompatibleExtensions(f"{x} does not live in Q(sqrt({ambient}))")
    if x.is_zero():
        return x
    if sign(x) < 0:
        return None
    if x.b == 0:
        r = ref_rational_sqrt(x.a)
        if r is not None:
            return Scalar(r)
        if ambient != 1:
            r = ref_rational_sqrt(x.a / ambient)
            if r is not None:
                return Scalar(0, r, ambient)
        return None
    n = ref_rational_sqrt(x.a * x.a - x.b * x.b * x.d)
    if n is None:
        return None
    for candidate in ((x.a + n) / 2, (x.a - n) / 2):
        u = ref_rational_sqrt(candidate)
        if u is not None and u != 0:
            root = Scalar._make(u, x.b / (2 * u), x.d)
            if root * root == x:
                return root if sign(root) > 0 else -root
    return None


def ref_solve_quadratic(a, b, c, d=1):
    """The roots of a*x^2 + b*x + c for coefficients of Q(sqrt(d)): found in
    Q(sqrt(d)) first, and over Q in the field the square-free part of the
    discriminant names."""
    a, b, c = as_scalar(a), as_scalar(b), as_scalar(c)
    for coeff in (a, b, c):
        if coeff.d not in (1, d):
            raise IncompatibleExtensions(f"coefficients mix sqrt({d}) and sqrt({coeff.d})")
    if a.is_zero():
        raise DegenerateEquation("a = 0: the equation is not quadratic")
    disc = b * b - 4 * a * c
    if disc.is_zero():
        return DoubleRoot(-b / (2 * a))
    if sign(disc) < 0:
        return NoRealRoots()
    root = ref_sqrt_in_field(disc, d)
    if root is None and d == 1:
        # sqrt(n/m) = sqrt(n*m) / m, and n*m = f*s^2 for a square-free f
        f, s = squarefree_decompose(disc.a.numerator * disc.a.denominator)
        root = Scalar(0, Fraction(s, disc.a.denominator), f)
    if root is None:
        raise IncompatibleExtensions(
            f"discriminant {disc} has no square root in Q(sqrt({d}))"
        )
    return TwoRoots((-b + root) / (2 * a), (-b - root) / (2 * a))


def to_scalar(x, d):
    return Scalar._make(Fraction(x[0]), Fraction(x[1]), d)


def ref_combine(x, y, t):
    den = lcm(t.a.denominator, t.b.denominator)
    s = (t.a.numerator * (den // t.a.denominator), t.b.numerator * (den // t.b.denominator))
    d = join_d(join_d(x.d, y.d), t.d)
    return Point.from_ints(d, combine(s, x.ints, (den, 0), y.ints, d))


def ref_line_conic_intersections(l, conic):
    if conic.is_degenerate():
        raise DegenerateConic("intersection needs a nondegenerate conic")
    x, y = _points_on_line(l)[:2]
    d = join_d(conic.d, l.d)
    a2 = conic._form(x, d)
    b2 = dot(x.ints, mat_vec(conic.ints, y.ints, d), d)
    c2 = conic._form(y, d)
    if a2 == (0, 0) and c2 == (0, 0):
        return TwoPoints(x, y)
    if a2 == (0, 0):
        return TangentAt(x) if b2 == (0, 0) else TwoPoints(x, _residual(x, y, c2, b2, d))
    if c2 == (0, 0):
        return TangentAt(y) if b2 == (0, 0) else TwoPoints(y, _residual(y, x, a2, b2, d))
    outcome = ref_solve_quadratic(to_scalar(a2, d), to_scalar(zscale(2, b2), d), to_scalar(c2, d), d)
    if isinstance(outcome, TwoRoots):
        return TwoPoints(ref_combine(x, y, outcome.r1), ref_combine(x, y, outcome.r2))
    if isinstance(outcome, DoubleRoot):
        return TangentAt(ref_combine(x, y, outcome.r))
    return NoRealIntersection()


# -- the solver under test, read as the reference's outcomes --------------------


def solve(a, b, c, d=1):
    """quadratic_roots on the coefficients times the lcm of their
    denominators, over Q(sqrt(d)), its roots read as Scalars through ratio."""
    _, (a, b, c) = integer_vector([a, b, c])
    out = quadratic_roots(a, b, c, d)
    if not isinstance(out, Roots):
        return out
    kind = TwoRoots if len(out.nums) == 2 else DoubleRoot
    return kind(*[ratio(n, out.den, out.d) for n in out.nums])


def field_sqrt(x, ambient):
    """The root of x in Q(sqrt(ambient)) by zsqrt: that of x*den^2 over
    den, den the lcm of the denominators of x."""
    den = lcm(x.a.denominator, x.b.denominator)
    _, [(a, b)] = integer_vector([x])
    r = zsqrt((a * den, b * den), ambient)
    return None if r is None else ratio(r, (den, 0), ambient)


# -- the comparison --------------------------------------------------------------


def outcome(fn, *args, **kwargs):
    """The value of a call, or the type and message of what it raised."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 - every error is compared
        return type(exc), str(exc)


def assert_same(new, ref, *args, **kwargs):
    expected = outcome(ref, *args, **kwargs)
    assert outcome(new, *args, **kwargs) == expected
    event(expected[0].__name__ if isinstance(expected, tuple) else type(expected).__name__)
    return expected


small = st.fractions(min_value=-12, max_value=12, max_denominator=6)
rationals = st.one_of(st.just(Fraction(0)), st.integers(-6, 6).map(Fraction), small)


def field_values(d):
    """Values of Q(sqrt(d)): rationals, and a + b*sqrt(d)."""
    if d == 1:
        return rationals
    return st.one_of(rationals, st.builds(lambda a, b: Scalar(a, b, d), rationals, small))


@st.composite
def equations(draw):
    """Coefficients of a*x^2 + b*x + c: random ones of one field, now and
    then one of another field, or the product (x - u)(x - v) of roots of
    the field, conjugate roots included, which asks for the extension."""
    d = draw(st.sampled_from(FIELDS))
    values = field_values(d)
    kind = draw(st.sampled_from(["random", "random", "roots", "conjugates"]))
    if kind == "random":
        coeffs = draw(st.lists(values, min_size=3, max_size=3))
        if draw(st.integers(0, 9)) == 0:
            other = draw(st.sampled_from([e for e in FIELDS if e not in (1, d)]))
            coeffs[draw(st.integers(0, 2))] = Scalar(draw(small), 1, other)
    else:
        k = draw(small.filter(bool))
        u = draw(values)
        if kind == "roots":
            v = draw(values)
        else:
            s, t = draw(small), draw(small)
            u, v = Scalar(s, t, d), Scalar(s, -t, d)
        coeffs = [Scalar(k), -k * (as_scalar(u) + v), k * u * v]
    ambient = draw(st.sampled_from([None, None, *FIELDS[1:]]))
    return coeffs, ambient


@given(equations())
@settings(max_examples=600, deadline=None)
def test_solve_quadratic_matches_scalar_reference(equation):
    """quadratic_roots solves the equation with cleared denominators, so
    the reference solves that one too, whose discriminant its messages
    print; the roots and the extension they need are those of the equation
    as drawn.  Rational coefficients are read over Q or over the drawn
    ambient field."""
    coeffs, ambient = equation
    try:
        d, pairs = integer_vector(coeffs)
    except IncompatibleExtensions:
        # two fields: the pair conversion refuses them, as the reference does
        assert outcome(ref_solve_quadratic, *coeffs)[0] is IncompatibleExtensions
        return
    if d == 1 and ambient is not None:
        d = ambient
    cleared = [ratio(x, (1, 0), d) for x in pairs]
    first = assert_same(solve, ref_solve_quadratic, *cleared, d)
    if not isinstance(first, tuple):
        assert outcome(ref_solve_quadratic, *coeffs, d) == first


@st.composite
def radicands(draw):
    """A value of a field, often a square of one or a rational multiple of d,
    and an ambient field: none, its own, or another."""
    d = draw(st.sampled_from(FIELDS))
    x = as_scalar(draw(field_values(d)))
    kind = draw(st.sampled_from(["random", "square", "times_d"]))
    if kind == "square":
        x = x * x
    elif kind == "times_d":
        x = Scalar(draw(small) ** 2 * d)
    ambient = draw(st.sampled_from([None, d, *FIELDS]))
    return x, ambient


@given(radicands())
@settings(max_examples=600, deadline=None)
def test_sqrt_in_field_matches_scalar_reference(case):
    x, ambient = case
    ambient = x.d if ambient is None else ambient
    assume(x.d in (1, ambient))  # zsqrt takes a value of its own field
    assert_same(field_sqrt, ref_sqrt_in_field, x, ambient)


@st.composite
def lines_and_conics(draw):
    """The conic through five points of one field, and a line: a random one,
    now and then over another field, the join of two of the five points, or
    the tangent at one of them."""
    d = draw(st.sampled_from(FIELDS))
    ints = st.integers(-6, 6)
    entry = ints.map(lambda a: (a, 0)) if d == 1 else st.tuples(ints, st.integers(-2, 2))
    vectors = st.lists(entry, min_size=3, max_size=3).filter(
        lambda v: any(x != (0, 0) for x in v)
    )
    points = [Point.from_ints(d, v) for v in draw(st.lists(vectors, min_size=5, max_size=5))]
    conic = outcome(conic_through_five, points)
    assume(isinstance(conic, Conic))
    kind = draw(st.sampled_from(["random", "other field", "secant", "tangent"]))
    if kind == "secant" and points[0] != points[1]:
        line = join(points[0], points[1])
    elif kind == "tangent" and not conic.is_degenerate():
        line = conic.polar(points[0])
    elif kind == "other field":
        other = draw(st.sampled_from([e for e in FIELDS if e not in (1, d)]))
        line = Line(1, Scalar(1, 1, other), -2)
    else:
        line = Line.from_ints(d, draw(vectors))
    return line, conic


@given(lines_and_conics())
@settings(max_examples=400, deadline=None)
def test_line_conic_intersections_match_scalar_reference(case):
    assert_same(line_conic_intersections, ref_line_conic_intersections, *case)
