import math
from fractions import Fraction
from functools import cmp_to_key

import pytest
from hypothesis import given, settings, strategies as st

import cevian.scalar as scalar_module
from cevian.constructions import construct
from cevian.projective import Point
from cevian.scalar import (
    DegenerateEquation,
    DivisionByZero,
    FactorizationBudgetExceeded,
    IncompatibleExtensions,
    NoRealRoots,
    Roots,
    Scalar,
    integer_vector,
    quadratic_roots,
    ratio,
    squarefree_decompose,
    zsign,
    zsqrt,
)

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=12)
quad_scalars = st.builds(lambda a, b: Scalar(a, b, 2), rationals, rationals)
any_scalars = st.one_of(rationals.map(Scalar), quad_scalars)


def test_conjugate_product():
    assert Scalar(1, 1, 2) * Scalar(1, -1, 2) == Scalar(-1)


def test_rational_addition():
    assert Scalar(Fraction(3, 4)) + Fraction(1, 4) == 1


def test_reciprocal_of_one_plus_root_two():
    x = Scalar(1, 1, 2)
    inv = Scalar(1) / x
    assert inv == Scalar(-1, 1, 2)
    assert inv * x == 1


def test_division_by_zero():
    with pytest.raises(DivisionByZero):
        Scalar(1) / Scalar(0)


def test_incompatible_extensions():
    with pytest.raises(IncompatibleExtensions):
        Scalar(0, 1, 2) + Scalar(0, 1, 3)
    with pytest.raises(IncompatibleExtensions):
        Scalar(0, 1, 2) * Scalar(0, 1, 5)


def test_canonical_form():
    assert Scalar(1, 2, 8) == Scalar(1, 4, 2)  # sqrt(8) = 2 sqrt(2)
    assert Scalar(3, 0, 7) == Scalar(3)  # zero irrational part drops d
    assert Scalar(0, 1, 4).b == 0 and Scalar(0, 1, 4) == 2
    assert Scalar(0, 1, 18) == Scalar(0, 3, 2)


@st.composite
def same_field_operands(draw):
    """Two operands in one field Q(sqrt(d)), each either rational or built
    over the non-square-free 8 or 12, plus a plain rational."""
    d = draw(st.sampled_from([8, 12]))
    over_d = st.builds(lambda a, b: Scalar(a, b, d), rationals, rationals)
    operand = st.one_of(rationals.map(Scalar), over_d)
    return draw(operand), draw(operand), draw(rationals)


@given(same_field_operands())
@settings(max_examples=300, deadline=None)
def test_arithmetic_results_are_canonical(operands):
    x, y, k = operands
    results = [x + y, x - y, x * y, -x, x + k, k + x, x - k, k * x]
    if y:
        results += [x / y, Scalar(k) / y]
    if k:
        results.append(x / k)
    for r in results:
        full = Scalar(r.a, r.b, r.d)
        assert (type(r.a), type(r.b)) == (Fraction, Fraction)
        assert (r.a, r.b, r.d) == (full.a, full.b, full.d)
        assert (r.d == 1) == (r.b == 0)


def test_construct_over_quadratic_field_never_refactors_d(monkeypatch):
    d = 1610924047  # 49157 * 32771
    p = Point(Scalar(3), Scalar(1, 2, d), Scalar(-1, 1, d))
    calls = []
    real = scalar_module.squarefree_decompose
    monkeypatch.setattr(
        scalar_module, "squarefree_decompose", lambda n: calls.append(n) or real(n)
    )
    cs = construct(p)
    assert calls == []
    assert {c.d for c in cs.orthocenter.coords} <= {1, d}


def sign(x):
    """The exact sign of a Scalar: zsign of its pair times the positive lcm
    of its denominators."""
    d, [pair] = integer_vector([x])
    return zsign(pair, d)


def test_sign_is_exact():
    assert zsign((0, 1), 2) == 1
    assert zsign((-3, 2), 2) == -1  # 2 sqrt(2) < 3
    assert zsign((3, -2), 2) == 1
    assert zsign((-1, 1), 2) == 1  # sqrt(2) > 1
    assert zsign((0, 0), 1) == 0
    assert zsign((-7, 5), 2) == 1  # 5 sqrt(2) > 7, since 50 > 49
    assert sign(Scalar(1, 1, 2) - 2) == 1  # 1 + sqrt(2) > 2
    assert sign(Scalar(Fraction(-1, 3), Fraction(1, 4), 2)) == 1  # 3 sqrt(2) > 4


@given(any_scalars, any_scalars, any_scalars)
@settings(max_examples=300, deadline=None)
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a
    assert a - a == 0
    if not a.is_zero():
        assert a * (Scalar(1) / a) == 1


@given(any_scalars)
@settings(max_examples=200, deadline=None)
def test_parse_print_round_trip(x):
    assert Scalar.parse(str(x)) == x


def test_parse_examples():
    assert Scalar.parse("3/4") == Fraction(3, 4)
    assert Scalar.parse("-2") == -2
    assert Scalar.parse("1/3+2/5*sqrt(2)") == Scalar(Fraction(1, 3), Fraction(2, 5), 2)
    assert Scalar.parse("0-1*sqrt(3)") == Scalar(0, -1, 3)
    for malformed in ("sqrt(2)", "1/0", "1+1/00*sqrt(2)"):
        with pytest.raises(ValueError):
            Scalar.parse(malformed)


def approx_float(x):
    """The test's float oracle: a + b*sqrt(d) in doubles."""
    return float(x.a) + float(x.b) * math.sqrt(x.d)


@given(any_scalars)
@settings(max_examples=200, deadline=None)
def test_sign_agrees_with_float(x):
    f = approx_float(x)
    if abs(f) > 1e-6:
        assert sign(x) == (1 if f > 0 else -1)


@pytest.mark.parametrize("n", list(range(1, 400)) + [360, 1024, 99991, 2**20 * 7])
def test_squarefree_decompose(n):
    f, s = squarefree_decompose(n)
    assert f * s * s == n
    for p in range(2, 200):
        if p * p > f:
            break
        assert f % (p * p) != 0


def test_squarefree_large():
    n = (10**9 + 7) ** 2 * 10
    f, s = squarefree_decompose(n)
    assert f == 10 and s == 10**9 + 7


def test_squarefree_within_budget():
    # 2147483659 * 3221225473: two 32-bit primes
    assert squarefree_decompose(6917529065222045707) == (6917529065222045707, 1)
    assert squarefree_decompose(49157 * 32771 * 4) == (49157 * 32771, 2)


def test_squarefree_budget_exceeded_names_n():
    n = 72057594037928017 * 144115188075855881  # primes of 57 and 58 bits
    with pytest.raises(FactorizationBudgetExceeded, match=str(n)):
        squarefree_decompose(n)
    with pytest.raises(FactorizationBudgetExceeded):
        Scalar(0, 1, n)


def test_rational_sqrt():
    # the root of 9/4 is that of 9 * 4 over 4
    assert ratio(zsqrt((36, 0), 1), (4, 0), 1) == Fraction(3, 2)
    assert zsqrt((2, 0), 1) is None
    assert zsqrt((-1, 0), 1) is None
    assert zsqrt((0, 0), 1) == (0, 0)


def solved(a, b, c, d=1):
    """The roots of a*x^2 + b*x + c, for pairs a, b, c over Z[sqrt(d)] or
    ints, as Scalars, or the outcome that has no roots."""
    a, b, c = [x if isinstance(x, tuple) else (x, 0) for x in (a, b, c)]
    out = quadratic_roots(a, b, c, d)
    if not isinstance(out, Roots):
        return out
    return [ratio(n, out.den, out.d) for n in out.nums]


def test_solve_quadratic_factorable():
    assert set(solved(1, -5, 6)) == {Scalar(2), Scalar(3)}


def test_solve_quadratic_needs_extension_then_lift():
    """Over Q a non-square discriminant asks for the field its square-free
    part names, and the same call returns the roots lifted to it."""
    lifted = solved(1, -2, -1)
    assert len(lifted) == 2
    for r in lifted:
        assert r * r - 2 * r - 1 == 0
    assert lifted[0] == Scalar(1, 1, 2)
    assert quadratic_roots((1, 0), (-2, 0), (-1, 0), 1) == Roots(2, (2, 0), ((2, 2), (2, -2)))
    # rational coefficients read over Q(sqrt(2)) find the root there
    assert quadratic_roots((1, 0), (-2, 0), (-1, 0), 2) == Roots(2, (2, 0), ((2, 2), (2, -2)))


def test_solve_quadratic_double_root():
    assert solved(1, -2, 1) == [Scalar(1)]


def test_solve_quadratic_no_real_roots():
    assert solved(1, 0, 1) == NoRealRoots()


def test_solve_quadratic_degenerate():
    """a = 0 is not a quadratic: the linear, the constant and the all-zero
    equation raise DegenerateEquation alike."""
    for b, c in [(2, -4), (0, 5), (0, 0)]:
        with pytest.raises(DegenerateEquation, match="^a = 0: the equation is not quadratic$"):
            solved(0, b, c)


def test_solve_quadratic_over_extension():
    # x^2 - 2 sqrt(2) x + 1 = 0 has roots sqrt(2) +- 1
    assert set(solved(1, (0, -2), 1, d=2)) == {Scalar(1, 1, 2), Scalar(-1, 1, 2)}


def test_solve_quadratic_tower_rejected():
    # discriminant 12 needs sqrt(3) but coefficients pin the field to sqrt(2)
    with pytest.raises(IncompatibleExtensions, match="discriminant 12 has no square root in Q.sqrt.2.."):
        solved(1, (0, 2), -1, d=2)
    # so does a rational discriminant read over Q(sqrt(2))
    with pytest.raises(IncompatibleExtensions, match="discriminant 12 has no square root in Q.sqrt.2.."):
        solved(1, 0, -3, d=2)


MERSENNE_PRODUCT = (2**89 - 1) * (2**107 - 1)  # two primes beyond the rho budget


def test_solver_factors_only_after_zsqrt_fails():
    """The solver's cost stays bounded by its input: a square discriminant
    whose square-free part cannot be found within the factoring budget is
    solved by zsqrt alone, over Q and over Q(sqrt(2))."""
    n = MERSENNE_PRODUCT
    with pytest.raises(FactorizationBudgetExceeded):
        squarefree_decompose(4 * n * n)
    assert quadratic_roots((1, 0), (0, 0), (-n * n, 0), 1) == Roots(1, (2, 0), ((2 * n, 0), (-2 * n, 0)))
    assert quadratic_roots((1, 0), (0, 0), (-2 * n * n, 0), 2) == Roots(2, (2, 0), ((0, 2 * n), (0, -2 * n)))


@given(
    st.integers(min_value=-30, max_value=30),
    st.integers(min_value=-30, max_value=30),
    st.integers(min_value=-30, max_value=30),
)
@settings(max_examples=300, deadline=None)
def test_needs_extension_is_squarefree_and_roots_substitute(a, b, c):
    """A root over an extension names a square-free d, and every root
    substitutes to 0."""
    if a == 0:
        return
    out = solved(a, b, c)
    if isinstance(out, list):
        if out[0].b:
            _, square = squarefree_decompose(out[0].d)
            assert square == 1 and len(out) == 2
        for r in out:
            assert Scalar(a) * r * r + Scalar(b) * r + Scalar(c) == 0


def test_sqrt_in_field():
    assert zsqrt((3, 2), 2) == (1, 1)  # (1+sqrt2)^2
    assert zsqrt((3, -2), 2) == (-1, 1)  # the positive root sqrt2 - 1
    assert zsqrt((-3, 2), 2) is None  # negative
    assert ratio(zsqrt((9 * 16, 0), 1), (16, 0), 1) == Fraction(3, 4)
    assert zsqrt((2, 0), 2) == (0, 1)
    assert zsqrt((2, 0), 1) is None
    assert zsqrt((-1, 0), 1) is None
    assert zsqrt((0, 0), 2) == (0, 0)


def test_total_order_matches_floats():
    """zsign orders the field as the reals do."""
    values = [Scalar(1, 1, 2), Scalar(-1), Scalar(0), Scalar(2), Scalar(0, 1, 2)]
    by_exact = sorted(values, key=cmp_to_key(lambda x, y: sign(x - y)))
    by_float = sorted(values, key=approx_float)
    assert by_exact == by_float
