import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import cevian.scalar as scalar_module
from cevian.constructions import construct
from cevian.projective import Point
from cevian.scalar import (
    AllZeroEquation,
    DegenerateEquation,
    DivisionByZero,
    DoubleRoot,
    FactorizationBudgetExceeded,
    IncompatibleExtensions,
    Linear,
    NeedsExtension,
    NoRealRoots,
    Scalar,
    TwoRoots,
    rational_sqrt,
    solve_quadratic,
    sqrt_in_field,
    squarefree_decompose,
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
    inv = 1 / x
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
    assert Scalar(0, 1, 4).is_rational and Scalar(0, 1, 4) == 2
    assert Scalar.sqrt_of(18) == Scalar(0, 3, 2)


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
    results = [x + y, x - y, x * y, -x, x.conjugate(), x + k, k - x, k * x]
    if y:
        results += [x / y, k / y]
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


def test_sign_is_exact():
    assert Scalar(0, 1, 2).sign() == 1
    assert Scalar(-3, 2, 2).sign() == -1  # 2 sqrt(2) < 3
    assert Scalar(-1, 1, 2).sign() == 1  # sqrt(2) > 1
    assert Scalar(0).sign() == 0
    assert Scalar(1, 1, 2) > 2  # 1 + sqrt(2) > 2


@given(any_scalars, any_scalars, any_scalars)
@settings(max_examples=300, deadline=None)
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a
    assert a - a == 0
    if not a.is_zero():
        assert a * (1 / a) == 1


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


@given(any_scalars)
@settings(max_examples=200, deadline=None)
def test_sign_agrees_with_float(x):
    f = x.to_float()
    if abs(f) > 1e-6:
        assert x.sign() == (1 if f > 0 else -1)


def test_to_float():
    assert Scalar(Fraction(1, 3)).to_float() == pytest.approx(1 / 3)
    assert Scalar(1, 1, 2).to_float() == pytest.approx(1 + math.sqrt(2))
    assert Scalar(0).to_float() == 0.0


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
        Scalar.sqrt_of(n)


def test_rational_sqrt():
    assert rational_sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert rational_sqrt(Fraction(2)) is None
    assert rational_sqrt(Fraction(-1)) is None
    assert rational_sqrt(Fraction(0)) == 0


def test_solve_quadratic_factorable():
    out = solve_quadratic(1, -5, 6)
    assert isinstance(out, TwoRoots)
    assert {out.r1, out.r2} == {Scalar(2), Scalar(3)}


def test_solve_quadratic_needs_extension_then_lift():
    out = solve_quadratic(1, -2, -1)
    assert out == NeedsExtension(2)
    lifted = solve_quadratic(1, -2, -1, field_d=2)
    assert isinstance(lifted, TwoRoots)
    for r in (lifted.r1, lifted.r2):
        assert r * r - 2 * r - 1 == 0
    assert lifted.r1 == Scalar(1, 1, 2)


def test_solve_quadratic_linear():
    assert solve_quadratic(0, 2, -4) == Linear(Scalar(2))


def test_solve_quadratic_double_root():
    assert solve_quadratic(1, -2, 1) == DoubleRoot(Scalar(1))


def test_solve_quadratic_no_real_roots():
    assert solve_quadratic(1, 0, 1) == NoRealRoots()


def test_solve_quadratic_degenerate():
    with pytest.raises(DegenerateEquation):
        solve_quadratic(0, 0, 5)
    with pytest.raises(AllZeroEquation):
        solve_quadratic(0, 0, 0)


def test_solve_quadratic_over_extension():
    # x^2 - 2 sqrt(2) x + 1 = 0 has roots sqrt(2) +- 1
    out = solve_quadratic(Scalar(1), Scalar(0, -2, 2), Scalar(1))
    assert isinstance(out, TwoRoots)
    assert {out.r1, out.r2} == {Scalar(1, 1, 2), Scalar(-1, 1, 2)}


def test_solve_quadratic_tower_rejected():
    # discriminant 12 needs sqrt(3) but coefficients pin the field to sqrt(2)
    with pytest.raises(IncompatibleExtensions):
        solve_quadratic(Scalar(1), Scalar(0, 2, 2), Scalar(Fraction(-1)))


@given(
    st.integers(min_value=-30, max_value=30),
    st.integers(min_value=-30, max_value=30),
    st.integers(min_value=-30, max_value=30),
)
@settings(max_examples=300, deadline=None)
def test_needs_extension_is_squarefree_and_roots_substitute(a, b, c):
    if a == 0 and b == 0:
        return
    out = solve_quadratic(a, b, c)
    if isinstance(out, NeedsExtension):
        _, square = squarefree_decompose(out.d)
        assert square == 1
        lifted = solve_quadratic(a, b, c, field_d=out.d)
        assert isinstance(lifted, TwoRoots)
        for r in (lifted.r1, lifted.r2):
            assert Scalar(a) * r * r + Scalar(b) * r + Scalar(c) == 0
    elif isinstance(out, TwoRoots):
        for r in (out.r1, out.r2):
            assert Scalar(a) * r * r + Scalar(b) * r + Scalar(c) == 0


def test_sqrt_in_field():
    assert sqrt_in_field(Scalar(3, 2, 2)) == Scalar(1, 1, 2)  # (1+sqrt2)^2
    assert sqrt_in_field(Scalar(Fraction(9, 16))) == Fraction(3, 4)
    assert sqrt_in_field(Scalar(2), ambient_d=2) == Scalar(0, 1, 2)
    assert sqrt_in_field(Scalar(2)) is None
    assert sqrt_in_field(Scalar(-1)) is None
    assert sqrt_in_field(Scalar(0)) == 0


def test_total_order_matches_floats():
    values = [Scalar(1, 1, 2), Scalar(-1), Scalar(0), Scalar(2), Scalar(0, 1, 2)]
    by_exact = sorted(values)
    by_float = sorted(values, key=lambda s: s.to_float())
    assert by_exact == by_float
