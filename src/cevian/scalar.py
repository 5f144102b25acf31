"""Exact numbers of Q and real quadratic extensions Q(sqrt(d)).

A ``Scalar`` is a value a + b*sqrt(d) with rational a, b and a square-free
positive integer d.  Plain rationals are the degenerate case b = 0, d = 1.
Values are immutable, always in canonical form, and compared structurally,
so ``==`` is semantic equality.  Only one extension at a time is supported:
combining scalars whose d fields differ (both with irrational part) is an
error, never a coercion.  The geometry kernel computes, prints and hashes
on integer pairs over Z[sqrt(d)] instead; it builds Scalars only to parse
coordinates, to state a ratio, to find the roots of a quadratic (the one
place a new square root appears), and for an explicit ``coords`` or
``matrix`` view.  ``format_number`` is the one printer of a + b*sqrt(d),
for Scalars and for the kernel's pairs alike.
There is no conversion to float here: that happens only in rendering.

Canonical form is established where a value enters: the public constructor
``Scalar(a, b, d)`` (and ``parse`` and ``sqrt_of``, which call it) factors d
to its square-free part.  Arithmetic on canonical operands keeps the d of an
operand, which is square-free already, so it never factors d again; it builds
its results with ``Scalar._make``, which only folds d to 1 when b is 0.
Factoring a user-supplied d has a fixed step budget: a d whose prime factors
are too large to find within it raises ``FactorizationBudgetExceeded``.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import total_ordering
from typing import Optional, Union

RationalLike = Union[int, Fraction]
ScalarLike = Union["Scalar", int, Fraction]


class ScalarError(Exception):
    """Base class for exact-arithmetic failures."""


class DivisionByZero(ScalarError):
    pass


class IncompatibleExtensions(ScalarError):
    """Mixing sqrt(d) and sqrt(d') with d != d', or a tower would be needed."""


class InexactDivision(ScalarError):
    """A division in Z[sqrt(d)] that was required to be exact left a remainder."""


class FactorizationBudgetExceeded(ScalarError):
    """A d whose square-free part cannot be found within the step budget."""


class DegenerateEquation(ScalarError):
    """a = b = 0 with c != 0: no roots at all."""


class AllZeroEquation(ScalarError):
    """a = b = c = 0: every value is a root."""


# ---------------------------------------------------------------------------
# integer factorization (square-free decomposition must be exact, so no
# trial-division-with-cutoff shortcuts)

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# Pollard rho finds a prime factor p in about sqrt(p) steps, and the budget
# is shared by all splits of one n: it factors an n whose prime factors, all
# but the largest, have up to about 32 bits (a product of two 32-bit primes
# took 30782 steps).  One step costs about 2.5 us at 112 bits (Python 3.11,
# x86-64), so a d beyond the budget is rejected in well under a second.
_RHO_STEP_BUDGET = 1 << 18


def _is_probable_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    # deterministic Miller-Rabin witness set for n < 3.3e24
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int, budget: int) -> tuple[int, int]:
    """A proper factor of the composite n and the steps left of budget, or
    (0, 0) when the budget runs out before a factor is found."""
    for c in range(1, 100):
        x = y = 2
        d = 1
        while d == 1:
            if not budget:
                return 0, 0
            budget -= 1
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d, budget
    raise ScalarError(f"factorization failed for {n}")  # pragma: no cover


def _factor(n: int, out: dict[int, int]) -> None:
    """Prime factorization of n into out, within _RHO_STEP_BUDGET steps."""
    rest = n
    for p in _SMALL_PRIMES:
        while rest % p == 0:
            out[p] = out.get(p, 0) + 1
            rest //= p
    budget = _RHO_STEP_BUDGET
    stack = [rest] if rest > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if _is_probable_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        r = math.isqrt(m)
        if r * r == m:
            stack.extend((r, r))
            continue
        d, budget = _pollard_rho(m, budget)
        if not d:
            raise FactorizationBudgetExceeded(
                f"cannot factor {n} within {_RHO_STEP_BUDGET} Pollard-rho steps"
            )
        stack.extend((d, m // d))


def squarefree_decompose(n: int) -> tuple[int, int]:
    """Write n > 0 as f * s**2 with f square-free; returns (f, s)."""
    if n <= 0:
        raise ValueError("positive integer required")
    factors: dict[int, int] = {}
    _factor(n, factors)
    f = 1
    s = 1
    for p, e in factors.items():
        if e % 2:
            f *= p
        s *= p ** (e // 2)
    return f, s


def rational_sqrt(q: Fraction) -> Optional[Fraction]:
    """Exact square root of a nonnegative rational, or None if irrational."""
    if q < 0:
        return None
    if q == 0:
        return Fraction(0)
    rn = math.isqrt(q.numerator)
    rd = math.isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


def join_d(d1: int, d2: int) -> int:
    """The one field Q(sqrt(d)) holding values of Q(sqrt(d1)) and
    Q(sqrt(d2)), where d = 1 stands for Q."""
    if d1 == d2 or d2 == 1:
        return d1
    if d1 == 1:
        return d2
    raise IncompatibleExtensions(f"cannot combine sqrt({d1}) with sqrt({d2})")


# ---------------------------------------------------------------------------


@total_ordering
class Scalar:
    """a + b*sqrt(d): exact element of Q or Q(sqrt(d)).

    Canonical form: d square-free and positive; b == 0 forces d == 1, and a
    d that degenerates to 1 folds its irrational part into a.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, a: RationalLike = 0, b: RationalLike = 0, d: int = 1):
        a = Fraction(a)
        b = Fraction(b)
        d = int(d)
        if d <= 0:
            raise ValueError("extension discriminant must be positive")
        if b == 0:
            d = 1
        elif d == 1:
            a, b = a + b, Fraction(0)
        else:
            f, s = squarefree_decompose(d)
            if s != 1:
                b, d = b * s, f
            if d == 1:
                a, b = a + b, Fraction(0)
        self.a = a
        self.b = b
        self.d = d

    # -- construction helpers -------------------------------------------------

    @classmethod
    def sqrt_of(cls, n: int) -> Scalar:
        """sqrt(n) for a positive integer n (e.g. sqrt_of(8) == 2*sqrt(2))."""
        return cls(0, 1, n)

    @classmethod
    def _make(cls, a: Fraction, b: Fraction, d: int) -> Scalar:
        """The value a + b*sqrt(d) from fields already known to be canonical:
        a and b are Fractions and d is square-free, as in the fields of a
        canonical Scalar.  Only a zero b is folded (to d = 1); d is never
        factored.  Arithmetic builds every result this way."""
        s = object.__new__(cls)
        s.a = a
        s.b = b
        s.d = d if b else 1
        return s

    @staticmethod
    def _coerce(value: ScalarLike) -> "Scalar":
        if isinstance(value, Scalar):
            return value
        if isinstance(value, (int, Fraction)):
            return _make(Fraction(value), _FZERO, 1)
        raise TypeError(f"cannot interpret {value!r} as a Scalar")

    # -- predicates -------------------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def sign(self) -> int:
        """Exact sign in {-1, 0, 1}; decidable because d is square-free."""
        if self.b == 0:
            return (self.a > 0) - (self.a < 0)
        if self.a == 0:
            return 1 if self.b > 0 else -1
        sa = 1 if self.a > 0 else -1
        sb = 1 if self.b > 0 else -1
        if sa == sb:
            return sa
        # a and b*sqrt(d) compete; |a| vs |b|sqrt(d) decided on squares
        return sa if self.a * self.a > self.b * self.b * self.d else sb

    # -- arithmetic -------------------------------------------------------------

    def __add__(self, other: ScalarLike) -> Scalar:
        try:
            o = self._coerce(other)
        except TypeError:
            return NotImplemented
        return _make(self.a + o.a, self.b + o.b, join_d(self.d, o.d))

    __radd__ = __add__

    def __sub__(self, other: ScalarLike) -> Scalar:
        try:
            o = self._coerce(other)
        except TypeError:
            return NotImplemented
        return _make(self.a - o.a, self.b - o.b, join_d(self.d, o.d))

    def __rsub__(self, other: ScalarLike) -> Scalar:
        return (-self) + other

    def __neg__(self) -> Scalar:
        return _make(-self.a, -self.b, self.d)

    def __mul__(self, other: ScalarLike) -> Scalar:
        try:
            o = self._coerce(other)
        except TypeError:
            return NotImplemented
        d = join_d(self.d, o.d)
        return _make(self.a * o.a + self.b * o.b * d, self.a * o.b + self.b * o.a, d)

    __rmul__ = __mul__

    def __truediv__(self, other: ScalarLike) -> Scalar:
        try:
            o = self._coerce(other)
        except TypeError:
            return NotImplemented
        if not o.b:
            if not o.a:
                raise DivisionByZero("scalar division by zero")
            return _make(self.a / o.a, self.b / o.a, self.d)
        d = join_d(self.d, o.d)
        # multiply by the conjugate a' - b'*sqrt(d); the norm is rational
        norm = o.a * o.a - o.b * o.b * d
        return _make(
            (self.a * o.a - self.b * o.b * d) / norm,
            (self.b * o.a - self.a * o.b) / norm,
            d,
        )

    def __rtruediv__(self, other: ScalarLike) -> Scalar:
        return self._coerce(other) / self

    def conjugate(self) -> Scalar:
        return _make(self.a, -self.b, self.d)

    # -- comparison / hashing ----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            return not self.b and self.a == other
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.a == other.a and self.b == other.b and self.d == other.d

    def __lt__(self, other: ScalarLike) -> bool:
        return (self - self._coerce(other)).sign() < 0

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.d))

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- conversion ---------------------------------------------------------------

    def __repr__(self) -> str:
        return f"Scalar({str(self)!r})"

    def __str__(self) -> str:
        return format_number(self.a, self.b, self.d)

    # a denominator must have a nonzero digit, so "1/0" is malformed text
    _PATTERN = re.compile(
        r"^(?P<a>-?\d+(?:/0*[1-9]\d*)?)"
        r"(?:(?P<sign>[+-])(?P<b>\d+(?:/0*[1-9]\d*)?)\*sqrt\((?P<d>\d+)\))?$"
    )

    @classmethod
    def parse(cls, text: str) -> Scalar:
        """Inverse of str(); round-trips bit-exactly."""
        m = cls._PATTERN.match(text.strip())
        if not m:
            raise ValueError(f"malformed scalar {text!r}")
        a = Fraction(m.group("a"))
        if m.group("b") is None:
            return cls(a)
        b = Fraction(m.group("b"))
        if m.group("sign") == "-":
            b = -b
        return cls(a, b, int(m.group("d")))


_FZERO = Fraction(0)
_make = Scalar._make


def format_number(a: RationalLike, b: RationalLike, d: int) -> str:
    """The text of a + b*sqrt(d): "a", "a+b*sqrt(d)" or "a-|b|*sqrt(d)".
    Scalars print through it, and so do the integer pairs of the kernel."""
    if not b:
        return str(a)
    return f"{a}{'+' if b > 0 else '-'}{abs(b)}*sqrt({d})"


def as_scalar(value: ScalarLike) -> Scalar:
    return Scalar._coerce(value)


# ---------------------------------------------------------------------------
# quadratic solving


@dataclass(frozen=True)
class TwoRoots:
    r1: Scalar
    r2: Scalar


@dataclass(frozen=True)
class DoubleRoot:
    r: Scalar


@dataclass(frozen=True)
class Linear:
    r: Scalar


@dataclass(frozen=True)
class NeedsExtension:
    """Positive non-square discriminant; lift to Q(sqrt(d)) and retry."""

    d: int


@dataclass(frozen=True)
class NoRealRoots:
    """Negative discriminant: no roots in any real quadratic extension."""


QuadraticResult = Union[TwoRoots, DoubleRoot, Linear, NeedsExtension, NoRealRoots]


def sqrt_in_field(x: Scalar, ambient_d: Optional[int] = None) -> Optional[Scalar]:
    """Square root of x within Q(sqrt(ambient_d)), or None if there is none.

    ambient_d defaults to the extension x itself lives in; passing a wider
    field lets a rational x have the root s*sqrt(d) (when x/d is a square).
    """
    ambient = ambient_d if ambient_d is not None else x.d
    if x.d != 1 and ambient != x.d:
        raise IncompatibleExtensions(f"{x} does not live in Q(sqrt({ambient}))")
    if x.is_zero():
        return x
    if x.sign() < 0:
        return None
    if x.b == 0:
        r = rational_sqrt(x.a)
        if r is not None:
            return Scalar(r)
        if ambient != 1:
            r = rational_sqrt(x.a / ambient)
            if r is not None:
                return Scalar(0, r, ambient)
        return None
    # solve (u + v*sqrt(d))^2 = a + b*sqrt(d): u^2 + v^2 d = a, 2uv = b
    n = rational_sqrt(x.a * x.a - x.b * x.b * x.d)
    if n is None:
        return None
    for candidate in ((x.a + n) / 2, (x.a - n) / 2):
        u = rational_sqrt(candidate)
        if u is not None and u != 0:
            v = x.b / (2 * u)
            root = _make(u, v, x.d)
            if root * root == x:
                return root if root.sign() > 0 else -root
    return None


def solve_quadratic(
    a: ScalarLike, b: ScalarLike, c: ScalarLike, field_d: Optional[int] = None
) -> QuadraticResult:
    """Exact roots of a*x^2 + b*x + c over the coefficients' field.

    A square discriminant yields the roots directly.  A positive non-square
    rational discriminant (with rational coefficients) returns
    NeedsExtension(f) where f is its square-free part; re-solving with
    field_d=f then succeeds in Q(sqrt(f)).  A root that would need a second,
    distinct extension raises IncompatibleExtensions.
    """
    a, b, c = as_scalar(a), as_scalar(b), as_scalar(c)
    ambient = field_d if field_d is not None else 1
    for coeff in (a, b, c):
        if coeff.d != 1:
            if ambient not in (1, coeff.d):
                raise IncompatibleExtensions(
                    f"coefficients mix sqrt({ambient}) and sqrt({coeff.d})"
                )
            ambient = coeff.d
    if a.is_zero() and b.is_zero():
        if c.is_zero():
            raise AllZeroEquation("0 = 0 holds identically")
        raise DegenerateEquation("constant nonzero equation has no roots")
    if a.is_zero():
        return Linear(-c / b)
    disc = b * b - 4 * a * c
    if disc.is_zero():
        return DoubleRoot(-b / (2 * a))
    if disc.sign() < 0:
        return NoRealRoots()
    root = sqrt_in_field(disc, ambient)
    if root is not None:
        return TwoRoots((-b + root) / (2 * a), (-b - root) / (2 * a))
    if disc.b == 0:
        f, _ = squarefree_decompose(disc.a.numerator * disc.a.denominator)
        if ambient != 1:
            raise IncompatibleExtensions(
                f"root needs sqrt({f}) on top of sqrt({ambient})"
            )
        return NeedsExtension(f)
    raise IncompatibleExtensions(
        f"discriminant {disc} has no square root in Q(sqrt({disc.d}))"
    )
