"""Exact numbers of Q and real quadratic extensions Q(sqrt(d)).

The kernel computes on integer pairs (a, b) standing for a + b*sqrt(d) in
Z[sqrt(d)]: their arithmetic, exact sign (``zsign``) and square root
(``zsqrt``) live here, and so does ``quadratic_roots``, the one quadratic
solver, whose roots stay numerators over one denominator.  A line meeting a
conic is the only place a new square root appears.  The pair arithmetic has
one body for every d: at d = 1 it computes the irrational halves too, so it
does not rely on their being 0.  Skipping them saved at most 1.4% of any
workload's time.

A ``Scalar`` is a value a + b*sqrt(d) with rational a, b and a square-free
positive integer d; plain rationals are the case b = 0, d = 1.  It is an
edge value: parsed, printed, compared and hashed, but never computed with
inside the package.  Values are immutable, canonical and compared
structurally, so ``==`` is semantic equality.  Scalars enter by parsing and
by ``ratio``, the one way a pair becomes a Scalar; ``integer_vector`` turns
them into pairs.  ``format_number`` prints Scalars and pairs alike; floats
are made only in rendering.  The remaining arithmetic works one field at
a time (mixing two fields raises): perfbench times ``+``, ``*`` and ``/``,
and only tests use ``-``, unary minus and the reflected forms.

Canonical form is established where a value enters: the public constructor
``Scalar(a, b, d)`` (and ``parse``, which calls it) factors d to its
square-free part.  Arithmetic keeps the square-free d of an operand and
builds its results with ``Scalar._make``, which never factors.  Besides the
constructor, only a discriminant that asks for a new field is factored.
Factoring has a fixed step budget: a d whose prime factors are too large to
find within it raises ``FactorizationBudgetExceeded``.

``Record`` is the base of the package's immutable record types, here
because every other module imports this one.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

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
    """A quadratic equation whose leading coefficient a is 0."""


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


# ---------------------------------------------------------------------------
# arithmetic in Z[sqrt(d)]

Pair = tuple[int, int]  # (a, b) stands for a + b*sqrt(d)
_ZERO: Pair = (0, 0)


def zmul(x: Pair, y: Pair, d: int) -> Pair:
    (a, b), (c, e) = x, y
    return a * c + b * e * d, a * e + b * c


def zsub(x: Pair, y: Pair) -> Pair:
    return x[0] - y[0], x[1] - y[1]


def zscale(k: int, x: Pair) -> Pair:
    return k * x[0], k * x[1]


def zsum(v: Iterable[Pair]) -> Pair:
    a = b = 0
    for x, y in v:
        a += x
        b += y
    return a, b


def combine(s: Pair, u: Sequence[Pair], t: Pair, v: Sequence[Pair], d: int) -> tuple[Pair, ...]:
    """s*u + t*v, entrywise."""
    (sa, sb), (ta, tb) = s, t
    return tuple([
        (sa * a + sb * b * d + ta * c + tb * e * d, sa * b + sb * a + ta * e + tb * c)
        for (a, b), (c, e) in zip(u, v)
    ])


def divide_exactly(v: Sequence[Pair], y: Pair, d: int) -> list[Pair]:
    """v / y entrywise in Z[sqrt(d)], for a nonzero y that divides every
    entry; raises InexactDivision when one leaves a remainder."""
    c, e = y
    # times the conjugate c - e*sqrt(d): the divisor becomes its norm
    v = [(a * c - b * e * d, b * c - a * e) for a, b in v]
    c = c * c - e * e * d
    out = []
    for a, b in v:
        qa, ra = divmod(a, c)
        qb, rb = divmod(b, c)
        if ra or rb:
            raise InexactDivision(f"an entry is not a multiple of {y} in Z[sqrt({d})]")
        out.append((qa, qb))
    return out


def zsign(x: Pair, d: int) -> int:
    """The exact sign in {-1, 0, 1} of a + b*sqrt(d); decidable because d
    is square-free."""
    a, b = x
    sa = (a > 0) - (a < 0)
    sb = (b > 0) - (b < 0)
    if sa == sb or not sb:
        return sa
    if not sa:
        return sb
    # a and b*sqrt(d) compete; |a| vs |b|sqrt(d) decided on squares
    return sa if a * a > b * b * d else sb


def zsqrt(x: Pair, d: int) -> Optional[Pair]:
    """The nonnegative square root of a + b*sqrt(d) in Q(sqrt(d)), or None
    if there is none; a root that exists lies in Z[sqrt(d)].  Over a d > 1 a
    rational a may have the root s*sqrt(d)."""
    a, b = x
    if not b:
        s = math.isqrt(a) if a >= 0 else -1
        if s * s == a:
            return s, 0
        s = math.isqrt(a // d) if a > 0 else 0
        return (0, s) if d != 1 and s * s * d == a else None
    # (u + v*sqrt(d))^2 = a + b*sqrt(d): u^2 + v^2 d = a and 2uv = b, so the
    # norm a^2 - b^2 d is the square of u^2 - v^2 d, and 2u^2 = a +- its root
    norm = a * a - b * b * d
    n = math.isqrt(norm) if norm >= 0 else -1
    if n * n != norm:
        return None
    for twice_u2 in (a + n, a - n):
        u = math.isqrt(twice_u2 // 2) if twice_u2 > 0 else 0
        if u and 2 * u * u == twice_u2 and b % (2 * u) == 0:
            root = (u, b // (2 * u))
            return root if zsign(root, d) > 0 else zscale(-1, root)
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

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

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
        if not o:
            raise DivisionByZero("scalar division by zero")
        d = join_d(self.d, o.d)
        # multiply by the conjugate a' - b'*sqrt(d); the norm is rational
        norm = o.a * o.a - o.b * o.b * d
        return _make(
            (self.a * o.a - self.b * o.b * d) / norm,
            (self.b * o.a - self.a * o.b) / norm,
            d,
        )

    # -- comparison / hashing ----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            return not self.b and self.a == other
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.a == other.a and self.b == other.b and self.d == other.d

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
    # and a digit is an ASCII digit
    _PATTERN = re.compile(
        r"^(?P<a>-?\d+(?:/0*[1-9]\d*)?)"
        r"(?:(?P<sign>[+-])(?P<b>\d+(?:/0*[1-9]\d*)?)\*sqrt\((?P<d>\d+)\))?$",
        re.ASCII,
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


def ratio(x: Pair, y: Pair, d: int) -> Scalar:
    """x / y as a Scalar, for a nonzero y over Z[sqrt(d)]: the one way a
    pair becomes a Scalar."""
    (a, b), (c, e) = x, y
    a, b, c = a * c - b * e * d, b * c - a * e, c * c - e * e * d
    return _make(Fraction(a, c), Fraction(b, c), d)


def integer_vector(values: Sequence[ScalarLike]) -> tuple[int, list[Pair]]:
    """(d, v): v is the values times the lcm of their denominators, as pairs
    over the one field Q(sqrt(d)) they share."""
    parts = []
    d = 1
    for x in values:
        if isinstance(x, Scalar):
            if x.b:
                d = join_d(d, x.d)
            parts.append((x.a, x.b))
        elif isinstance(x, (int, Fraction)):
            parts.append((x, 0))
        else:
            raise TypeError(f"cannot interpret {x!r} as a Scalar")
    den = math.lcm(*[r.denominator for pair in parts for r in pair])
    return d, [
        (a.numerator * (den // a.denominator), b.numerator * (den // b.denominator))
        for a, b in parts
    ]


# ---------------------------------------------------------------------------
# records


class Record:
    """An immutable value of named fields, built positionally.

    A subclass names its fields once, ``__slots__ = _fields = (...)``; one
    that wants keywords or defaults states them in its own ``__init__``,
    which passes every field on.  A record prints as ``Name(field=value,
    ...)``, equals only a record of its own type with equal fields, hashes
    by its field tuple, and refuses assignment and deletion with
    AttributeError."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init__(self, *values):
        if len(values) != len(self._fields):
            raise TypeError(
                f"{type(self).__name__}() takes {len(self._fields)} fields but {len(values)} were given"
            )
        for field, value in zip(self._fields, values):
            object.__setattr__(self, field, value)  # past the refusing __setattr__

    def _values(self) -> tuple:
        return tuple([getattr(self, field) for field in self._fields])

    def as_dict(self) -> dict:
        """The fields and their values, in field order."""
        return {field: getattr(self, field) for field in self._fields}

    def __repr__(self) -> str:
        inner = ", ".join(f"{field}={getattr(self, field)!r}" for field in self._fields)
        return f"{type(self).__qualname__}({inner})"

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


# ---------------------------------------------------------------------------
# quadratic solving


class NoRealRoots(Record):
    """Negative discriminant: no roots in any real quadratic extension."""

    __slots__ = ()


class Roots(Record):
    """Roots over Z[sqrt(d)] as numerators over one denominator: n / den
    for each n in nums, den a Pair and nums a tuple of Pairs.  d is 1 when
    den and every numerator are rational."""

    __slots__ = _fields = ("d", "den", "nums")


def _roots(d: int, den: Pair, *nums: Pair) -> Roots:
    rational = not den[1] and not any(b for _, b in nums)
    return Roots(1 if rational else d, den, nums)


def quadratic_roots(a: Pair, b: Pair, c: Pair, d: int) -> Union[Roots, NoRealRoots]:
    """Exact roots of a*x^2 + b*x + c, a != 0, for a, b, c over Z[sqrt(d)].

    The roots are -b + r and -b - r over 2a, r the positive square root of
    the discriminant, and a double root is -b over 2a.  r is looked for in
    Q(sqrt(d)) first.  Over Q a positive non-square discriminant f*s^2, f
    square-free, is factored only then, and its roots are returned over
    Q(sqrt(f)) with r = s*sqrt(f); over a d > 1 a root that needs a second
    extension raises IncompatibleExtensions.
    """
    if a == _ZERO:
        raise DegenerateEquation("a = 0: the equation is not quadratic")
    disc = zsub(zmul(b, b, d), zscale(4, zmul(a, c, d)))
    if disc == _ZERO:
        return _roots(d, zscale(2, a), zscale(-1, b))
    if zsign(disc, d) < 0:
        return NoRealRoots()
    r = zsqrt(disc, d)
    if r is None:
        if d != 1 or disc[1]:
            raise IncompatibleExtensions(
                f"discriminant {format_number(*disc, d)} has no square root in Q(sqrt({d}))"
            )
        d, s = squarefree_decompose(disc[0])
        r = (0, s)
    return _roots(d, zscale(2, a), zsub(r, b), zsub(zscale(-1, r), b))
