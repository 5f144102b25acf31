"""Independent oracle for the benchmark's correctness checks.

Exact barycentric geometry on plain ``Fraction`` values, and on
a + b*sqrt(d) pairs (``Quad``) for points over a quadratic field.  It shares
no code with ``cevian``: it parses the program's printed coordinates and
conic matrices with its own parser, derives the generalized orthocenter H
from the paper's definition, and tests the generalized Feuerbach tangency
with the conic matrices the program returned.

Every test is polynomial (cross products, dot products), so nothing here
divides and no square-free decomposition of d is ever needed.
"""

from __future__ import annotations

import re
from fractions import Fraction


class OracleError(Exception):
    """The oracle cannot evaluate its own definition on this input."""


class Quad:
    """a + b*sqrt(d) with rational a, b and a fixed non-square d > 1."""

    __slots__ = ("a", "b", "d")

    def __init__(self, a, b, d: int):
        self.a = Fraction(a)
        self.b = Fraction(b)
        self.d = d

    def _lift(self, other) -> "Quad":
        if isinstance(other, Quad):
            if other.d != self.d:
                raise OracleError(f"sqrt({self.d}) mixed with sqrt({other.d})")
            return other
        if isinstance(other, (int, Fraction)):
            return Quad(other, 0, self.d)
        return NotImplemented

    def __add__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return o
        return Quad(self.a + o.a, self.b + o.b, self.d)

    __radd__ = __add__

    def __neg__(self):
        return Quad(-self.a, -self.b, self.d)

    def __sub__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return o
        return Quad(self.a - o.a, self.b - o.b, self.d)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return o
        return Quad(
            self.a * o.a + self.b * o.b * self.d, self.a * o.b + self.b * o.a, self.d
        )

    __rmul__ = __mul__

    def __bool__(self) -> bool:
        # sqrt(d) is irrational, so a + b*sqrt(d) = 0 only when a = b = 0
        return bool(self.a) or bool(self.b)

    def __repr__(self) -> str:
        return f"Quad({self.a}, {self.b}, {self.d})"


# ---------------------------------------------------------------------------
# parsing the program's printed forms

_NUMBER = r"-?\d+(?:/\d+)?"
_SCALAR = re.compile(
    rf"^(?P<a>{_NUMBER})(?:(?P<sign>[+-])(?P<b>\d+(?:/\d+)?)\*sqrt\((?P<d>\d+)\))?$"
)


def parse_scalar(text: str, d: int | None = None):
    """A rational, or a Quad over sqrt(d).  With d given, any other field
    is an error; with d None the field is read from the text."""
    m = _SCALAR.match(text.strip())
    if not m:
        raise OracleError(f"unparsable scalar {text!r}")
    a = Fraction(m.group("a"))
    if m.group("b") is None:
        return a
    field = int(m.group("d"))
    if d is not None and field != d:
        raise OracleError(f"{text!r} is not in Q(sqrt({d}))")
    b = Fraction(m.group("b"))
    return Quad(a, -b if m.group("sign") == "-" else b, field)


def parse_point(text: str, d: int | None = None) -> tuple:
    """'(x : y : z)' to a coordinate triple."""
    inner = text.strip()
    if not (inner.startswith("(") and inner.endswith(")")):
        raise OracleError(f"unparsable point {text!r}")
    parts = inner[1:-1].split(":")
    if len(parts) != 3:
        raise OracleError(f"unparsable point {text!r}")
    return tuple(parse_scalar(part, d) for part in parts)


def parse_matrix(text: str, d: int | None = None) -> tuple:
    """'[[a, b, c], [d, e, f], [g, h, i]]' to a 3x3 tuple of rows."""
    inner = text.strip()
    if not (inner.startswith("[[") and inner.endswith("]]")):
        raise OracleError(f"unparsable matrix {text!r}")
    rows = inner[2:-2].split("], [")
    matrix = tuple(tuple(parse_scalar(x, d) for x in row.split(",")) for row in rows)
    if len(matrix) != 3 or any(len(row) != 3 for row in matrix):
        raise OracleError(f"not a 3x3 matrix: {text!r}")
    return matrix


# ---------------------------------------------------------------------------
# projective geometry with homogeneous barycentric triples

VERTICES = ((1, 0, 0), (0, 1, 0), (0, 0, 1))  # A, B, C
SIDE_MIDPOINTS = ((0, 1, 1), (1, 0, 1), (1, 1, 0))
SIDELINES = ((1, 0, 0), (0, 1, 0), (0, 0, 1))  # BC, CA, AB as lines
LINE_AT_INFINITY = (1, 1, 1)


def cross(u, v) -> tuple:
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def dot(u, v):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def mat_vec(m, v) -> tuple:
    return tuple(dot(row, v) for row in m)


def is_zero(v) -> bool:
    return not any(v)


def same_point(u, v) -> bool:
    """Projective equality of two nonzero triples (points or lines)."""
    return not is_zero(u) and not is_zero(v) and is_zero(cross(u, v))


def complement(p) -> tuple:
    """The homothety at the centroid with ratio -1/2."""
    x, y, z = p
    return (y + z, z + x, x + y)


def isotomic(p) -> tuple:
    x, y, z = p
    return (y * z, z * x, x * y)


def cevian_traces(p) -> tuple:
    x, y, z = p
    return ((0, y, z), (x, 0, z), (x, y, 0))


def parallel_through(point, line) -> tuple:
    """The line through point and the point at infinity of line."""
    return cross(point, cross(line, LINE_AT_INFINITY))


def concurrence(lines) -> tuple:
    """The common point of three lines; raises unless they concur."""
    common = None
    for i, j in ((0, 1), (0, 2), (1, 2)):
        candidate = cross(lines[i], lines[j])
        if not is_zero(candidate):
            common = candidate
            break
    if common is None:
        raise OracleError("the three lines coincide")
    if any(dot(common, line) for line in lines):
        raise OracleError("the three lines do not concur")
    return common


def inconic_center(p) -> tuple:
    """q: the complement of the isotomic conjugate of p."""
    return complement(isotomic(p))


def orthocenter(p) -> tuple:
    """H from its definition: the lines through A, B, C parallel to the
    lines from q to the cevian traces of p concur at H."""
    q = inconic_center(p)
    lines = [parallel_through(v, cross(q, t)) for v, t in zip(VERTICES, cevian_traces(p))]
    return concurrence(lines)


def degeneracy_loci(p) -> list[str]:
    """Names of the special loci through p, each an exact polynomial test."""
    x, y, z = p
    s = x * y + y * z + z * x
    tests = {
        "sideline": not (x and y and z),
        "anticomplementary_sideline": not (y + z and z + x and x + y),
        "median": not (x - y and y - z and z - x),
        "steiner_circumellipse": not s,
        "orthocenter_at_vertex": not (s - x * x and s - y * y and s - z * z),
    }
    return [name for name, hit in tests.items() if hit]


# ---------------------------------------------------------------------------
# checks of the program's output


def check_centers(p, h, o) -> list[str]:
    """Problems with the program's H and O for the driving point p; O is
    the complement of H."""
    problems = []
    expected_h = orthocenter(p)
    if not same_point(h, expected_h):
        problems.append(f"H {h} is not the concurrence point {expected_h}")
    if not same_point(o, complement(expected_h)):
        problems.append(f"O {o} is not the complement of H")
    return problems


def check_tangency(ninepoint, inconic, z) -> list[str]:
    """Problems with Z as the point where the nine-point conic touches the
    inconic: Z on both conics, and one tangent line (polar) there."""
    problems = []
    for name, conic in (("nine-point conic", ninepoint), ("inconic", inconic)):
        if dot(z, mat_vec(conic, z)):
            problems.append(f"Z is not on the {name}")
    if not same_point(mat_vec(ninepoint, z), mat_vec(inconic, z)):
        problems.append("the tangent lines at Z differ")
    return problems


def check_conics(p, ninepoint, inconic) -> list[str]:
    """Defining incidences of the two conics: the nine-point conic of
    A, B, C, H passes through the side midpoints, and the inconic touches
    each sideline at the cevian trace of p on it."""
    problems = []
    for m in SIDE_MIDPOINTS:
        if dot(m, mat_vec(ninepoint, m)):
            problems.append(f"nine-point conic misses the midpoint {m}")
    for trace, side in zip(cevian_traces(p), SIDELINES):
        if not same_point(mat_vec(inconic, trace), side):
            problems.append(f"inconic is not tangent to {side} at {trace}")
    return problems


def check_construction(p, h, o, z, ninepoint, inconic) -> list[str]:
    """Every oracle check of one construction; an empty list means correct.
    z is None when the program reports no cevian-conic center, which the
    paper allows only for p on a median."""
    problems = check_centers(p, h, o) + check_conics(p, ninepoint, inconic)
    if z is None:
        if "median" not in degeneracy_loci(p):
            problems.append("Z is missing although p is off the medians")
    else:
        problems += check_tangency(ninepoint, inconic, z)
    return problems


# ---------------------------------------------------------------------------
# the classical cross-check for the Gergonne point


def gergonne_point(sides) -> tuple:
    a, b, c = (Fraction(s) for s in sides)
    s = (a + b + c) / 2
    return ((s - b) * (s - c), (s - c) * (s - a), (s - a) * (s - b))


def conway_orthocenter(sides) -> tuple:
    """(S_B S_C : S_C S_A : S_A S_B) with Conway's S_A = (b^2 + c^2 - a^2)/2."""
    a, b, c = (Fraction(s) for s in sides)
    sa = (b * b + c * c - a * a) / 2
    sb = (c * c + a * a - b * b) / 2
    sc = (a * a + b * b - c * c) / 2
    return (sb * sc, sc * sa, sa * sb)


def check_gergonne(sides, q, h) -> list[str]:
    """For p the Gergonne point of a triangle with these side lengths, q is
    the incenter (a : b : c) and H the classical orthocenter."""
    problems = []
    p = gergonne_point(sides)
    if not same_point(inconic_center(p), tuple(sides)):
        problems.append("oracle q of the Gergonne point is not the incenter")
    if not same_point(orthocenter(p), conway_orthocenter(sides)):
        problems.append("oracle H of the Gergonne point is not Conway's orthocenter")
    if not same_point(q, tuple(sides)):
        problems.append(f"program q {q} is not the incenter {tuple(sides)}")
    if not same_point(h, conway_orthocenter(sides)):
        problems.append(f"program H {h} is not the classical orthocenter")
    return problems
