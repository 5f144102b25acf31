"""SVG rendering of configurations.

This is the only module of the package that makes floats.  Every decision is
made upstream in exact arithmetic; here the integer pair vectors of points
and conics are converted once, at the edge, for drawing.  Output is
deterministic: fixed sampling counts and fixed-precision formatting make
repeated runs byte-identical.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction
from functools import cache, cached_property
from math import lcm
from typing import Optional, Sequence

from .projective import (
    CENTROID,
    InfiniteInput,
    MID_AB,
    MID_BC,
    MID_CA,
    Point,
    VERTEX_A,
    VERTEX_B,
    VERTEX_C,
    complement,
    mat_mul,
    transpose,
)
from .scalar import Pair, Record, zmul, zscale, zsum
from .conics import Conic, steiner_circumellipse
from .constructions import ConstructionSet

_FMT = "{:.4f}"
_SVG_WIDTH = 720  # pixels
_CONIC_STEPS = 256  # sampled directions through a conic's seed point
# A figure spans up to 3.4 times its largest coordinate, and its height is the
# width times one span over another: points farther out are left out of it.
_DRAW_LIMIT = sys.float_info.max / (4 * _SVG_WIDTH)
_EXPONENT = re.compile(r"[eE][-+]?([\d_]+)")


class RenderTriangle(Record):
    """Exact Cartesian positions for the reference triangle's vertices: a,
    b and c, each a pair of Fractions.  Its __dict__ holds the cached
    properties."""

    _fields = ("a", "b", "c")
    __slots__ = (*_fields, "__dict__")

    @classmethod
    @cache  # a constant: its cached frame and sidelines serve every construct
    def default(cls) -> "RenderTriangle":
        return cls((Fraction(0), Fraction(0)), (Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))

    @classmethod
    def parse(cls, text: str) -> "RenderTriangle":
        """Parse "x1,y1;x2,y2;x3,y3" with exact rational entries, written
        in ASCII.  An exponent beyond the str limit is refused before
        Fraction expands it, which takes time that grows with it."""
        if not text.isascii():
            raise ValueError(f"triangle {text!r} has a character that is not ASCII")
        parts = text.strip().split(";")
        if len(parts) != 3:
            raise ValueError("triangle needs three semicolon-separated vertices")
        coords = []
        limit = sys.get_int_max_str_digits()
        for k, part in enumerate(parts, 1):
            for exponent in _EXPONENT.findall(part):
                digits = exponent.replace("_", "").lstrip("0")
                if limit and (len(digits) > len(str(limit)) or int(digits or "0") > limit):
                    raise ValueError(f"vertex {k} has an exponent beyond {limit} (the str limit)")
            xy = part.split(",")
            if len(xy) != 2:
                raise ValueError(f"malformed vertex {part!r}")
            try:
                coords.append((Fraction(xy[0]), Fraction(xy[1])))
            except ZeroDivisionError:
                raise ValueError(f"zero denominator in vertex {part!r}") from None
            except ValueError:  # nan, inf and other text Fraction refuses
                raise ValueError(f"malformed vertex {part!r}") from None
            if max(map(abs, coords[-1])) > _DRAW_LIMIT:
                raise ValueError(f"vertex {k} has a coordinate beyond {_DRAW_LIMIT:.3g}")
        tri = cls(*coords)
        if sum(w for _, _, w in tri.sidelines) == 0:  # den^2 times the doubled area
            raise ValueError("triangle vertices are collinear")
        return tri

    def vertices(self) -> tuple[tuple[Fraction, Fraction], ...]:
        return (self.a, self.b, self.c)

    @cached_property
    def frame(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        """(den, (xs, ys)): the lcm den of the six vertex denominators, and
        den times the x and the y coordinates of A, B, C, as ints."""
        den = lcm(*[c.denominator for v in self.vertices() for c in v])
        return den, tuple(
            tuple(c.numerator * (den // c.denominator) for c in axis)
            for axis in zip(*self.vertices())
        )

    def float_vertices(self) -> list[tuple[float, float]]:
        return [(float(x), float(y)) for x, y in self.vertices()]

    @cached_property
    def sidelines(self) -> tuple[tuple[int, int, int], ...]:
        """The sidelines BC, CA, AB as integer Cartesian rows (u, v, w) of
        u*x + v*y + w = 0: the cross products of the vertex columns
        (den*x, den*y, den) of `frame`.  Applied to (x, y, 1), the rows give
        the barycentric coordinates of (x, y) times den^2 times the doubled
        area."""
        den, ((ax, bx, cx), (ay, by, cy)) = self.frame
        return (
            (den * (by - cy), den * (cx - bx), bx * cy - cx * by),
            (den * (cy - ay), den * (ax - cx), cx * ay - ax * cy),
            (den * (ay - by), den * (bx - ax), ax * by - bx * ay),
        )

    def perpendicular_to_bc(self) -> Point:
        """The barycentric direction (a point at infinity) perpendicular to
        side BC: the image of the normal (u, v) of the row of BC."""
        rows = self.sidelines
        dx, dy, _ = rows[0]
        return Point(*(u * dx + v * dy for u, v, _ in rows))


def _float(a: int, b: int, d: int, den: int) -> Optional[float]:
    """The double nearest a / den + (b / den) * sqrt(d), for a positive den
    (a negative one would turn 0 into -0.0); None beyond the double range."""
    try:
        x = a / den + (b / den) * math.sqrt(d)
    except OverflowError:  # an int quotient beyond the double range
        return None
    return x if math.isfinite(x) else None


def _floats_up_to_scale(d: int, values: Sequence[Pair], den: int = 1) -> list[Optional[float]]:
    """A vector defined up to positive scale as doubles: when one value would
    overflow, den is first multiplied by a power of two that brings an upper
    bound on log2 |a + b*sqrt(d)| / den down to 1000."""
    out = [_float(a, b, d, den) for a, b in values]
    if None in out:
        bits = max(abs(n).bit_length() for pair in values for n in pair)
        den <<= bits - den.bit_length() + d.bit_length() // 2 + 3 - 1000
        out = [_float(a, b, d, den) for a, b in values]
    return out


def _cartesian(p: Point, tri: RenderTriangle) -> tuple[int, list[Pair], int]:
    """(d, [X, Y], den): den times the Cartesian image of the barycentric
    coordinates of p, as pairs over Z[sqrt(d)]."""
    den, axes = tri.frame
    return p.d, [zsum([zscale(c, v) for c, v in zip(axis, p.ints)]) for axis in axes], den


def bary_to_xy(p: Point, tri: RenderTriangle) -> tuple[Optional[float], Optional[float]]:
    """Cartesian position of an ordinary point, (X, Y) / w for the
    coordinate sum w of p; a coordinate beyond the double range is None."""
    d = p.d
    # construct_bits: without it a call took 4.2 us, not 0.8, at 4 bits and 62, not 4.6, at
    # 1024 bits (Python 3.11, x86-64)
    if d == 1:  # the three ints and the frame alone
        (u, _), (v, _), (w, _) = p.ints
        a = u + v + w
        if not a:
            raise InfiniteInput(f"{p} is at infinity")
        if a < 0:  # den * |a| keeps _float's denominator positive
            u, v, w, a = -u, -v, -w, -a
        den, ((ax, bx, cx), (ay, by, cy)) = tri.frame
        den *= a
        return _float(ax * u + bx * v + cx * w, 0, 1, den), _float(ay * u + by * v + cy * w, 0, 1, den)
    d, xy, den = _cartesian(p, tri)
    a, b = p._weight()
    norm = a * a - b * b * d  # w times its conjugate; times -1 if negative
    conj = (a, -b) if norm > 0 else (-a, b)
    return tuple([_float(*zmul(v, conj, d), d, den * abs(norm)) for v in xy])  # type: ignore[return-value]


def direction_to_xy(p: Point, tri: RenderTriangle) -> tuple[Optional[float], Optional[float]]:
    """Cartesian direction vector of a point at infinity (translation
    invariant because the coordinates sum to zero), scaled as in
    `_floats_up_to_scale`."""
    return tuple(_floats_up_to_scale(*_cartesian(p, tri)))  # type: ignore[return-value]


def _drawable_xy(p: Optional[Point], tri: RenderTriangle) -> Optional[tuple[float, float]]:
    """The position of an ordinary point; None for no point, a point at
    infinity or a coordinate beyond _DRAW_LIMIT."""
    xy = None if p is None or p.is_infinite() else bary_to_xy(p, tri)
    if xy is None or None in xy or max(map(abs, xy)) > _DRAW_LIMIT:  # type: ignore[arg-type]
        return None
    return xy  # type: ignore[return-value]


def conic_cartesian_matrix(conic: Conic, tri: RenderTriangle) -> list[list[float]]:
    """Float matrix of the conic in (x, y, 1) coordinates, up to scale: N^T C N
    for the sideline rows N of the triangle, computed exactly over Z[sqrt(d)]
    with the integer rows of `sidelines`, den^2 times N, and scaled back by
    den^4 as in `_floats_up_to_scale`."""
    n = [[(v, 0) for v in row] for row in tri.sidelines]
    d = conic.d
    m = mat_mul(transpose(n), mat_mul(conic.ints, n, d), d)
    c = _floats_up_to_scale(d, [x for row in m for x in row], tri.frame[0] ** 4)
    return [c[0:3], c[3:6], c[6:9]]


def sample_conic(
    conic: Conic, seed_point: Point, tri: RenderTriangle, center: tuple[float, float], clip: float
) -> list[list[tuple[float, float]]]:
    """Polyline segments tracing a conic through one known exact point.

    Lines through the seed point hit the conic in exactly one more point, so
    sweeping the direction parameterizes the whole conic rationally; jumps
    (asymptote crossings) and excursions farther than clip from the figure's
    center split the polyline.  The matrix is scaled to a largest entry of
    1, and a direction counts as asymptotic relative to the quadratic part,
    so that the trace does not depend on the triangle's scale.
    """
    m = conic_cartesian_matrix(conic, tri)
    scale = max(abs(x) for row in m for x in row)
    if not scale:  # every entry underflowed
        return []
    m = [[x / scale for x in row] for row in m]
    tol = 1e-14 * max(abs(m[i][j]) for i in range(2) for j in range(2))
    x0, y0 = bary_to_xy(seed_point, tri)
    cx, cy = center

    def form(u, v):
        return sum(m[i][j] * u[i] * v[j] for i in range(3) for j in range(3))

    pts: list[Optional[tuple[float, float]]] = []
    for k in range(_CONIC_STEPS + 1):
        theta = math.pi * k / _CONIC_STEPS
        w = (math.cos(theta), math.sin(theta), 0.0)  # a direction
        denom = form(w, w)
        mixed = form((x0, y0, 1.0), w)
        if abs(denom) <= tol:
            pts.append(None)
            continue
        t = -2.0 * mixed / denom
        px, py = x0 + t * w[0], y0 + t * w[1]
        if not (abs(px - cx) <= clip and abs(py - cy) <= clip):  # off screen, or not finite
            pts.append(None)
        else:
            pts.append((px, py))
    segments: list[list[tuple[float, float]]] = []
    current: list[tuple[float, float]] = []
    prev = None
    for pt in pts:
        if pt is None or (prev is not None and math.dist(prev, pt) > clip / 2):
            if len(current) > 1:
                segments.append(current)
            current = []
        if pt is not None:
            current.append(pt)
        prev = pt
    if len(current) > 1:
        segments.append(current)
    return segments


# ---------------------------------------------------------------------------
# named objects of a construction set


def named_points(cs: ConstructionSet) -> list[tuple[str, str, Optional[Point]]]:
    """(slug, display label, point or None) for every point the reports and
    figures may show, in a stable order."""
    d, e, f = cs.traces
    d3, e3, f3 = cs.traces_iso
    return [
        ("A", "A", VERTEX_A),
        ("B", "B", VERTEX_B),
        ("C", "C", VERTEX_C),
        ("G", "G", CENTROID),
        ("D0", "D0", MID_BC),
        ("E0", "E0", MID_CA),
        ("F0", "F0", MID_AB),
        ("P", "P", cs.p),
        ("P-prime", "P'", cs.p_iso),
        ("Q", "Q", cs.q),
        ("Q-prime", "Q'", cs.q_iso),
        ("D", "D", d),
        ("E", "E", e),
        ("F", "F", f),
        ("D3", "D3", d3),
        ("E3", "E3", e3),
        ("F3", "F3", f3),
        ("KQ", "K(Q)", complement(cs.q)),
        ("H", "H", cs.orthocenter),
        ("H-prime", "H'", cs.orthocenter_iso),
        ("O", "O", cs.circumcenter),
        ("O-prime", "O'", cs.circumcenter_iso),
        ("N", "N", cs.ninepoint_center),
        ("V", "V", cs.v),
        ("S", "S", cs.insimilicenter),
        ("Z", "Z", cs.feuerbach_point),
        ("Z-tilde", "Z~", cs.fourth_intersection),
        ("H-tilde", "H~", cs.orthocenter_preimage),
    ]


def named_conics(cs: ConstructionSet) -> list[tuple[str, str, Optional[Conic], Optional[Point], str]]:
    """(slug, label, conic or None, exact seed point for sampling, slug of
    the named point that is the center of the conic when it is proper)."""
    return [
        ("cevian-conic", "C_P", cs.cevian_conic, VERTEX_A, "Z"),
        ("circumconic", "C~_O", cs.circumconic, VERTEX_A, "O"),
        ("ninepoint-conic-iso", "N_P'", cs.ninepoint_conic_iso, MID_BC, "KQ"),
        ("ninepoint-conic", "N_H", cs.ninepoint_conic, MID_BC, "N"),
        ("inconic", "I", cs.inconic, cs.traces[0], "Q"),
        ("inconic-iso", "I'", cs.inconic_iso, cs.traces_iso[0], "Q-prime"),
    ]


def named_maps(cs: ConstructionSet) -> list[tuple[str, Optional[object]]]:
    return [
        ("cevian_map", cs.cevian_map),
        ("cevian_map_iso", cs.cevian_map_iso),
        ("transfer_map", cs.transfer_map),
        ("second_cevian_map", cs.second_cevian_map),
        ("second_cevian_map_iso", cs.second_cevian_map_iso),
        ("circum_to_inconic", cs.circum_to_inconic),
        ("ninepoint_to_inconic", cs.ninepoint_to_inconic),
        ("iso_reflection", cs.iso_reflection),
    ]


PRESETS: dict[str, dict[str, Sequence[str]]] = {
    "fig1": {
        "points": ("A", "B", "C", "P", "P-prime", "Q", "KQ", "O", "D3", "E3", "F3", "D0", "E0", "F0"),
        "conics": ("circumconic", "ninepoint-conic-iso"),
    },
    "fig2": {
        "points": (
            "A", "B", "C", "P", "P-prime", "Q", "Q-prime", "KQ",
            "O", "H", "N", "S", "Z", "D", "E", "F",
        ),
        "conics": ("ninepoint-conic-iso", "circumconic", "ninepoint-conic", "inconic"),
    },
    "fig3": {
        "points": ("A", "B", "C", "P", "Q", "N", "Z"),
        "conics": ("ninepoint-conic", "inconic", "steiner"),
    },
    "all": {
        "points": (
            "A", "B", "C", "G", "D0", "E0", "F0", "P", "P-prime", "Q", "Q-prime",
            "D", "E", "F", "D3", "E3", "F3", "KQ", "H", "H-prime", "O", "O-prime",
            "N", "V", "S", "Z", "Z-tilde", "H-tilde",
        ),
        "conics": (
            "cevian-conic", "circumconic", "ninepoint-conic-iso", "ninepoint-conic",
            "inconic", "inconic-iso", "steiner",
        ),
    },
}

_CONIC_STYLE = {
    "cevian-conic": "#7a4a12",
    "circumconic": "#1f6fb2",
    "ninepoint-conic-iso": "#3f9948",
    "ninepoint-conic": "#b07030",
    "inconic": "#c2527e",
    "inconic-iso": "#8358b5",
    "steiner": "#4e7fd0",
}


def render_svg(
    cs: ConstructionSet,
    tri: RenderTriangle,
    preset: str = "fig2",
    z_locus: Optional[Sequence[Point]] = None,
) -> str:
    """Deterministic standalone SVG for one configuration."""
    width = _SVG_WIDTH
    try:
        chosen = PRESETS[preset]
    except KeyError:
        raise ValueError(f"unknown preset {preset!r}; options: {sorted(PRESETS)}")
    point_rows = [row for row in named_points(cs) if row[0] in chosen["points"]]
    conic_rows = [row for row in named_conics(cs) if row[0] in chosen["conics"]]
    if "steiner" in chosen["conics"]:
        conic_rows.append(("steiner", "S_E", steiner_circumellipse(), Point(-2, -2, 1), "G"))

    finite_pts = [xy for _, _, p in point_rows if (xy := _drawable_xy(p, tri)) is not None]
    finite_pts += tri.float_vertices()
    xs = [p[0] for p in finite_pts]
    ys = [p[1] for p in finite_pts]
    extent = max(max(xs) - min(xs), max(ys) - min(ys))
    # an extent so small that the scale would overflow (0.0 when every
    # vertex rounds to 0.0) draws at the unit extent
    pad = 0.35 * (extent if extent > 1 / _DRAW_LIMIT else 1.0)
    x_lo, x_hi = min(xs) - pad, max(xs) + pad
    y_lo, y_hi = min(ys) - pad, max(ys) + pad
    center = ((x_lo + x_hi) / 2, (y_lo + y_hi) / 2)
    clip = 8 * max(x_hi - x_lo, y_hi - y_lo)
    height = int(width * (y_hi - y_lo) / (x_hi - x_lo))
    scale = width / (x_hi - x_lo)

    def to_px(x: float, y: float) -> tuple[float, float]:
        return ((x - x_lo) * scale, (y_hi - y) * scale)

    out: list[str] = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">'
    )
    out.append(f'<rect width="{width}" height="{height}" fill="#ffffff"/>')

    for slug, label, conic, seed, _center in conic_rows:
        seed_xy = _drawable_xy(seed, tri)
        if conic is None or conic.is_degenerate() or seed_xy is None:
            continue
        out.append(f'<g id="conic-{slug}" fill="none" stroke="{_CONIC_STYLE.get(slug, "#666666")}" stroke-width="1.2">')
        segments = []
        for segment in sample_conic(conic, seed, tri, center, clip):
            drawn = [
                _FMT.format(px) + "," + _FMT.format(py)
                for px, py in (to_px(x, y) for x, y in segment)
            ]
            # copies of one drawn point, as on a needle-thin conic that no
            # sampled direction reaches across, are no polyline
            if len(set(drawn)) > 1:
                segments.append(segment)
                out.append(f'<polyline points="{" ".join(drawn)}"/>')
        if segments:
            anchor_pt = segments[0][len(segments[0]) // 3]
            label_anchor = to_px(*anchor_pt)
        else:  # degenerate sampling; fall back to the seed point
            label_anchor = to_px(*seed_xy)
        out.append(
            f'<text x="{_FMT.format(label_anchor[0] + 8)}" y="{_FMT.format(label_anchor[1] - 8)}" '
            f'font-size="12" fill="{_CONIC_STYLE.get(slug, "#666666")}" stroke="none">{_escape(label)}</text>'
        )
        out.append("</g>")

    tri_px = [to_px(*v) for v in tri.float_vertices()]
    tri_path = " ".join(_FMT.format(x) + "," + _FMT.format(y) for x, y in tri_px)
    out.append(
        f'<g id="triangle"><polygon points="{tri_path}" fill="none" stroke="#222222" stroke-width="1.6"/></g>'
    )

    if z_locus:
        dots = []
        for xy in filter(None, [_drawable_xy(p, tri) for p in z_locus]):
            px, py = to_px(*xy)
            if 0 <= px <= width and 0 <= py <= height:
                dots.append(
                    f'<circle cx="{_FMT.format(px)}" cy="{_FMT.format(py)}" r="1.5"/>'
                )
        out.append('<g id="z-locus" fill="#2a9d8f" stroke="none">' + "".join(dots) + "</g>")

    for slug, label, p in point_rows:
        xy = _drawable_xy(p, tri)
        if p is None or (xy is None and not p.is_infinite()):  # absent, or beyond the double range
            continue
        if p.is_infinite():
            dx, dy = direction_to_xy(p, tri)
            norm = math.hypot(dx, dy) or 1.0
            dx, dy = dx / norm, dy / norm
            cx_mid, cy_mid = to_px(*center)
            edge_t = 0.46 * min(width, height)
            ex, ey = cx_mid + dx * edge_t, cy_mid - dy * edge_t
            sx, sy = ex - dx * 24, ey + dy * 24
            out.append(
                f'<g id="point-{slug}"><line x1="{_FMT.format(sx)}" y1="{_FMT.format(sy)}" '
                f'x2="{_FMT.format(ex)}" y2="{_FMT.format(ey)}" stroke="#993333" stroke-width="1.4" '
                f'marker-end="url(#arrow)"/>'
                f'<text x="{_FMT.format(ex + 4)}" y="{_FMT.format(ey - 4)}" font-size="12" fill="#993333">{_escape(label)}&#8734;</text></g>'
            )
            continue
        px, py = to_px(*xy)
        out.append(
            f'<g id="point-{slug}"><circle cx="{_FMT.format(px)}" cy="{_FMT.format(py)}" r="2.6" fill="#111111"/>'
            f'<text x="{_FMT.format(px + 5)}" y="{_FMT.format(py - 5)}" font-size="12" fill="#111111">{_escape(label)}</text></g>'
        )

    out.insert(
        1,
        '<defs><marker id="arrow" viewBox="0 0 10 10" refX="9" refY="5" '
        'markerWidth="7" markerHeight="7" orient="auto-start-reverse">'
        '<path d="M 0 0 L 10 5 L 0 10 z" fill="#993333"/></marker></defs>',
    )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
