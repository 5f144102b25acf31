"""SVG rendering of configurations.

This module and the CLI are the only places floats exist.  Every decision is
made upstream in exact arithmetic; here coordinates are converted once, at
the edge, for drawing.  Output is deterministic: fixed sampling counts and
fixed-precision formatting make repeated runs byte-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .scalar import Scalar
from .projective import (
    CENTROID,
    MID_AB,
    MID_BC,
    MID_CA,
    Point,
    VERTEX_A,
    VERTEX_B,
    VERTEX_C,
    complement,
)
from .conics import Conic
from .constructions import ConstructionSet

_FMT = "{:.4f}"


@dataclass(frozen=True)
class RenderTriangle:
    """Exact Cartesian positions for the reference triangle's vertices."""

    a: tuple[Fraction, Fraction]
    b: tuple[Fraction, Fraction]
    c: tuple[Fraction, Fraction]

    @classmethod
    def default(cls) -> "RenderTriangle":
        return cls((Fraction(0), Fraction(0)), (Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))

    @classmethod
    def parse(cls, text: str) -> "RenderTriangle":
        """Parse "x1,y1;x2,y2;x3,y3" with exact rational entries."""
        parts = text.strip().split(";")
        if len(parts) != 3:
            raise ValueError("triangle needs three semicolon-separated vertices")
        coords = []
        for part in parts:
            xy = part.split(",")
            if len(xy) != 2:
                raise ValueError(f"malformed vertex {part!r}")
            try:
                coords.append((Fraction(xy[0]), Fraction(xy[1])))
            except ZeroDivisionError:
                raise ValueError(f"zero denominator in vertex {part!r}") from None
        tri = cls(*coords)
        if tri.doubled_area() == 0:
            raise ValueError("triangle vertices are collinear")
        return tri

    def doubled_area(self) -> Fraction:
        (ax, ay), (bx, by), (cx, cy) = self.a, self.b, self.c
        return (bx - ax) * (cy - ay) - (cx - ax) * (by - ay)

    def vertices(self) -> tuple[tuple[Fraction, Fraction], ...]:
        return (self.a, self.b, self.c)

    def squared_side_lengths(self) -> tuple[Fraction, Fraction, Fraction]:
        """(|BC|^2, |CA|^2, |AB|^2)."""

        def sq(p, q):
            return (p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2

        return (sq(self.b, self.c), sq(self.c, self.a), sq(self.a, self.b))

    def line_rows(self) -> tuple[tuple[Fraction, Fraction, Fraction], ...]:
        """The sidelines BC, CA, AB as Cartesian rows (u, v, w) of
        u*x + v*y + w = 0; applied to (x, y, 1), the rows give the
        barycentric coordinates of (x, y) times the doubled area."""
        (ax, ay), (bx, by), (cx, cy) = self.a, self.b, self.c
        return (
            (by - cy, cx - bx, bx * cy - cx * by),
            (cy - ay, ax - cx, cx * ay - ax * cy),
            (ay - by, bx - ax, ax * by - bx * ay),
        )

    def perpendicular_to_bc(self) -> Point:
        """The barycentric direction (a point at infinity) perpendicular to
        side BC: the image of the normal (u, v) of the row of BC."""
        rows = self.line_rows()
        dx, dy, _ = rows[0]
        return Point(*(Scalar(u * dx + v * dy) for u, v, _ in rows))


def bary_to_cartesian_exact(p: Point, tri: RenderTriangle) -> tuple[Scalar, Scalar]:
    """Exact Cartesian image of an ordinary point (Scalars, possibly quadratic)."""
    nx, ny, nz = p.normalized()
    xs = nx * tri.a[0] + ny * tri.b[0] + nz * tri.c[0]
    ys = nx * tri.a[1] + ny * tri.b[1] + nz * tri.c[1]
    return xs, ys


def bary_to_xy(p: Point, tri: RenderTriangle) -> tuple[float, float]:
    xs, ys = bary_to_cartesian_exact(p, tri)
    return xs.to_float(), ys.to_float()


def direction_to_xy(p: Point, tri: RenderTriangle) -> tuple[float, float]:
    """Cartesian direction vector of a point at infinity (translation
    invariant because the coordinates sum to zero)."""
    x, y, z = p.coords
    dx = x * tri.a[0] + y * tri.b[0] + z * tri.c[0]
    dy = x * tri.a[1] + y * tri.b[1] + z * tri.c[1]
    return dx.to_float(), dy.to_float()


def conic_cartesian_matrix(conic: Conic, tri: RenderTriangle) -> list[list[float]]:
    """Float matrix of the conic in (x, y, 1) coordinates."""
    n = [[float(v) for v in row] for row in tri.line_rows()]
    c = [[x.to_float() for x in row] for row in conic.matrix]
    nc = [[sum(n[k][i] * c[k][j] for k in range(3)) for j in range(3)] for i in range(3)]
    return [
        [sum(nc[i][k] * n[k][j] for k in range(3)) for j in range(3)] for i in range(3)
    ]


def sample_conic(
    conic: Conic,
    seed_point: Point,
    tri: RenderTriangle,
    steps: int = 256,
    clip: float = 64.0,
) -> list[list[tuple[float, float]]]:
    """Polyline segments tracing a conic through one known exact point.

    Lines through the seed point hit the conic in exactly one more point, so
    sweeping the direction parameterizes the whole conic rationally; jumps
    (asymptote crossings) and off-screen excursions split the polyline.
    """
    m = conic_cartesian_matrix(conic, tri)
    x0, y0 = bary_to_xy(seed_point, tri)

    def quad(px, py, qx, qy):
        return sum(
            m[i][j] * (px, py, 1.0)[i] * (qx, qy, 1.0)[j]
            for i in range(3)
            for j in range(3)
        )

    pts: list[Optional[tuple[float, float]]] = []
    for k in range(steps + 1):
        theta = math.pi * k / steps
        wx, wy = math.cos(theta), math.sin(theta)
        denom = sum(
            m[i][j] * (wx, wy, 0.0)[i] * (wx, wy, 0.0)[j]
            for i in range(3)
            for j in range(3)
        )
        mixed = quad(x0, y0, wx, wy)
        if abs(denom) < 1e-14:
            pts.append(None)
            continue
        t = -2.0 * mixed / denom
        px, py = x0 + t * wx, y0 + t * wy
        if abs(px) > clip or abs(py) > clip:
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


def named_conics(cs: ConstructionSet) -> list[tuple[str, str, Optional[Conic], Optional[Point]]]:
    """(slug, label, conic or None, exact seed point for sampling)."""
    return [
        ("cevian-conic", "C_P", cs.cevian_conic, VERTEX_A),
        ("circumconic", "C~_O", cs.circumconic, VERTEX_A),
        ("ninepoint-conic-iso", "N_P'", cs.ninepoint_conic_iso, MID_BC),
        ("ninepoint-conic", "N_H", cs.ninepoint_conic, MID_BC),
        ("inconic", "I", cs.inconic, cs.traces[0]),
        ("inconic-iso", "I'", cs.inconic_iso, cs.traces_iso[0]),
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
    width: int = 720,
    z_locus: Optional[Sequence[Point]] = None,
) -> str:
    """Deterministic standalone SVG for one configuration."""
    from .conics import steiner_circumellipse

    try:
        chosen = PRESETS[preset]
    except KeyError:
        raise ValueError(f"unknown preset {preset!r}; options: {sorted(PRESETS)}")
    point_rows = [row for row in named_points(cs) if row[0] in chosen["points"]]
    conic_rows = [row for row in named_conics(cs) if row[0] in chosen["conics"]]
    if "steiner" in chosen["conics"]:
        conic_rows.append(("steiner", "S_E", steiner_circumellipse(), Point(-2, -2, 1)))

    finite_pts = []
    for _, _, p in point_rows:
        if p is not None and not p.is_infinite():
            finite_pts.append(bary_to_xy(p, tri))
    for v in tri.vertices():
        finite_pts.append((float(v[0]), float(v[1])))
    xs = [p[0] for p in finite_pts]
    ys = [p[1] for p in finite_pts]
    pad = 0.35 * max(max(xs) - min(xs), max(ys) - min(ys), 1.0)
    x_lo, x_hi = min(xs) - pad, max(xs) + pad
    y_lo, y_hi = min(ys) - pad, max(ys) + pad
    span = max(x_hi - x_lo, y_hi - y_lo)
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

    for slug, label, conic, seed in conic_rows:
        if conic is None or conic.is_degenerate():
            continue
        out.append(f'<g id="conic-{slug}" fill="none" stroke="{_CONIC_STYLE.get(slug, "#666666")}" stroke-width="1.2">')
        clip = 8.0 * max(span, 1.0)
        segments = sample_conic(conic, seed, tri, clip=clip)
        for segment in segments:
            coords = " ".join(
                _FMT.format(px) + "," + _FMT.format(py)
                for px, py in (to_px(x, y) for x, y in segment)
            )
            out.append(f'<polyline points="{coords}"/>')
        if segments:
            anchor_pt = segments[0][len(segments[0]) // 3]
            label_anchor = to_px(*anchor_pt)
        else:  # degenerate sampling; fall back to the seed point
            label_anchor = to_px(*bary_to_xy(seed, tri))
        out.append(
            f'<text x="{_FMT.format(label_anchor[0] + 8)}" y="{_FMT.format(label_anchor[1] - 8)}" '
            f'font-size="12" fill="{_CONIC_STYLE.get(slug, "#666666")}" stroke="none">{_escape(label)}</text>'
        )
        out.append("</g>")

    tri_px = [to_px(float(v[0]), float(v[1])) for v in tri.vertices()]
    tri_path = " ".join(_FMT.format(x) + "," + _FMT.format(y) for x, y in tri_px)
    out.append(
        f'<g id="triangle"><polygon points="{tri_path}" fill="none" stroke="#222222" stroke-width="1.6"/></g>'
    )

    if z_locus:
        dots = []
        for p in z_locus:
            if p.is_infinite():
                continue
            px, py = to_px(*bary_to_xy(p, tri))
            if 0 <= px <= width and 0 <= py <= height:
                dots.append(
                    f'<circle cx="{_FMT.format(px)}" cy="{_FMT.format(py)}" r="1.5"/>'
                )
        out.append('<g id="z-locus" fill="#2a9d8f" stroke="none">' + "".join(dots) + "</g>")

    for slug, label, p in point_rows:
        if p is None:
            continue
        if p.is_infinite():
            dx, dy = direction_to_xy(p, tri)
            norm = math.hypot(dx, dy) or 1.0
            dx, dy = dx / norm, dy / norm
            cx_mid, cy_mid = to_px((x_lo + x_hi) / 2, (y_lo + y_hi) / 2)
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
        px, py = to_px(*bary_to_xy(p, tri))
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
