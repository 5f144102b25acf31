#!/usr/bin/env python3
"""Render the standard figures into out/figures/.

Covers the generic configuration, the tangency diagram with the center
locus sweep, the Steiner collapse with its points at infinity, and the
sqrt(2) special configuration.  The cevian package is imported from the
src/ of the checkout that holds this script, so it runs uninstalled.
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from cevian.constructions import construct, special_configuration_point, z_locus_sweep  # noqa: E402
from cevian.projective import Point  # noqa: E402
from cevian.render import RenderTriangle, render_svg  # noqa: E402

FIGURES = (
    ("fig1-generic", Point(2, 3, 6), "fig1", False),
    ("fig2-generic", Point(2, 3, 6), "fig2", False),
    ("fig3-tangency-with-locus", Point(7, 3, 2), "fig3", True),
    ("steiner-collapse", Point(3, 6, -2), "fig2", False),
    ("sqrt2-special", special_configuration_point(), "all", False),
)


def main() -> int:
    out_dir = pathlib.Path(sys.argv[1]) if len(sys.argv) > 1 else pathlib.Path("out/figures")
    out_dir.mkdir(parents=True, exist_ok=True)
    tri = RenderTriangle.parse("0,0;1,0;7/20,4/5")  # scalene, nice aspect
    for name, p, preset, with_locus in FIGURES:
        cs = construct(p)
        locus = z_locus_sweep(p, tri.perpendicular_to_bc()) if with_locus else None
        svg = render_svg(cs, tri, preset=preset, z_locus=locus)
        path = out_dir / f"{name}.svg"
        path.write_text(svg, encoding="utf-8")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
