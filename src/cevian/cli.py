"""Command-line front end: construct configurations, run the verification
suite, inspect the vertex-orthocenter locus, and emit SVG figures.

Reports are UTF-8 JSON.  Every geometric value appears as an exact string:
a point reads back bit-identically through `Point.parse`, and a conic or map
has the documented "[[a, b, c], [d, e, f], [g, h, i]]" shape, which the
tests' reader checks.  Floats occur only inside the dedicated "render"
sub-object.  Exit codes: 0 success, 1 verification failure, 2 malformed
input, hard degeneracy or an output that cannot be written (a closed pipe
included).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import re
import sys
from typing import Optional, Sequence

from .scalar import ScalarError
from .projective import VERTICES, GeometryError, HardDegeneracy, Point
from .constructions import ConstructionSet, construct, locus_conic, z_locus_sweep
from .render import (
    PRESETS,
    RenderTriangle,
    bary_to_xy,
    direction_to_xy,
    named_conics,
    named_maps,
    named_points,
    render_svg,
)
from .verify import run_point, run_suite, tally

SCHEMA_VERSION = 1
EXIT_OK = 0
EXIT_CHECK_FAILURE = 1
EXIT_INPUT_ERROR = 2


class InputError(Exception):
    pass


def parse_point(text: str) -> Point:
    limit = sys.get_int_max_str_digits()
    if limit and re.search(rf"\d{{{limit + 1}}}", text):
        raise InputError(f"--p has a number of over {limit} digits (the str limit): {text[:20]}...")
    try:
        return Point.parse(text)
    except (ValueError, ScalarError) as exc:
        raise InputError(f"bad point {text!r}: {exc}") from exc


def load_config_file(path: str) -> dict[str, str]:
    """key = value lines; blank lines and #-comments ignored, and so is a
    leading UTF-8 byte order mark."""
    out: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise InputError(f"{path}:{lineno}: expected key = value")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def construction_report(cs: ConstructionSet, tri: RenderTriangle) -> dict:
    points, render_points = {}, {}
    for slug, label, p in named_points(cs):
        if p is None:
            continue
        infinite = p.is_infinite()
        points[slug] = {"label": label, "bary": str(p), "infinite": infinite}
        if infinite:
            render_points[slug] = {"direction": list(direction_to_xy(p, tri))}
        else:
            render_points[slug] = {"xy": list(bary_to_xy(p, tri))}
    conics = {}
    for slug, label, conic, _seed, center in named_conics(cs):
        if conic is None:
            continue
        degenerate = conic.is_degenerate()
        conics[slug] = {"label": label, "matrix": str(conic), "degenerate": degenerate}
        if not degenerate:  # the center is a named point: reuse its string
            conics[slug]["center"] = points[center]["bary"]
    maps = {name: str(m) for name, m in named_maps(cs) if m is not None}
    return {
        "schema_version": SCHEMA_VERSION,
        "command": "construct",
        "input": {
            "p": points["P"]["bary"],
            "triangle": [[str(v[0]), str(v[1])] for v in tri.vertices()],
            "extension_d": cs.p.d,
        },
        "flags": cs.flags.as_dict(),
        "absent": dict(sorted(cs.absent.items())),
        "points": points,
        "conics": conics,
        "maps": maps,
        "render": {
            "triangle": [list(v) for v in tri.float_vertices()],
            "points": render_points,
        },
    }


_encode_str = json.encoder.encode_basestring_ascii


def _json_text(obj: object) -> str:
    """What json.dumps writes for obj with an indent of 2, byte for byte:
    every report is written by this one function.  Each leaf goes through
    the C helpers json itself uses: json has no C encoder for an indent,
    and its pure-Python one took a quarter of a `construct` at a small
    point.  Every leaf and separator is appended to one list, joined once.
    It takes dicts with str keys, lists, tuples, str, int, float, bool and
    None, and raises TypeError on anything else, as json.dumps does; also
    on a key that is not a str, which json.dumps would turn into one and
    no report holds."""
    parts: list[str] = []
    _json_parts(obj, "\n", parts.append)
    return "".join(parts)


def _json_parts(obj: object, newline: str, append) -> None:
    """Append the text of obj, indented to the depth of newline."""
    if isinstance(obj, str):
        append(_encode_str(obj))
    elif obj is None:
        append("null")
    elif obj is True:
        append("true")
    elif obj is False:
        append("false")
    elif isinstance(obj, int):
        append(int.__repr__(obj))
    elif isinstance(obj, float):
        append(float.__repr__(obj) if math.isfinite(obj) else json.dumps(obj))
    elif isinstance(obj, dict):
        if not obj:
            append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, value in obj.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            append(sep)
            append(_encode_str(key))
            append(": ")
            _json_parts(value, inner, append)
            sep = "," + inner
        append(newline + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for value in obj:
            append(sep)
            _json_parts(value, inner, append)
            sep = "," + inner
        append(newline + "]")
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _emit(payload: str, out: Optional[str]) -> None:
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(payload)
        except OSError as exc:
            raise InputError(f"cannot write {out}: {exc.strerror}") from exc
    else:
        try:
            sys.stdout.write(payload)
            sys.stdout.flush()
        except OSError as exc:  # a closed pipe or a full device
            # the unwritten rest stays buffered, and the flush at exit would
            # fail on it again with a second report: send it to the null device
            if sys.stdout is sys.__stdout__:
                devnull = os.open(os.devnull, os.O_WRONLY)
                os.dup2(devnull, sys.stdout.fileno())
                os.close(devnull)
            raise InputError(f"cannot write standard output: {exc.strerror}") from exc


@contextlib.contextmanager
def _str_limit_for(text: str):
    """The str limit lifted for the numbers grown from the point `text`: a
    member is a form of degree at most 8 in the canonical ints of the point,
    so a report number has at most about 10 times all the digits of text,
    and 16 times leaves room.  The limit guards against untrusted input,
    which parse_point has checked."""
    limit = sys.get_int_max_str_digits()
    if limit:
        sys.set_int_max_str_digits(max(limit, 16 * sum(map(str.isdigit, text))))
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def cmd_construct(args) -> int:
    p = parse_point(args.p)
    tri = RenderTriangle.parse(args.triangle) if args.triangle else RenderTriangle.default()
    cs = construct(p)
    with _str_limit_for(args.p):
        try:
            report = construction_report(cs, tri)
        except ValueError as exc:  # the lift covers the point's numbers, not the triangle's
            cap = sys.get_int_max_str_digits()
            raise InputError(f"--triangle is too large: its report needs numbers of over {cap} digits") from exc
    _emit(_json_text(report) + "\n", args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    checks = None
    if args.check:
        checks = list(dict.fromkeys(args.check))
    payload = {"schema_version": SCHEMA_VERSION, "command": "verify"}
    if args.p is not None:
        p = parse_point(args.p)
        with _str_limit_for(args.p):  # the witnesses' strings
            results = run_point(p, check_ids=checks)
            payload.update({
                "p": str(p),
                "tallies": tally(results),
                "results": [r.to_dict() for r in results],
            })
    else:
        report = run_suite(
            args.seed, args.count, field_policy=args.field_policy, check_ids=checks
        )
        results = report.results
        payload.update(report.to_dict())
    _emit(_json_text(payload) + "\n", args.out)
    summary = ", ".join(
        f"{cid}: {t['pass']}/{t['pass'] + t['fail']}"
        for cid, t in sorted(payload["tallies"].items())
        if t["pass"] + t["fail"]
    )
    print(f"checks passed: {summary or 'none (every check skipped)'}", file=sys.stderr)
    return EXIT_CHECK_FAILURE if any(r.status == "fail" for r in results) else EXIT_OK


def cmd_locus(args) -> int:
    conic = locus_conic(args.vertex)
    vertex = VERTICES["ABC".index(args.vertex)]
    excluded = {
        "A": ("B", "C", "E0", "F0"),
        "B": ("C", "A", "F0", "D0"),
        "C": ("A", "B", "D0", "E0"),
    }[args.vertex]
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "locus",
        "vertex": args.vertex,
        "matrix": str(conic),
        "center": str(conic.center()),
        "polar_of_vertex": str(conic.polar(vertex)),
        "excluded_points": list(excluded),
    }
    _emit(_json_text(payload) + "\n", args.out)
    return EXIT_OK


def cmd_svg(args) -> int:
    p = parse_point(args.p)
    tri = RenderTriangle.parse(args.triangle) if args.triangle else RenderTriangle.default()
    cs = construct(p)
    locus = z_locus_sweep(p, tri.perpendicular_to_bc()) if args.z_locus else None
    svg = render_svg(cs, tri, preset=args.preset, z_locus=locus)
    _emit(svg, args.out)
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and shared by every later one:
    nothing in it depends on the input.  Parsing leaves it unchanged, since
    every default is None or immutable and `parse_args` returns a fresh
    namespace; the command's function is looked up in `main`, so the parser
    holds no reference to it."""
    parser = argparse.ArgumentParser(
        prog="cevian",
        description="Exact barycentric triangle geometry and theorem verification.",
    )
    parser.add_argument(
        "--config",
        help="plain-text configuration file of key = value lines; flags override",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_construct = sub.add_parser("construct", help="derive one full configuration")
    p_construct.add_argument("--p", help="driving point, e.g. 2:3:6 or 1:1+1*sqrt(2):1-1*sqrt(2)")
    p_construct.add_argument("--triangle", help='Cartesian vertices "x1,y1;x2,y2;x3,y3" (render only)')
    p_construct.add_argument("--out", help="output path (default stdout)")

    p_verify = sub.add_parser("verify", help="run the theorem-check suite")
    p_verify.add_argument("--seed", type=_parse_int)
    p_verify.add_argument("--count", type=_parse_int)
    p_verify.add_argument(
        "--check", action="append", metavar="ID",
        help="run only this check id (repeatable); see README for the list",
    )
    p_verify.add_argument(
        "--field-policy", choices=("auto", "rational"),
        help="auto includes the quadratic-extension fixture",
    )
    p_verify.add_argument(
        "--p",
        help="run at this driving point alone, in place of the seeded sample and the fixed "
        "points; takes a witness's config.p, (x : y : z), as it is",
    )
    p_verify.add_argument("--out", help="output path (default stdout)")

    p_locus = sub.add_parser("locus", help="the conic of points whose orthocenter-like point is a vertex")
    p_locus.add_argument("--vertex", choices=("A", "B", "C"))
    p_locus.add_argument("--out", help="output path (default stdout)")

    p_svg = sub.add_parser("svg", help="render a figure")
    p_svg.add_argument("--p", help="driving point")
    p_svg.add_argument("--triangle", help='Cartesian vertices "x1,y1;x2,y2;x3,y3"')
    p_svg.add_argument("--preset", choices=sorted(PRESETS))
    p_svg.add_argument(
        "--z-locus", action="store_true", default=None,
        help="overlay the sweep of cevian-conic centers (display only, no exactness claim)",
    )
    p_svg.add_argument("--out", help="output path (default stdout)")
    return parser


def _parse_int(text: str) -> int:
    """An integer in ASCII digits, as every number the CLI reads: int()
    alone reads other Unicode digits too."""
    if text.isascii():
        with contextlib.suppress(ValueError):
            return int(text)
    raise argparse.ArgumentTypeError(f"expected an integer in ASCII digits, not {text!r}")


def _parse_bool(text: str) -> bool:
    value = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}.get(text.lower())
    if value is None:
        raise argparse.ArgumentTypeError(f"expected 1, true, yes, 0, false or no, not {text!r}")
    return value


# each config key's converter, which raises the error argparse prints for a
# type=, and the default of an option that neither the flags nor the file give
_CONFIG_KEYS = {
    "p": (str, None),
    "triangle": (str, None),
    "seed": (_parse_int, 42),
    "count": (_parse_int, 25),
    "check": (lambda v: [s.strip() for s in v.split(",") if s.strip()], None),
    "field_policy": (str, "auto"),
    "vertex": (str, "A"),
    "preset": (str, "fig2"),
    "out": (str, None),
    "z_locus": (_parse_bool, False),
}


def _apply_config(args: argparse.Namespace) -> None:
    file_values: dict[str, object] = {}
    if args.config:
        raw = load_config_file(args.config)
        for key, value in raw.items():
            if key not in _CONFIG_KEYS:
                raise InputError(f"unknown configuration key {key!r}")
            try:
                file_values[key] = _CONFIG_KEYS[key][0](value)
            except argparse.ArgumentTypeError as exc:
                raise InputError(f"{args.config}: bad value for {key!r}: {exc}") from exc
    for key, (_, default) in _CONFIG_KEYS.items():
        if hasattr(args, key) and getattr(args, key) is None:
            setattr(args, key, file_values.get(key, default))


def _attach_signed_values(argv: Sequence[str]) -> list[str]:
    """Rewrite "--p -5:3:7" as "--p=-5:3:7", and likewise for --triangle:
    argparse takes a separate value that starts with "-" (and is not a plain
    number) for an option."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in ("--p", "--triangle") and re.match(r"-\d", arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(_attach_signed_values(sys.argv[1:] if argv is None else argv))
    try:
        _apply_config(args)
        if args.command in ("construct", "svg") and args.p is None:
            raise InputError("a driving point is required (--p or config file)")
        commands = {"construct": cmd_construct, "verify": cmd_verify, "locus": cmd_locus, "svg": cmd_svg}
        return commands[args.command](args)
    except HardDegeneracy as exc:
        print(f"degenerate input ({exc.flag}): {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except (InputError, ValueError, ScalarError, GeometryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
