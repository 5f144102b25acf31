import argparse
import contextlib
import io
import json
import os
import pathlib
import random
import re
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from math import lcm
from xml.etree import ElementTree

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from cevian import cli
from cevian.cli import SCHEMA_VERSION, construction_report, main, parse_point
from cevian.constructions import DegeneracyReport, construct
from cevian.projective import AffineMap, GeometryError, HardDegeneracy, Line, Point, complement
from cevian.conics import Conic
from cevian.conics import steiner_circumellipse
from cevian.render import (
    PRESETS,
    RenderTriangle,
    _float,
    _floats_up_to_scale,
    conic_cartesian_matrix,
    direction_to_xy,
    named_conics,
    named_maps,
    named_points,
    sample_conic,
)
from cevian.scalar import Scalar, format_number, zmul, zscale, zsum
from cevian.verify import REGISTRY
from matrix_text import read_matrix

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
SVG_NS = "{http://www.w3.org/2000/svg}"


def run(args):
    return main(list(args))


def test_construct_report(tmp_path):
    out = tmp_path / "report.json"
    code = run(
        ["construct", "--p", "2:3:6", "--triangle", "0,0;5,0;16/5,12/5", "--out", str(out)]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["schema_version"] == 1
    assert report["points"]["Q"]["bary"] == "(3 : 4 : 5)"
    assert report["points"]["H"]["bary"] == "(0 : 0 : 1)"
    assert not report["points"]["H"]["infinite"]
    # H renders at the right-angle vertex of the 3-4-5 Cartesian triangle
    assert report["render"]["points"]["H"]["xy"] == [3.2, 2.4]
    assert report["input"]["extension_d"] == 1


def test_construct_report_matches_golden_file(tmp_path):
    out = tmp_path / "report.json"
    assert (
        run(["construct", "--p", "2:3:6", "--triangle", "0,0;5,0;16/5,12/5", "--out", str(out)])
        == 0
    )
    assert out.read_text() == (GOLDEN / "construct-2-3-6.json").read_text()


def test_locus_report_matches_golden_file(tmp_path):
    out = tmp_path / "locus.json"
    assert run(["locus", "--vertex", "A", "--out", str(out)]) == 0
    assert out.read_text() == (GOLDEN / "locus-A.json").read_text()


def test_construct_exact_strings_parse_back(tmp_path):
    out = tmp_path / "report.json"
    assert run(["construct", "--p", "7:3:2", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    for entry in report["points"].values():
        parsed = Point.parse(entry["bary"])
        assert str(parsed) == entry["bary"]
    for entry in report["conics"].values():
        parsed = read_matrix(Conic, entry["matrix"])
        assert str(parsed) == entry["matrix"]
    for text in report["maps"].values():
        assert str(read_matrix(AffineMap, text)) == text


@pytest.mark.parametrize(
    "cls, text",
    [
        (Point, "(1 : 2)"),
        (Point, "[1 : 2 : 3]"),
        (Point, "(1 : 1/0 : 2)"),
        (Point, "(0 : 0 : 0)"),
        (Line, "(1 : 2 : 3)"),
        (Line, "[1 : x : 3]"),
        (Line, "[1/0 : 1 : 1]"),
        (AffineMap, "[[1, 0, 0], [0, 1, 0]]"),
        (AffineMap, "[[1, 0, 0], [0, 1, 0], [0, 0, 2]]"),
        (AffineMap, "[[1/0, 0, 0], [0, 1, 0], [0, 0, 1]]"),
        (AffineMap, "[[1, 0, 0]], [[0, 1, 0]], [[0, 0, 1]]"),
        (AffineMap, "[[[1, 0, 0], [0, 1, 0], [0, 0, 1]]]"),
        (AffineMap, "[[1, 0, 0], [0, 1, 0], [0, 0, 1]]]]]"),
        (Conic, "[[1, 2, 0], [0, 1, 0], [0, 0, 1]]"),
        (Conic, "[[1, 0, 0], [0, 1, 0], [0, 0, 1]"),
        (Conic, "[[1, 0, 0], [0, 1+1/0*sqrt(2), 0], [0, 0, 1]]"),
        (Point, "(\u0663 : 2 : 5)"),  # an Arabic-Indic 3
        (Line, "[1 : 1+\uff12*sqrt(2) : 1]"),  # a full-width 2
        (Conic, "[[1, 0, 0], [0, 1+1*sqrt(\u0662), 0], [0, 0, 1]]"),
    ],
)
def test_parse_rejects_malformed_text(cls, text):
    """Points and lines through their own parse, matrices through the
    tests' reader of report text."""
    with pytest.raises(ValueError):
        if cls in (Point, Line):
            cls.parse(text)
        else:
            read_matrix(cls, text)


def test_construct_quadratic_point(tmp_path):
    out = tmp_path / "report.json"
    code = run(
        ["construct", "--p", "1:1+1*sqrt(2):1-1*sqrt(2)", "--out", str(out)]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["input"]["extension_d"] == 2
    assert report["points"]["H"]["bary"] == "(1 : 0 : 0)"
    assert report["flags"]["h_is_vertex"] == "A"


def _reject_constant(name):
    raise ValueError(f"{name} is not strict JSON")


def test_construct_beyond_double_range(capsys):
    x = 2**1100 - 1
    assert run(["construct", f"--p={x}:2:3"]) == 0
    report = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    cs = construct(Point(x, 2, 3))
    expected = {slug: str(p) for slug, _, p in named_points(cs) if p is not None}
    assert {slug: e["bary"] for slug, e in report["points"].items()} == expected
    assert report["render"]["points"]["H"]["xy"] == [None, None]
    assert report["render"]["points"]["Q"]["xy"] == [0.2, 0.3]


def test_svg_beyond_double_range(capsys):
    # 2^1017 and 2^1023 put H and O near the double maximum: finite, but the
    # figure's extent times its width is not.  At 2^1100 - 1 the inconics
    # are needles that every sampled direction meets at one drawn point:
    # a polyline of copies of that point would show nothing.
    for x in (2**1100 - 1, 2**1017, 2**1023):
        for preset in ("fig2", "all"):
            assert run(["svg", f"--p={x}:2:3", f"--preset={preset}"]) == 0
            svg = capsys.readouterr().out
            assert "nan" not in svg.lower() and "inf" not in svg.lower()
            for polyline in ElementTree.fromstring(svg).iter(f"{SVG_NS}polyline"):
                assert len(set(polyline.get("points").split())) > 1


@given(
    st.integers(0, 1100) | st.integers(1000, 1040),  # the double maximum is near 2^1024
    st.sampled_from([1, -1]),
    st.integers(-3, 3),
    st.integers(-5, 5),
    st.integers(-5, 5),
)
@settings(max_examples=100, deadline=None)
def test_cli_near_and_beyond_double_range(k, sign, c, y, z):
    """Every point of size up to 2^1100 constructs and draws, or is
    rejected with exit 2; none raises."""
    p = f"--p={sign * 2**k + c}:{y}:{z}"
    for command in ("construct", "svg"):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run([command, p])
        assert code in (0, 2), err.getvalue()
        if code == 0 and command == "svg":
            ElementTree.fromstring(out.getvalue())


def test_construct_report_of_a_long_point_is_written(tmp_path):
    """The report of a point within parse_point's digit limit is written
    under a str limit lifted for the report alone, then restored."""
    limit = sys.get_int_max_str_digits()
    out = tmp_path / "report.json"
    assert run(["construct", f"--p={'7' * 3000}:2:3", "--out", str(out)]) == 0
    assert sys.get_int_max_str_digits() == limit
    text = out.read_text()
    assert max(map(len, re.findall(r"\d+", text))) > limit  # the lift was needed
    report = json.loads(text)
    assert Point.parse(report["points"]["P"]["bary"]) == Point(int("7" * 3000), 2, 3)


def test_construct_report_beyond_the_lifted_limit_names_the_flag(capsys, monkeypatch):
    """The lift covers every number the point grows (see the test below), so
    a report that overflows even so is blamed on --triangle, at the lifted
    limit."""
    def too_long(cs, tri):
        raise ValueError("Exceeds the limit for integer string conversion")

    limit = sys.get_int_max_str_digits()
    monkeypatch.setattr("cevian.cli.construction_report", too_long)
    assert run(["construct", f"--p={'7' * 1000}:2:3"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --triangle is too large")
    assert str(16 * 1002) in err  # 16 times the digits of --p
    assert "Traceback" not in err
    assert sys.get_int_max_str_digits() == limit


def _report_bound_points():
    """32 points of 4 to 4096 bits over Q and Q(sqrt(d)), with and without
    denominators and irrational leads.  An irrational lead is made rational
    by its conjugate, which doubles its digits: the lead 1/c + b*sqrt(6)
    grows the longest report numbers for its digits."""
    rng = random.Random("report-bound")
    points = []
    for bits in (4, 64, 1024, 4096):
        def n():
            return rng.getrandbits(bits - 1) | 1 << (bits - 1)

        points += [
            f"{n()}:{n()}:{n()}",
            f"{n()}:2:3",
            f"1/{n()}:1/{n()}:1/{n()}",
            f"{n()}/{n()}:2:3",
            f"{format_number(n(), n(), 6)}:2:3",
            f"{format_number(1, n(), 6)}:2:3",
            f"{format_number(Fraction(1, n()), n(), 6)}:2:3",
            f"{format_number(n(), n(), 1610924047)}:2:3",
        ]
    return points


def test_construct_report_numbers_stay_within_the_lift(capsys):
    """A member is a form of degree at most 8 (MEMBER_DEGREES) in the
    canonical ints of p, so a report number has at most about 10 times the
    digits of --p (9.98 at the worst of these points).  A bound of 12 fails
    well before a grown member could reach the 16 times the str limit is
    lifted to, which `construct` rests on when it blames an overflowing
    report on --triangle alone."""
    for text in _report_bound_points():
        assert run(["construct", f"--p={text}"]) == 0, text[:40]
        digits = sum(map(str.isdigit, text))
        longest = max(map(len, re.findall(r"\d+", capsys.readouterr().out)))
        if digits >= 50:
            assert longest <= 12 * digits, (text[:40], longest / digits)


def test_construct_report_of_a_long_triangle_number_names_the_flag(capsys):
    """1e-4300 parses (its exponent is within the str limit), but the report
    writes it back with a denominator of 4301 digits: --triangle is blamed."""
    limit = sys.get_int_max_str_digits()
    assert run(["construct", "--p=1:2:3", "--triangle=0,0;1e-4300,0;0,1"]) == 2
    err = capsys.readouterr().err
    assert err == "error: --triangle is too large: its report needs numbers of over 4300 digits\n"
    assert sys.get_int_max_str_digits() == limit


def test_point_with_too_many_digits_names_the_flag(capsys):
    assert run(["construct", f"--p={'7' * 5000}:2:3"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: --p ")
    assert str(sys.get_int_max_str_digits()) in err
    assert len(err) < 200


def test_direction_beyond_double_range_is_scaled():
    tri = RenderTriangle.default()
    assert direction_to_xy(Point(1, -3, 2), tri) == (-3.0, 2.0)
    dx, dy = direction_to_xy(Point(2**1100, -3 * 2**1100 - 1, 2**1101 + 1), tri)
    assert dx < 0 < dy
    assert abs(dx / dy + 1.5) < 1e-12


def test_construct_sideline_exit_code(capsys):
    assert run(["construct", "--p", "0:1:2"]) == 2
    err = capsys.readouterr().err
    assert "on_sideline" in err


def test_hard_degeneracies_name_their_flags(capsys):
    """Each hard degeneracy names the DegeneracyReport field of its locus,
    which the CLI prints."""
    assert run(["construct", "--p", "1:-1:5"]) == 2
    assert capsys.readouterr().err == (
        "degenerate input (on_anticomplementary_sideline): "
        "(1 : -1 : 5) lies on a sideline of the anticomplementary triangle\n"
    )
    flags = [cls.flag for cls in HardDegeneracy.__subclasses__()]
    assert sorted(flags) == ["on_anticomplementary_sideline", "on_sideline"]
    assert set(flags) <= set(DegeneracyReport._fields)


def test_construct_median_absences(tmp_path):
    out = tmp_path / "report.json"
    assert run(["construct", "--p", "1:1:2", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["absent"]["feuerbach_point"] == "on_median"
    assert "Z" not in report["points"]
    assert report["flags"]["on_median"]


def test_construct_centroid(tmp_path):
    out = tmp_path / "report.json"
    assert run(["construct", "--p", "1:1:1", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["points"]["H"]["bary"] == "(1 : 1 : 1)"
    assert report["absent"]["feuerbach_point"] == "on_median"
    assert "Z" not in report["points"]


def test_construct_steiner_infinite_marker(tmp_path):
    out = tmp_path / "report.json"
    assert run(["construct", "--p", "3:6:-2", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["points"]["Q"]["infinite"] is True
    assert "direction" in report["render"]["points"]["Q"]


def test_construct_bad_point():
    assert run(["construct", "--p", "1:2"]) == 2
    assert run(["construct", "--p", "1:banana:2"]) == 2


@pytest.mark.parametrize("command", ["construct", "svg"])
@pytest.mark.parametrize(
    "flag",
    [
        "--p=\u0663:2:5",
        "--p=1:1+\uff12*sqrt(\u0662):2",
        "--p=2:3:6\u0665",
        "--triangle=0,0;\u0661,0;0,1",
        "--triangle=0,0;1,0;0,\uff11/\uff13",
    ],
)
def test_non_ascii_digits_are_input_errors(capsys, command, flag):
    """Numbers are written in ASCII digits: Python's int() and Fraction()
    read other Unicode digits too, which the parsers must not pass on."""
    args = [command, flag] if flag.startswith("--p") else [command, "--p=2:3:6", flag]
    assert run(args) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")


@pytest.mark.parametrize("command", ["construct", "svg"])
@pytest.mark.parametrize("triangle", ["0,0;1,1;2,2", "1/3,1/3;2/3,2/3;1,1", "-1,2;0,0;1/2,-1"])
def test_construct_degenerate_triangle(capsys, command, triangle):
    """Collinear vertices, fractional and negative ones included, are
    refused on the triangle's integer sideline rows."""
    assert run([command, "--p=2:3:6", f"--triangle={triangle}"]) == 2
    assert capsys.readouterr().err == "error: triangle vertices are collinear\n"


@pytest.mark.parametrize("command", ["construct", "svg"])
@pytest.mark.parametrize("vertex", ["nan,0", "0,inf", "-Infinity,1", "a,1", "1/2/3,0", "1,"])
def test_vertex_that_is_not_a_number_is_named(capsys, command, vertex):
    """A vertex Fraction cannot read is an input error that names the
    vertex, as a zero denominator is."""
    assert run([command, "--p=2:3:6", f"--triangle=0,0;{vertex};0,1"]) == 2
    assert capsys.readouterr().err == f"error: malformed vertex {vertex!r}\n"


@pytest.mark.parametrize("command", ["construct", "svg"])
@pytest.mark.parametrize("triangle", ["0,0;1e400,0;0,1", "0,0;1e308,0;0,1", "0,0;1/3,0;0,10e305"])
def test_triangle_beyond_draw_limit(capsys, command, triangle):
    """A vertex beyond the figure's drawable range is rejected, whether or
    not it is beyond the double range."""
    assert run([command, "--p=2:3:6", f"--triangle={triangle}"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")


@pytest.mark.parametrize("exponent", ["e-20000000", "e2000000", "E+0_0_99999"])
@pytest.mark.parametrize("command", ["construct", "svg", "config"])
def test_triangle_exponent_beyond_the_str_limit(tmp_path, capsys, command, exponent):
    """Fraction expands an exponent in time that grows with it: a vertex
    whose exponent has more digits than the str limit is refused on the
    text, by name, before that."""
    triangle = f"0,0;1{exponent},0;0,1"
    if command == "config":
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"p = 2:3:6\ntriangle = {triangle}\n")
        args = ["--config", str(cfg), "svg"]
    else:
        args = [command, "--p=2:3:6", f"--triangle={triangle}"]
    start = time.perf_counter()
    assert run(args) == 2
    assert time.perf_counter() - start < 3
    err = capsys.readouterr().err
    assert err == "error: vertex 2 has an exponent beyond 4300 (the str limit)\n"


def test_triangle_exponents_within_the_limit_parse():
    tri = RenderTriangle.parse("0,0;1e-5,0;0,2.5e3")
    assert tri.vertices()[1:] == ((Fraction(1, 100000), 0), (0, 2500))


_VERTEX_COORDINATE = st.builds(
    lambda sign, k: sign * 2**k,
    st.sampled_from([1, -1]),
    st.integers(0, 1100) | st.integers(1005, 1015),  # the draw limit is near 2^1011
)


@given(st.lists(_VERTEX_COORDINATE, min_size=6, max_size=6))
@settings(max_examples=60, deadline=None)
def test_triangle_near_and_beyond_double_range(coords):
    """Every triangle with vertices of size up to 2^1100 draws, or is
    rejected with exit 2; none raises."""
    tri = "--triangle=" + ";".join(f"{x},{y}" for x, y in zip(coords[::2], coords[1::2]))
    for command in ("construct", "svg"):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run([command, "--p=2:3:6", tri])
        assert code in (0, 2), err.getvalue()
        if code == 0 and command == "svg":
            svg = out.getvalue()
            ElementTree.fromstring(svg)
            assert "nan" not in svg.lower() and "inf" not in svg.lower()


def test_construct_zero_denominator_is_input_error():
    assert run(["construct", "--p", "1/0:1:1"]) == 2
    assert run(["construct", "--p", "2:3:6", "--triangle", "1/0,0;1,0;0,1"]) == 2


def test_construct_unfactorable_d_is_input_error(capsys):
    d = 72057594037928017 * 144115188075855881  # primes of 57 and 58 bits
    start = time.perf_counter()
    assert run(["construct", "--p", f"1:1+1*sqrt({d}):2"]) == 2
    assert time.perf_counter() - start < 10
    err = capsys.readouterr().err
    assert err.startswith("error: bad point") and str(d) in err


def test_unreadable_config_is_input_error(tmp_path, capsys):
    missing = tmp_path / "missing.cfg"
    assert run(["--config", str(missing), "construct", "--p", "2:3:6"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def test_config_file_that_is_not_utf8_names_the_file(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"\xff\xfe")
    assert run(["--config", str(cfg), "locus"]) == 2
    assert capsys.readouterr().err == (
        f"error: cannot read {cfg}: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte\n"
    )


def test_unwritable_out_is_input_error(tmp_path, capsys):
    out = tmp_path / "missing-dir" / "x.json"
    assert run(["construct", "--p", "2:3:6", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["construct", "svg"])
@pytest.mark.parametrize(
    "flag, value", [("--p", "-5:3:7"), ("--triangle", "-1,0;1,0;0,1")]
)
def test_negative_value_after_space(tmp_path, command, flag, value):
    """A separate value with a leading minus reads like the "=" form."""
    base = [command] + (["--p", "2:3:6"] if flag != "--p" else [])
    spaced, joined = tmp_path / "spaced", tmp_path / "joined"
    assert run(base + [flag, value, "--out", str(spaced)]) == 0
    assert run(base + [f"{flag}={value}", "--out", str(joined)]) == 0
    assert spaced.read_text() == joined.read_text()


def test_verify_exit_zero(tmp_path):
    out = tmp_path / "verify.json"
    code = run(["verify", "--seed", "3", "--count", "2", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["command"] == "verify"
    assert report["seed"] == 3 and report["count"] == 2
    assert all(
        entry["status"] in ("pass", "skip") for entry in report["results"]
    )


def test_verify_check_filter(tmp_path):
    out = tmp_path / "verify.json"
    code = run(
        [
            "verify", "--seed", "1", "--count", "1",
            "--check", "gen_feuerbach_tangency", "--out", str(out),
        ]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert {r["check_id"] for r in report["results"]} == {"gen_feuerbach_tangency"}


@pytest.mark.parametrize("count", ["10001", str(10**12)])
def test_verify_count_beyond_the_sample_limit_exits_at_once(capsys, count):
    start = time.perf_counter()
    assert run(["verify", "--count", count]) == 2
    assert time.perf_counter() - start < 3
    assert capsys.readouterr().err == "error: count must be at most 10000\n"


def test_verify_unknown_check():
    assert run(["verify", "--count", "1", "--check", "bogus"]) == 2


def test_locus_report(tmp_path):
    out = tmp_path / "locus.json"
    assert run(["locus", "--vertex", "A", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["matrix"] == "[[2, -1, -1], [-1, 0, -1], [-1, -1, 0]]"
    assert report["center"] == "(1 : 3 : 3)"
    assert report["polar_of_vertex"] == "[2 : -1 : -1]"
    assert report["excluded_points"] == ["B", "C", "E0", "F0"]


def test_svg_element_inventory(tmp_path):
    out = tmp_path / "fig.svg"
    assert run(["svg", "--p", "2:3:6", "--preset", "fig2", "--out", str(out)]) == 0
    svg = out.read_text()
    for ident in (
        'id="conic-ninepoint-conic-iso"',
        'id="conic-circumconic"',
        'id="conic-ninepoint-conic"',
        'id="conic-inconic"',
        'id="point-Z"',
        'id="point-S"',
        'id="triangle"',
    ):
        assert ident in svg
    assert "nan" not in svg.lower()
    assert "inf" not in svg.lower().replace("infinity", "")


@pytest.mark.parametrize("tri", ["0,0;1,0;7/20,4/5", "-1/3,2;7,1/9;3,-5"])
@pytest.mark.parametrize("p", [Point(2, 3, 6), Point(7, 3, 2), Point(5, -3, 9)])
def test_sampled_conics_lie_on_their_conics(p, tri):
    """Every drawn point of every named conic satisfies the conic's float
    matrix up to rounding: |X^T M X| is below 1e-12 of the sum of the
    absolute values of its terms."""
    tri = RenderTriangle.parse(tri)
    steiner = ("steiner", "S_E", steiner_circumellipse(), Point(-2, -2, 1), "G")
    rows = named_conics(construct(p)) + [steiner]
    for slug, _, conic, seed, _ in rows:
        m = conic_cartesian_matrix(conic, tri)
        sampled = 0
        for segment in sample_conic(conic, seed, tri, (0.0, 0.0), clip=1e3):
            for x, y in segment:
                v = (x, y, 1.0)
                terms = [m[i][j] * v[i] * v[j] for i in range(3) for j in range(3)]
                assert abs(sum(terms)) < 1e-12 * sum(map(abs, terms)), (slug, x, y)
                sampled += 1
        assert sampled > 100, slug


def test_svg_deterministic(tmp_path):
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    run(["svg", "--p", "5:3:9", "--preset", "fig1", "--out", str(a)])
    run(["svg", "--p", "5:3:9", "--preset", "fig1", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def _svg(*args):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run(["svg", "--p=2:3:6", "--preset=fig2", *args]) == 0
    return out.getvalue()


@pytest.mark.parametrize(
    "moved, at_origin",
    [
        ("1000,0;1001,0;1000,1", "0,0;1,0;0,1"),
        ("-50,0;-49,0;-50,1", "0,0;1,0;0,1"),
        ("100,100;105,100;103.2,102.4", "0,0;5,0;3.2,2.4"),
    ],
)
def test_svg_draws_the_conics_of_a_translated_triangle(moved, at_origin):
    """Conic samples are clipped around the figure's center, not the
    origin: a translated triangle draws every polyline it draws at home."""
    drawn = _svg(f"--triangle={at_origin}").count("<polyline")
    assert drawn == 4
    assert _svg(f"--triangle={moved}").count("<polyline") == drawn


def test_svg_scales_a_small_triangle_to_the_figure():
    """A figure's padding grows with its own extent, not from 1.0: the
    triangle 100 times smaller fills the same pixels."""

    def triangle_px(tri):
        polygon = re.search(r'<g id="triangle"><polygon points="([^"]*)"', _svg(f"--triangle={tri}"))
        return [float(c) for xy in polygon.group(1).split() for c in xy.split(",")]

    small, unit = triangle_px("0,0;0.01,0;0,0.01"), triangle_px("0,0;1,0;0,1")
    assert max(unit) - min(unit) > 400
    assert small == pytest.approx(unit, abs=1e-3)


@pytest.mark.parametrize("tri", ["0,0;1e-306,0;0,1e-306", "0,0;1e-320,0;0,1e-320", "0,0;1e-400,0;0,1e-400"])
def test_svg_of_a_triangle_too_small_to_scale(tri):
    """An extent whose scale to the figure's width would overflow draws at
    the unit extent: no coordinate of the figure is infinite."""
    svg = _svg(f"--triangle={tri}")
    ElementTree.fromstring(svg)
    assert "nan" not in svg.lower() and "inf" not in svg.lower().replace("infinity", "")


@pytest.mark.parametrize(
    "tri", ["0,0;1e-8,0;0,1e-8", "0,0;1e-10,0;0,1e-10", "0,0;1e-100,0;0,1e-100", "0,0;1e100,0;0,1e100"]
)
def test_svg_draws_every_conic_at_any_scale(tri):
    """A scaled triangle draws the unit triangle's 9 conic polylines: 3 of
    the cevian conic and 1 of each of the other six."""
    groups = _svg("--preset=all", f"--triangle={tri}").split('<g id="conic-')[1:]
    assert len(groups) == 7
    assert sum(g.split("</g>")[0].count("<polyline") for g in groups) == 9


def test_svg_infinite_point_arrow(tmp_path):
    out = tmp_path / "steiner.svg"
    assert run(["svg", "--p", "3:6:-2", "--preset", "fig2", "--out", str(out)]) == 0
    svg = out.read_text()
    assert "marker-end" in svg
    assert "&#8734;" in svg  # infinity glyph on the arrow label


def test_svg_z_locus_layer(tmp_path):
    out = tmp_path / "locus.svg"
    assert (
        run(["svg", "--p", "2:3:6", "--preset", "fig3", "--z-locus", "--out", str(out)])
        == 0
    )
    assert 'id="z-locus"' in out.read_text()


def test_z_locus_refuses_an_infinite_point_by_name(capsys):
    """The sweep moves p/w, so it needs a finite p; the svg itself draws an
    infinite p as an arrow."""
    assert run(["svg", "--p", "1:2:-3", "--z-locus"]) == 2
    err = capsys.readouterr().err
    assert err == "error: --z-locus sweeps from a finite p, and (1 : 2 : -3) is at infinity\n"
    assert run(["svg", "--p", "1:2:-3"]) == 0


def test_svg_bad_preset():
    # argparse rejects the choice itself, with the same exit code
    with pytest.raises(SystemExit) as exc:
        run(["svg", "--p", "2:3:6", "--preset", "fig9"])
    assert exc.value.code == 2


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# sample configuration\np = 2:3:6\npreset = fig1\n")
    out = tmp_path / "fig.svg"
    code = run(["--config", str(cfg), "svg", "--out", str(out)])
    assert code == 0
    assert 'id="conic-ninepoint-conic-iso"' in out.read_text()
    # flags override the file
    out2 = tmp_path / "fig2.svg"
    code = run(["--config", str(cfg), "svg", "--preset", "fig3", "--out", str(out2)])
    assert code == 0
    assert 'id="conic-steiner"' in out2.read_text()


def test_config_file_with_a_byte_order_mark(tmp_path):
    """A file saved with a UTF-8 byte order mark, and CRLF line ends, reads
    as one without."""
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"\xef\xbb\xbfp = 2:3:6\r\n")
    assert run(["--config", str(cfg), "construct"]) == 0


def test_config_line_without_equals_names_its_line(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# a figure\np = 2:3:6\nno equals sign\n")
    assert run(["--config", str(cfg), "construct"]) == 2
    assert capsys.readouterr().err == f"error: {cfg}:3: expected key = value\n"


def test_config_file_unknown_key(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("palette = mondrian\n")
    assert run(["--config", str(cfg), "locus"]) == 2


@pytest.mark.parametrize("line, key", [("seed = x", "seed"), ("count = 2.5", "count")])
def test_config_value_that_does_not_convert_names_its_key(tmp_path, capsys, line, key):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    assert run(["--config", str(cfg), "verify"]) == 2
    err = capsys.readouterr().err
    assert str(cfg) in err and repr(key) in err


@pytest.mark.parametrize("key", ["seed", "count"])
@pytest.mark.parametrize("digit", ["\u0663", "\uff11"])  # an Arabic-Indic 3, a full-width 1
def test_seed_and_count_refuse_non_ascii_digits(tmp_path, capsys, key, digit):
    """Numbers are written in ASCII digits, as a flag and as a config key."""
    with pytest.raises(SystemExit) as exc:
        run(["verify", f"--{key}", digit])
    assert exc.value.code == 2
    assert f"argument --{key}: expected an integer in ASCII digits" in capsys.readouterr().err
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = {digit}\n", encoding="utf-8")
    assert run(["--config", str(cfg), "verify"]) == 2
    assert capsys.readouterr().err == (
        f"error: {cfg}: bad value for {key!r}: expected an integer in ASCII digits, not {digit!r}\n"
    )


@pytest.mark.parametrize("value, drawn", [("no", False), ("NO", False), ("0", False), ("Yes", True), ("true", True)])
def test_config_z_locus_reads_a_boolean(tmp_path, value, drawn):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"p = 2:3:6\nz_locus = {value}\n")
    out = tmp_path / "fig.svg"
    assert run(["--config", str(cfg), "svg", "--out", str(out)]) == 0
    assert ('id="z-locus"' in out.read_text()) == drawn


@pytest.mark.parametrize("value", ["ture", "on", "2", ""])
def test_config_z_locus_that_is_not_a_boolean_exits_2(tmp_path, capsys, value):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"p = 2:3:6\nz_locus = {value}\n")
    out = tmp_path / "fig.svg"
    assert run(["--config", str(cfg), "svg", "--out", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err == (
        f"error: {cfg}: bad value for 'z_locus': expected 1, true, yes, 0, false or no, not {value!r}\n"
    )


def test_config_file_missing_point(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("preset = fig1\n")
    assert run(["--config", str(cfg), "svg"]) == 2


# -- one parser for every call in a process ------------------------------------------


def test_parser_is_built_once_and_calls_stay_independent(tmp_path, capsys, monkeypatch):
    """`main` may run many times in one process: its parser is built once,
    and nothing one call parses or reads from a config file reaches the next."""
    first = (run(["construct", "--p", "2:3:6"]), capsys.readouterr())
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    assert run(["locus"]) == 0
    assert run(["construct", "--p", "2:3:6"]) == 0
    assert built == []
    capsys.readouterr()

    # an appended --check list does not outlive its call
    one, every = tmp_path / "one.json", tmp_path / "every.json"
    assert run(["verify", "--check", "lambda_maps", "--count", "1", "--out", str(one)]) == 0
    assert run(["verify", "--count", "1", "--out", str(every)]) == 0
    assert {r["check_id"] for r in json.loads(one.read_text())["results"]} == {"lambda_maps"}
    assert {r["check_id"] for r in json.loads(every.read_text())["results"]} == set(REGISTRY)
    assert len(REGISTRY) == 26

    # nor does a value read from a config file
    cfg = tmp_path / "run.cfg"
    cfg.write_text("p = 2:3:6\n")
    assert run(["--config", str(cfg), "construct", "--out", str(tmp_path / "report.json")]) == 0
    capsys.readouterr()
    assert run(["construct"]) == 2
    assert capsys.readouterr().err == "error: a driving point is required (--p or config file)\n"

    for _ in range(3):
        assert run(["construct", "--p", "2:3:6"]) == 0
    capsys.readouterr()
    assert (run(["construct", "--p", "2:3:6"]), capsys.readouterr()) == first
    assert built == []


def test_a_command_patched_after_the_parser_is_built_runs(monkeypatch):
    """The shared parser holds no command function: `main` looks each one up
    by its module-level name when it runs."""
    assert run(["locus"]) == 0
    monkeypatch.setattr(cli, "cmd_locus", lambda args: 7)
    assert run(["locus"]) == 7


# -- verify at one point, and errors inside the suite --------------------------------


def test_verify_at_a_point(tmp_path):
    out = tmp_path / "verify.json"
    code = run(["verify", "--p", "2:3:6", "--check", "thm_HO_formula", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["p"] == "(2 : 3 : 6)"
    assert report["tallies"] == {"thm_HO_formula": {"pass": 1, "fail": 0, "skip": 0}}
    assert [r["check_id"] for r in report["results"]] == ["thm_HO_formula"]


def test_verify_summary_names_each_check_run_or_says_none_was(capsys):
    """The stderr summary lists the checks that passed or failed, and says
    so when every check was skipped, as at a point on a sideline."""
    assert run(["verify", "--p", "2:3:6", "--check", "thm_HO_formula"]) == 0
    assert capsys.readouterr().err == "checks passed: thm_HO_formula: 1/1\n"
    assert run(["verify", "--p", "0:1:1"]) == 0
    assert capsys.readouterr().err == "checks passed: none (every check skipped)\n"


def test_verify_replays_a_witness_from_its_config(tmp_path):
    """A suite result at a sampled point comes back as it was from
    verify --p with that point and that check."""
    suite_out, replay_out = tmp_path / "suite.json", tmp_path / "replay.json"
    assert run(["verify", "--seed", "5", "--count", "1", "--out", str(suite_out)]) == 0
    sampled = [r for r in json.loads(suite_out.read_text())["results"] if r["config"]["label"] == "sample-0"]
    assert len(sampled) == 26
    for result in sampled[:4]:
        args = ["verify", "--p", result["config"]["p"], "--check", result["check_id"]]
        assert run([*args, "--out", str(replay_out)]) == 0
        (replayed,) = json.loads(replay_out.read_text())["results"]
        assert replayed == {**result, "config": {**result["config"], "label": ""}}


def test_verify_at_a_point_parses_it_as_construct_does(capsys):
    assert run(["verify", "--p", "1:2"]) == 2
    assert capsys.readouterr().err == "error: bad point '1:2': malformed point '1:2'\n"
    assert run(["verify", "--p", "-5:3:7", "--check", "lambda_maps"]) == 0
    # a hard degeneracy is a skip, as in the suite
    assert run(["verify", "--p", "0:1:2", "--check", "lambda_maps"]) == 0
    # the printed form of a point, over Q(sqrt(d)) too, pastes as it is
    printed = str(parse_point("1:1+1*sqrt(6):-2+3*sqrt(6)"))
    assert printed.startswith("(") and "sqrt(6)" in printed
    assert run(["verify", "--p", printed, "--check", "eta_reflection"]) == 0


@pytest.mark.parametrize("bare", ["2:3:6", "1:1+1*sqrt(6):-2+3*sqrt(6)"])
def test_a_witness_point_pastes_into_every_command(capsys, bare):
    """Every --p reads a point as verify prints it, (x : y : z), and bare."""
    printed = str(parse_point(bare))
    assert printed == "(" + bare.replace(":", " : ") + ")"
    for command in (["construct"], ["svg", "--preset", "all"], ["verify", "--check", "lambda_maps"]):
        outputs = []
        for text in (printed, bare):
            assert run([*command, "--p", text]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1], command


def test_verify_at_a_large_point_prints_its_witnesses():
    """verify --p lifts the str limit for its witnesses as construct does
    for its report: a 4096-bit point passes, with no internal error."""
    top = 3**2584
    assert run(["verify", f"--p={top}:{top + 2}:-{top // 7}", "--check", "lambda_maps"]) == 0


def test_verify_reports_an_internal_error_and_exits_1(tmp_path, monkeypatch):
    from cevian import constructions

    right = constructions._orthocenter
    monkeypatch.setattr(
        constructions,
        "_orthocenter",
        lambda p, e: Point(1, 2, 3) if p == Point(21, 24, 28) else right(p, e),
    )
    for args in (["--seed", "42", "--count", "2"], ["--p", "21:24:28"]):
        out = tmp_path / "verify.json"
        assert run(["verify", *args, "--out", str(out)]) == 1
        failed = [r for r in json.loads(out.read_text())["results"] if r["status"] == "fail"]
        assert len(failed) == 26
        assert {r["witness"]["raised_in"] for r in failed} == {"cevian.constructions"}


@pytest.mark.parametrize(
    "p", ["2:3:6", "5:-2:9", "1:1:2", "1:1:1", "3:6:-2", "1:2:-3", "6:3:2", "1:1+1*sqrt(6):-2+3*sqrt(6)"]
)
def test_report_reads_each_center_off_a_member(p):
    """Every center the construct report prints is the conic's own center."""
    cs = construct(parse_point(p))
    report = construction_report(cs, RenderTriangle.default())
    conics = {slug: conic for slug, _, conic, _, _ in named_conics(cs)}
    centered = {slug for slug, entry in report["conics"].items() if "center" in entry}
    for slug in centered:
        assert report["conics"][slug]["center"] == str(conics[slug].center()), slug
    if not cs.flags.on_median:
        assert centered == set(conics)


# -- the construct report against its reference path ---------------------------------


def _reference_render(p, tri):
    """The render entry of a point through the triangle's vertices read
    afresh and, for an ordinary point, the conjugate product of its
    coordinate sum w, at every d."""
    den = lcm(*[c.denominator for v in tri.vertices() for c in v])
    xy = [
        zsum([zscale(c.numerator * (den // c.denominator), v) for c, v in zip(axis, p.ints)])
        for axis in zip(*tri.vertices())
    ]
    if p.is_infinite():
        return {"direction": _floats_up_to_scale(p.d, xy, den)}
    d, (a, b) = p.d, p._weight()
    norm = a * a - b * b * d
    conj = (a, -b) if norm > 0 else (-a, b)
    return {"xy": [_float(*zmul(v, conj, d), d, den * abs(norm)) for v in xy]}


def _reference_report(cs, tri):
    """construction_report with every string formatted from its own member,
    the conic centers and input.p included, and every position through
    _reference_render."""
    points = {}
    for slug, label, p in named_points(cs):
        if p is not None:
            points[slug] = {"label": label, "bary": str(p), "infinite": p.is_infinite()}
    centers = {
        "cevian-conic": cs.feuerbach_point,
        "circumconic": cs.circumcenter,
        "inconic": cs.q,
        "inconic-iso": cs.q_iso,
        "ninepoint-conic": cs.ninepoint_center,
        "ninepoint-conic-iso": complement(cs.q),
    }
    conics = {}
    for slug, label, conic, _seed, _center in named_conics(cs):
        if conic is None:
            continue
        degenerate = conic.is_degenerate()
        conics[slug] = {"label": label, "matrix": str(conic), "degenerate": degenerate}
        if not degenerate:
            conics[slug]["center"] = str(centers[slug])
    return {
        "schema_version": SCHEMA_VERSION,
        "command": "construct",
        "input": {
            "p": str(cs.p),
            "triangle": [[str(v[0]), str(v[1])] for v in tri.vertices()],
            "extension_d": cs.p.d,
        },
        "flags": {
            "on_sideline": cs.flags.on_sideline,
            "on_anticomplementary_sideline": cs.flags.on_anticomplementary_sideline,
            "on_median": cs.flags.on_median,
            "on_steiner_circumellipse": cs.flags.on_steiner_circumellipse,
            "h_is_vertex": cs.flags.h_is_vertex,
        },
        "absent": dict(sorted(cs.absent.items())),
        "points": points,
        "conics": conics,
        "maps": {name: str(m) for name, m in named_maps(cs) if m is not None},
        "render": {
            "triangle": [[float(x), float(y)] for x, y in tri.vertices()],
            "points": {
                slug: _reference_render(p, tri) for slug, _, p in named_points(cs) if p is not None
            },
        },
    }


def _entries(bits):
    """Ints of exactly `bits` bits, of either sign, and 0."""
    magnitudes = st.integers(0, (1 << bits - 1) - 1).map(lambda n: n | 1 << bits - 1)
    return st.builds(lambda n, sign: sign * n, magnitudes, st.sampled_from((1, -1, 0)))


@st.composite
def report_points(draw):
    """The text of a point over Q, Q(sqrt(2)) or Q(sqrt(6)) with entries of
    up to 1024 bits: generic, on a median (absent members, a degenerate
    cevian conic), on the Steiner circumellipse (Q at infinity) or at
    infinity."""
    d = draw(st.sampled_from((1, 1, 2, 6)))
    entry = _entries(1 << draw(st.integers(1, 10)))
    pair = st.tuples(entry, entry if d > 1 else st.just(0))
    x, y, z = draw(st.tuples(pair, pair, pair))
    shape = draw(st.sampled_from(("generic", "median", "steiner", "infinite")))
    if shape == "median":
        y = x
    elif shape == "steiner":
        s = zsum((x, y))
        x, y, z = zmul(x, s, d), zmul(y, s, d), zscale(-1, zmul(x, y, d))
    elif shape == "infinite":
        z = zscale(-1, zsum((x, y)))
    return ":".join(format_number(a, b, d) for a, b in (x, y, z))


_SMALL_FRACTION = st.fractions(min_value=-10, max_value=10, max_denominator=12)


@given(report_points(), st.none() | st.tuples(*[_SMALL_FRACTION] * 6))
@example("1:2:-5", None)  # E = (1 : 0 : -5): w = -4 and x = 0, which is not -0.0
@example("2:3:6", (0, 0, 5, 0, Fraction(16, 5), Fraction(12, 5)))
@example("1:1:2", (Fraction(-1, 3), 2, 7, Fraction(1, 9), 3, -5))
@example("3:6:-2", None)
@example("1:1+1*sqrt(6):-2+3*sqrt(6)", (0, 0, Fraction(1, 2), 0, 0, 3))
@settings(max_examples=80, deadline=None)
def test_report_equals_its_reference_path(text, coords):
    """The construct report reads its centers and input.p off the point
    entries and its positions off the triangle's one integer frame; its
    JSON text is that of the report made the long way."""
    tri = RenderTriangle.default()
    if coords is not None:
        tri = RenderTriangle(*zip(map(Fraction, coords[::2]), map(Fraction, coords[1::2])))
        assume(sum(w for _, _, w in tri.sidelines) != 0)
    try:
        cs = construct(parse_point(text))
    except (cli.InputError, GeometryError):  # the zero tuple, a sideline
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        assert json.dumps(construction_report(cs, tri), indent=2) == json.dumps(
            _reference_report(cs, tri), indent=2
        )
    finally:
        sys.set_int_max_str_digits(limit)


# -- an output that cannot be written, and the CLI gate ---------------------------------


def _outcome(argv, out):
    """(exit code, stdout, stderr, the --out file's text) of one call of
    main, a JSON report parsed with a suite's elapsed_seconds taken out; a
    usage error's SystemExit gives its code."""
    out.unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    text = out.read_text() if out.exists() else None
    if text is not None and text.startswith("{"):
        text = json.loads(text)
        text.pop("elapsed_seconds", None)
    return code, stdout.getvalue(), stderr.getvalue(), text


def _src_env():
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


@pytest.mark.parametrize("command", [["construct", "--p", "2:3:6"], ["locus"]])
def test_closed_stdout_is_an_output_error(command):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "cevian", *command],
            stdout=write_end, stderr=subprocess.PIPE, env=_src_env(), text=True, timeout=60,
        )
    finally:
        os.close(write_end)
    assert done.returncode == 2
    assert done.stderr == "error: cannot write standard output: Broken pipe\n"


def test_render_figures_script_writes_its_five_figures(tmp_path):
    """scripts/render_figures.py, the sqrt(2) figure included, exits 0 and
    writes one well-formed SVG per figure into the directory it is given.
    It runs isolated (-I: no PYTHONPATH, no user site), as from a fresh
    checkout with the package not installed."""
    script = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "render_figures.py"
    done = subprocess.run(
        [sys.executable, "-I", "-B", str(script), str(tmp_path)],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    names = {
        "fig1-generic", "fig2-generic", "fig3-tangency-with-locus", "steiner-collapse", "sqrt2-special"
    }
    assert {path.name for path in tmp_path.iterdir()} == {f"{name}.svg" for name in names}
    for path in tmp_path.iterdir():
        assert ElementTree.parse(path).getroot().tag == f"{SVG_NS}svg"


class _BrokenStream(io.StringIO):
    """A replaced sys.stdout whose reader has gone, with no file descriptor."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_unwritable_replaced_stdout_is_an_output_error():
    """A stream that stands in for stdout in-process fails the same way,
    and the process's own descriptor 1 is left as it was."""
    before, err = os.fstat(1), io.StringIO()
    with contextlib.redirect_stdout(_BrokenStream()), contextlib.redirect_stderr(err):
        assert main(["locus"]) == 2
    assert err.getvalue() == "error: cannot write standard output: Broken pipe\n"
    after = os.fstat(1)
    assert (after.st_dev, after.st_ino) == (before.st_dev, before.st_ino)


# -- the CLI gate: every command, drawn inputs, one process ---------------------------


@st.composite
def gate_points(draw):
    """The text of a point over Q or Q(sqrt(d)) with entries of up to 4096
    bits, a point with one character replaced, or arbitrary text."""
    d = draw(st.sampled_from((1, 1, 2, 6, 1610924047)))
    entry = _entries(1 << draw(st.integers(1, 12)))
    pair = st.tuples(entry, entry if d > 1 else st.just(0))
    text = ":".join(format_number(a, b, d) for a, b in draw(st.tuples(pair, pair, pair)))
    kind = draw(st.sampled_from(("point", "point", "point", "edited", "text")))
    if kind == "edited":
        k = draw(st.integers(0, len(text) - 1))
        text = text[:k] + draw(st.sampled_from(":+-*/()e_., \u0663x")) + text[k + 1:]
    elif kind == "text":
        text = draw(st.text(st.sampled_from("0123456789:+-*/()sqrte_., ;\u0663"), max_size=24))
    return text


_GATE_TRIANGLES = st.sampled_from(
    ("0,0;5,0;16/5,12/5", "-1/3,2;7,1/9;3,-5", "0,0;1,0;2,0", "0,0;1e-4300,0;0,1", "1,2;3", "")
)
_GATE_CHECKS = st.sampled_from(sorted(REGISTRY) + ["no_such_check"])


@st.composite
def gate_commands(draw):
    """One argument list of construct, svg, verify --check, verify --p or
    locus, and the lines of a --config file for it (None for no file)."""
    command = draw(st.sampled_from(("construct", "svg", "verify-check", "verify-p", "locus")))
    p = ["--p=" + draw(gate_points())]
    if command == "construct":
        argv = ["construct", *p, *draw(st.lists(_GATE_TRIANGLES.map("--triangle={}".format), max_size=1))]
    elif command == "svg":
        flags = st.sampled_from(["--z-locus", "--preset=fig9", *(f"--preset={k}" for k in sorted(PRESETS))])
        argv = ["svg", *p, *draw(st.lists(flags, max_size=2))]
    elif command == "verify-check":
        argv = ["verify", "--count=1", f"--seed={draw(st.integers(-5, 5))}", "--check=" + draw(_GATE_CHECKS)]
    elif command == "verify-p":
        argv = ["verify", *p, "--check=" + draw(_GATE_CHECKS)]
    else:
        argv = ["locus", *draw(st.lists(st.sampled_from(["--vertex=B", "--vertex=C", "--vertex=D"]), max_size=1))]
    lines = draw(st.none() | st.lists(
        st.sampled_from((
            "p = 2:3:6", "p = 1:2", "triangle = 0,0;5,0;16/5,12/5", "triangle = 0,0;1,0",
            "seed = 7", "seed = x", "count = 1", "count = 0", "check = lambda_maps, eta_reflection",
            "check = nope", "field_policy = rational", "vertex = C", "vertex = D", "preset = fig1",
            "preset = fig9", "z_locus = yes", "colour = red", "no equals sign", "# a comment", "",
        )),
        max_size=4,
    ))
    if lines is not None and draw(st.booleans()):
        del argv[1:]  # the file alone gives the values
    return argv, lines


_TOP = 3**2584  # 4096 bits, the top of the drawn sizes, which draws seldom reach


@given(gate_commands())
@example((["construct", f"--p={_TOP}:{_TOP + 2}:-{_TOP // 7}"], None))
@example((["svg", f"--p={_TOP}:{_TOP + 2}:-{_TOP // 7}", "--z-locus"], None))
@example((["verify", f"--p={_TOP}+{_TOP // 5}*sqrt(2):3-1*sqrt(2):-5", "--check=lambda_maps"], None))
@settings(max_examples=40, deadline=None)
def test_every_command_exits_with_a_documented_code(case):
    """In one process, each command exits 0, or 2 for a malformed input or
    a hard degeneracy, or 1 when a check fails, and raises nothing else."""
    argv, lines = case
    with tempfile.TemporaryDirectory() as tmp:
        if lines is not None:
            cfg = pathlib.Path(tmp, "run.cfg")
            cfg.write_text("\n".join(lines) + "\n", encoding="utf-8")
            argv = ["--config", str(cfg), *argv]
        code, stdout, stderr, _ = _outcome(argv, pathlib.Path(tmp, "unused"))
    assert "Traceback" not in stderr
    if code == 1:  # a claim failed: no construction or check raised an error of its own
        assert "verify" in argv
        failed = [r for r in json.loads(stdout)["results"] if r["status"] == "fail"]
        assert failed and not any("raised_in" in r["witness"] for r in failed), (argv, failed)
    else:
        assert code in (0, 2), (argv, code, stderr)


# -- the JSON writer ---------------------------------------------------------------

_JSON_TEXT = st.text(
    st.one_of(st.characters(), st.sampled_from('"\\\x00\x1f\x7f\u2028\ud800\U0001f600'))
)
_JSON_LEAVES = st.one_of(
    _JSON_TEXT,
    st.integers(),
    st.integers(-(10**4000), 10**4000),
    st.floats(),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 5e-324, 1e300]),
    st.booleans(),
    st.none(),
)
_JSON_VALUES = st.recursive(
    _JSON_LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_JSON_TEXT, children, max_size=4),
    ),
    max_leaves=20,
)


@given(_JSON_VALUES)
@settings(max_examples=300, deadline=None)
@example({})
@example([])
@example({"a": [(), {}, [[]]], "": None})
def test_json_text_is_json_dumps_with_indent_2(value):
    """Every report is written by _json_text, which gives what json.dumps
    with indent=2 gives, byte for byte: over non-ASCII, quoted, escaped and
    control characters, ints of thousands of digits, every special float,
    tuples and empty containers."""
    assert cli._json_text(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize(
    "value", [Scalar.parse("1+1*sqrt(2)"), {1, 2}, {1: "a"}, {"ok": [{(1, 2): 0}]}]
)
def test_json_text_refuses_what_no_report_holds(value):
    """A value json cannot write raises TypeError as in json.dumps, and so
    does a key that is not a str, which json.dumps would turn into one."""
    with pytest.raises(TypeError):
        cli._json_text(value)
