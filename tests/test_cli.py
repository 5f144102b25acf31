import json
import pathlib
import time

import pytest

from cevian.cli import main
from cevian.projective import AffineMap, Line, Point
from cevian.conics import Conic

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"


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
        parsed = Conic.parse(entry["matrix"])
        assert str(parsed) == entry["matrix"]
    for text in report["maps"].values():
        assert str(AffineMap.parse(text)) == text


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
        (Conic, "[[1, 2, 0], [0, 1, 0], [0, 0, 1]]"),
        (Conic, "[[1, 0, 0], [0, 1, 0], [0, 0, 1]"),
        (Conic, "[[1, 0, 0], [0, 1+1/0*sqrt(2), 0], [0, 0, 1]]"),
    ],
)
def test_parse_rejects_malformed_text(cls, text):
    with pytest.raises(ValueError):
        cls.parse(text)


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


def test_construct_sideline_exit_code(capsys):
    assert run(["construct", "--p", "0:1:2"]) == 2
    err = capsys.readouterr().err
    assert "on_sideline" in err


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


def test_construct_degenerate_triangle():
    assert run(["construct", "--p", "2:3:6", "--triangle", "0,0;1,1;2,2"]) == 2


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


def test_svg_deterministic(tmp_path):
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    run(["svg", "--p", "5:3:9", "--preset", "fig1", "--out", str(a)])
    run(["svg", "--p", "5:3:9", "--preset", "fig1", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


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


def test_config_file_unknown_key(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("palette = mondrian\n")
    assert run(["--config", str(cfg), "locus"]) == 2


def test_config_file_missing_point(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("preset = fig1\n")
    assert run(["--config", str(cfg), "svg"]) == 2
