import hashlib
import json
import pathlib
import re
from fractions import Fraction

import pytest

from cevian.projective import AffineMap, Point, CENTROID
from cevian.conics import Conic
from cevian.scalar import Scalar
from cevian.verify import (
    CheckContext,
    Claims,
    Config,
    DOCUMENTED_CHECKS,
    EXCLUDED_LOCI,
    REGISTRY,
    UnknownCheck,
    classical_centers,
    fixed_configurations,
    gergonne_point,
    run_point,
    run_suite,
)
from matrix_text import read_matrix

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "cevian"
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"


def test_registry_matches_documented_list():
    documented = [cid for cid, _ in DOCUMENTED_CHECKS]
    assert sorted(documented) == sorted(REGISTRY)
    assert len(documented) == len(set(documented)) == 26


def test_checks_declare_the_loci_they_exclude():
    both = ("median", "steiner")
    declared = {
        "lambda_maps": both,
        "eta_reflection": both,
        "H_on_cevian_conic": both,
        "Z_on_lines": ("median",),
        "four_points_same_HO": both,
        "perspectivity_medial_transfer": both,
        "perspectivity_anticevian_medial": both,
        "perspectivity_ABC_medial": both,
        "perspectivity_ceva_conjugate": both,
        "perspectivity_second_cevian": both,
        "Htilde_midpoint_reflection": ("steiner",),
    }
    assert EXCLUDED_LOCI == {cid: declared.get(cid, ()) for cid in REGISTRY}
    # the benchmark's suite workload clocks each configuration in a wrapper
    # around the last check, which must therefore run on every configuration
    assert list(REGISTRY)[-1] == "special_sqrt2_configuration"
    assert EXCLUDED_LOCI["special_sqrt2_configuration"] == ()


@pytest.mark.parametrize(
    "p, reason",
    [(Point(1, 1, 2), "p lies on a median"), (Point(3, 6, -2), "p lies on the outer centroid ellipse")],
)
def test_run_check_skips_an_excluded_locus_before_calling_the_check(p, reason):
    def called(ctx, cl):
        raise AssertionError("a check was called on a locus it excludes")

    result = run_point(p, ["lambda_maps"], registry={**REGISTRY, "lambda_maps": called})[0]
    assert (result.status, result.reason) == ("skip", reason)


def test_readme_check_table_lists_the_registry_in_order():
    readme = (SRC.parents[1] / "README.md").read_text(encoding="utf-8")
    documented = re.findall(r"^\| `(\w+)` \|", readme, flags=re.M)
    assert documented == list(REGISTRY)


def test_run_check_formula_pass():
    result = run_point(Point(2, 3, 6), ["thm_HO_formula"])[0]
    assert result.status == "pass"
    assert result.witness["h"] == "(0 : 0 : 1)"


def test_run_check_feuerbach_on_vertex_locus_point():
    result = run_point(Point(6, 3, 2), ["gen_feuerbach_tangency"])[0]
    assert result.status == "pass"


def test_run_check_steiner_collapse():
    assert run_point(Point(3, 6, -2), ["steiner_collapse"])[0].status == "pass"
    # the collapse also holds for an outer-ellipse point on a median
    assert run_point(Point(2, 2, -1), ["steiner_collapse"])[0].status == "pass"
    skipped = run_point(Point(2, 3, 6), ["steiner_collapse"])[0]
    assert skipped.status == "skip"


def test_run_check_unknown_id():
    with pytest.raises(UnknownCheck):
        run_point(Point(2, 3, 6), ["not_a_check"])


def test_hard_degeneracy_skips_with_reason():
    result = run_point(Point(0, 1, 2), ["thm_HO_formula"])[0]
    assert result.status == "skip"
    assert "sideline" in result.reason


def test_median_point_skips_hypothesis_bound_checks():
    for cid in (
        "perspectivity_medial_transfer",
        "perspectivity_ceva_conjugate",
        "lambda_maps",
        "eta_reflection",
    ):
        result = run_point(Point(1, 1, 2), [cid])[0]
        assert result.status == "skip"
        assert result.reason == "p lies on a median"
    # but the formula check still runs there
    assert run_point(Point(1, 1, 2), ["thm_HO_formula"])[0].status == "pass"


def test_special_check_skips_off_configuration():
    result = run_point(Point(2, 3, 6), ["special_sqrt2_configuration"])[0]
    assert result.status == "skip"


def test_gergonne_check_needs_sides():
    assert run_point(Point(2, 3, 6), ["gergonne_feuerbach_hyperbola"])[0].status == "skip"
    with_sides = run_point(Point(2, 3, 6), ["gergonne_feuerbach_hyperbola"], sides=(3, 4, 5))[0]
    assert with_sides.status == "pass"


def test_gergonne_oracle_values():
    assert gergonne_point((3, 4, 5)) == Point(2, 3, 6)
    assert gergonne_point((13, 14, 15)) == Point(21, 24, 28)
    centers = classical_centers((13, 14, 15))
    assert centers["incenter"] == Point(13, 14, 15)
    assert centers["nagel"] == Point(8, 7, 6)
    assert centers["mittenpunkt"] == Point(52, 49, 45)
    assert centers["orthocenter"] == Point(55, 70, 99)


def test_orthocenter_oracle_against_cartesian():
    # 13-14-15 triangle embedded exactly: A=(0,0), B=(15,0), C=(42/5,56/5)
    a = (Fraction(0), Fraction(0))
    b = (Fraction(15), Fraction(0))
    c = (Fraction(42, 5), Fraction(56, 5))
    assert (c[0] - b[0]) ** 2 + (c[1] - b[1]) ** 2 == 13**2
    assert c[0] ** 2 + c[1] ** 2 == 14**2

    def perp_through(p, q1, q2):
        dx, dy = q2[0] - q1[0], q2[1] - q1[1]
        return (dx, dy, dx * p[0] + dy * p[1])

    l1 = perp_through(a, b, c)
    l2 = perp_through(b, a, c)
    det = l1[0] * l2[1] - l2[0] * l1[1]
    h = (
        (l1[2] * l2[1] - l2[2] * l1[1]) / det,
        (l1[0] * l2[2] - l2[0] * l1[2]) / det,
    )

    def area2(p, q, r):
        return (q[0] - p[0]) * (r[1] - p[1]) - (r[0] - p[0]) * (q[1] - p[1])

    bary = Point(area2(h, b, c), area2(a, h, c), area2(a, b, h))
    assert bary == classical_centers((13, 14, 15))["orthocenter"]


def test_suite_is_deterministic():
    first = run_suite(11, 3)
    second = run_suite(11, 3)
    assert first.canonical_dict() == second.canonical_dict()
    assert all(r.status != "fail" for r in first.results)


def test_suite_seed_42_matches_golden_report(suite_42_25):
    """The canonical report of run_suite(42, 25) is a behaviour invariant:
    tallies first, for a readable diff, then the digest of every result."""
    golden = json.loads((GOLDEN / "suite-42-25.json").read_text())
    canonical = suite_42_25.canonical_dict()
    assert (canonical["seed"], canonical["count"]) == (golden["seed"], golden["count"])
    assert canonical["tallies"] == golden["tallies"]
    assert len(canonical["results"]) == golden["results"]
    text = json.dumps(canonical, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == golden["sha256"]


def test_a_passing_equality_prints_its_side_once(monkeypatch):
    """Equal canonical values print alike, so a passing claim prints one side
    and shows it on both; a failing claim prints both sides."""
    from test_constructions import count_calls

    def point(k):
        return Point(k * Fraction(1, 3), k * Scalar(2, -1, 6), 5 * k)

    printed = count_calls(monkeypatch, "cevian.scalar", "format_number")
    text = str(point(1))
    once = len(printed)
    printed.clear()
    cl = Claims()
    cl.equal("same", point(2), point(3))
    assert len(printed) == once
    assert cl.witness["same"] == f"{text} == {text}" and not cl.failed
    cl.equal("other", point(1), CENTROID)
    assert cl.witness["other"] == f"{text} == {CENTROID}" and cl.failed == ["other"]


def test_suite_rejects_unknown_check_filter():
    with pytest.raises(UnknownCheck):
        run_suite(1, 1, check_ids=["nope"])


def test_suite_check_filter():
    report = run_suite(5, 2, check_ids=["thm_HO_formula"])
    assert {r.check_id for r in report.results} == {"thm_HO_formula"}
    assert all(r.status != "fail" for r in report.results)


def test_fixed_configurations_and_policy():
    auto = fixed_configurations("auto")
    rational = fixed_configurations("rational")
    assert len(auto) == len(rational) + 1
    assert any(c.label == "sqrt2-special" for c in auto)
    assert not any(c.label == "sqrt2-special" for c in rational)
    with pytest.raises(ValueError):
        fixed_configurations("octonion")


def test_negated_check_fails_with_reproducible_witness():
    def sabotage(ctx: CheckContext, cl: Claims) -> None:
        cl.note("orthocenter", ctx.cs.orthocenter)
        cl.check("orthocenter_is_centroid", ctx.cs.orthocenter == CENTROID)

    registry = dict(REGISTRY)
    registry["sabotage"] = sabotage
    report = run_suite(9, 4, check_ids=["sabotage"], registry=registry)
    failures = [r for r in report.results if r.status == "fail"]
    assert failures
    for f in failures:
        parsed = Point.parse(f.witness["orthocenter"])
        rebuilt = run_point(Point.parse(f.config["p"]), ["sabotage"], registry=registry)[0]
        assert rebuilt.status == "fail"
        assert Point.parse(rebuilt.witness["orthocenter"]) == parsed


class BothSidesClaims(Claims):
    """The reference Claims: every equality prints both of its sides."""

    def equal(self, key, left, right):
        self.witness[key] = f"{left} == {right}"
        self.check(key, left == right)


class _Crossed:
    """Claims that hand each equality the right side of the one before, so
    that nearly every `equal` fails and prints both of its sides."""

    def __init__(self, claims):
        self.claims = claims
        self.last = None

    def equal(self, key, left, right):
        self.claims.equal(key, left, right if self.last is None else self.last)
        self.last = right

    def __getattr__(self, name):
        return getattr(self.claims, name)


def _crossed(fn):
    return lambda ctx, cl: fn(ctx, _Crossed(cl))


NEGATED = {cid: _crossed(fn) for cid, fn in REGISTRY.items()}


def test_one_sided_witnesses_print_as_both_sides_do():
    """Over the fixed configurations (the sqrt(2) one included), a seeded
    sample and points over Q(sqrt(6)), with the registry and with nearly every
    equality made to fail, each result prints as it does when every equality
    prints both of its sides."""
    import cevian.verify

    points = [
        Point(Scalar(a, b, 6), Scalar(c, -b, 6), 1 + a * a)
        for a, b, c in ((1, 1, 3), (2, -1, -5), (-3, 2, 7))
    ]

    def report(registry):
        suite = run_suite(7, 4, registry=registry).canonical_dict()["results"]
        return suite + [r.to_dict() for p in points for r in run_point(p, registry=registry)]

    for registry in (REGISTRY, NEGATED):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cevian.verify, "Claims", BothSidesClaims)
            both = report(registry)
        one = report(registry)
        assert one == both
    # the failing equalities of the negated registry print two sides
    failed = [r["witness"] for r in one if r["status"] == "fail"]
    sides = [w[k].split(" == ") for w in failed for k in w if " == " in w[k]]
    assert any(left != right for left, right in sides)


def test_witnesses_round_trip_through_serialization():
    report = run_suite(13, 2)
    blob = json.dumps(report.canonical_dict())
    revived = json.loads(blob)
    for entry in revived["results"]:
        for value in entry.get("witness", {}).values():
            for part in value.split(" == "):
                if part.startswith("(") and part.endswith(")") and part.count(":") == 2:
                    assert str(Point.parse(part)) == part
                elif part.startswith("[[") and part.endswith("]]"):
                    try:
                        assert str(read_matrix(Conic, part)) == part
                    except ValueError:  # asymmetric matrix: an affine map
                        assert str(read_matrix(AffineMap, part)) == part


def test_verify_layer_never_touches_floats():
    # exactness by layering: no decision path may reach a float conversion,
    # and the number type itself has none
    for module in ("verify.py", "constructions.py", "conics.py", "projective.py", "scalar.py"):
        source = (SRC / module).read_text()
        assert "to_float" not in source, f"{module} mentions to_float"
        assert "math.sqrt" not in source, f"{module} uses float sqrt"


def test_every_check_passes_on_every_fixed_configuration():
    report = run_suite(1, 1)
    assert all(r.status != "fail" for r in report.results)
    tallies = report.tallies()
    # every registered check passes somewhere in the fixed set
    for cid, _ in DOCUMENTED_CHECKS:
        assert tallies[cid]["pass"] >= 1, f"{cid} never exercised"


def test_registry_holds_over_quadratic_extension():
    # the whole registry on generic points with sqrt(2) coordinates, not just
    # the pinned special configuration
    import random

    from cevian.scalar import Scalar
    from cevian.constructions import degeneracy_report
    from cevian.verify import CheckContext, _evaluate

    rng = random.Random(17)
    done = 0
    while done < 2:
        coords = [Scalar(rng.randint(-9, 9), rng.randint(-3, 3), 2) for _ in range(3)]
        if any(c.is_zero() for c in coords):
            continue
        p = Point(*coords)
        if degeneracy_report(p).any():
            continue
        ctx = CheckContext(Config(p))
        for cid, fn in REGISTRY.items():
            result = _evaluate(fn, cid, ctx, ctx.config.describe())
            assert result.status != "fail", (cid, str(p), result.witness)
        done += 1


@pytest.fixture
def construct_calls(monkeypatch):
    import cevian.verify

    calls = []
    original = cevian.verify.construct

    def counted(p):
        calls.append(p)
        return original(p)

    monkeypatch.setattr(cevian.verify, "construct", counted)
    return calls


def test_siblings_build_no_construction_set(construct_calls):
    assert run_point(Point(2, 3, 6), ["four_points_same_HO"])[0].status == "pass"
    assert len(construct_calls) == 1


def test_suite_constructs_each_configuration_once(construct_calls):
    report = run_suite(1, 2)
    configs = {json.dumps(r.config, sort_keys=True) for r in report.results}
    assert len(configs) == 10
    assert len(construct_calls) == 10


def test_checks_of_a_configuration_share_its_description():
    report = run_suite(1, 2)
    by_config = {}
    for r in report.results:
        by_config.setdefault(r.config["label"] + r.config["p"], set()).add(id(r.config))
    assert len(by_config) == 10
    assert all(len(ids) == 1 for ids in by_config.values())


def test_siblings_keep_the_dual_path_check(monkeypatch):
    from cevian import constructions
    from cevian.verify import _evaluate

    ctx = CheckContext(Config(Point(2, 3, 6)))
    monkeypatch.setattr(constructions, "_on_parallels", lambda *args: False)
    result = _evaluate(
        REGISTRY["four_points_same_HO"], "four_points_same_HO", ctx, ctx.config.describe()
    )
    assert result.status == "fail"
    assert result.witness["error"].startswith("ConstructionInconsistency: ")


def test_siblings_keep_the_hard_degeneracy_gate():
    from cevian.constructions import Centers, OnAnticomplementarySideline
    from cevian.projective import OnSideline

    with pytest.raises(OnSideline):
        Centers(Point(0, 1, 2))
    with pytest.raises(OnAnticomplementarySideline):
        Centers(Point(1, 2, -2))


# _canonical calls of a check's own body, past the construction it reads,
# at a generic point over Q and over Q(sqrt(6)) alike: each parallel,
# perspector and conjugate direction is canonicalized once, as the object it
# returns, and never through a direction, join or polar it throws away; and
# no check builds a join or a composite map twice
CHECK_CANONICALIZATIONS = {
    "thm_HO_formula": 18,
    "phi_map_algebra": 15,
    "psi_involutions_agree": 23,
    "perspectivity_medial_transfer": 4,
    "perspectivity_anticevian_medial": 7,
    "perspectivity_ABC_medial": 4,
    "perspectivity_ceva_conjugate": 10,
    "perspectivity_second_cevian": 7,
}


@pytest.mark.parametrize(
    "p", [Point(5, -7, 11), Point(3, Scalar(1, 2, 6), Scalar(-2, 1, 6))], ids=["Q", "Q(sqrt(6))"]
)
def test_check_canonicalization_counts_are_pinned(monkeypatch, p):
    from cevian import projective

    projective.complement_map(), projective.anticomplement_map()  # cached constants, built once
    canonical, calls = projective._canonical, []

    def counted(d, v):
        calls.append(d)
        return canonical(d, v)

    counts = {}
    for cid in CHECK_CANONICALIZATIONS:
        ctx, cl = CheckContext(Config(p)), Claims()
        monkeypatch.setattr(projective, "_canonical", counted)
        calls.clear()
        REGISTRY[cid](ctx, cl)
        monkeypatch.undo()
        counts[cid] = len(calls)
        assert cl.checked and not cl.failed, cid
    assert counts == CHECK_CANONICALIZATIONS



# -- errors inside the suite ----------------------------------------------------------

GERGONNE_13_14_15 = Point(21, 24, 28)
DISAGREE = "ConstructionInconsistency: formula and parallel definitions disagree at p=(21 : 24 : 28)"


def make_orthocenter_wrong(monkeypatch):
    """Make the orthocenter-like point wrong at (21 : 24 : 28) alone."""
    from cevian import constructions

    right = constructions._orthocenter
    monkeypatch.setattr(
        constructions,
        "_orthocenter",
        lambda p, e: Point(1, 2, 3) if p == GERGONNE_13_14_15 else right(p, e),
    )


def test_a_construction_error_fails_its_configuration_alone(monkeypatch):
    clean = run_suite(42, 2)
    make_orthocenter_wrong(monkeypatch)
    patched = run_suite(42, 2)
    at_p = [r for r in patched.results if r.config["p"] == str(GERGONNE_13_14_15)]
    assert [r.check_id for r in at_p] == list(REGISTRY)
    for r in at_p:
        assert r.status == "fail"
        assert r.witness == {"error": DISAGREE, "raised_in": "cevian.constructions"}
    assert any(r.status == "fail" for r in patched.results)
    # every other configuration reports what it did without the error
    assert [r.to_dict() for r in patched.results if r not in at_p] == [
        r.to_dict() for r in clean.results if r.config["p"] != str(GERGONNE_13_14_15)
    ]


def test_a_check_that_raises_fails_with_its_error():
    def divides_by_zero(ctx, cl):
        cl.note("reached", ctx.config.p)
        raise ZeroDivisionError("division by zero")

    report = run_suite(42, 2, registry={"divides_by_zero": divides_by_zero})
    assert len(report.results) == 10
    for r in report.results:
        assert r.status == "fail"
        assert r.witness == {
            "reached": r.config["p"],
            "error": "ZeroDivisionError: division by zero",
            "raised_in": __name__,
        }


def test_a_check_that_makes_no_claim_fails():
    """A check that returns without a claim has lost its claims to a bug
    (say every probe direction of `psi_involutions_agree` taken as
    self-conjugate): it fails, and does not skip."""
    def claims_nothing(ctx, cl):
        cl.note("reached", ctx.config.p)

    result = run_point(Point(2, 3, 6), ["claims_nothing"], registry={"claims_nothing": claims_nothing})[0]
    assert result.status == "fail" and result.reason is None
    assert result.witness == {"reached": "(2 : 3 : 6)", "reason": "the check made no claim"}


def test_a_geometry_error_in_a_check_names_its_module():
    """A GeometryError raised inside a check fails it with the error and
    the module it was raised in, like any other error."""
    def takes_a_line_pair_center(ctx, cl):
        cl.note("reached", ctx.config.p)
        Conic(((0, 1, 0), (1, 0, 0), (0, 0, 0))).center()

    registry = {**REGISTRY, "lambda_maps": takes_a_line_pair_center}
    result = run_point(Point(2, 3, 6), ["lambda_maps"], registry=registry)[0]
    assert result.status == "fail"
    assert result.witness == {
        "reached": "(2 : 3 : 6)",
        "error": "DegenerateConic: pole needs a nondegenerate conic",
        "raised_in": "cevian.conics",
    }


def test_run_check_fails_on_a_construction_error(monkeypatch):
    make_orthocenter_wrong(monkeypatch)
    result = run_point(GERGONNE_13_14_15, ["lambda_maps"])[0]
    assert result.status == "fail"
    assert result.witness == {"error": DISAGREE, "raised_in": "cevian.constructions"}
    # the hard degeneracies still skip
    assert run_point(Point(0, 1, 2), ["lambda_maps"])[0].status == "skip"


# -- a broken closed form fails; it does not skip ------------------------------------


def test_a_missing_cevian_conic_fails_the_checks_that_read_it(monkeypatch):
    """Off the medians the cevian conic exists, so the checks that exclude
    the medians read it unguarded: a closed form that loses it at (2 : 3 : 6),
    a point on no median, fails them instead of skipping or passing them."""
    from cevian import constructions

    monkeypatch.setattr(constructions, "cevian_conic", lambda p, squares: None)
    ids = ["H_on_cevian_conic", "Z_on_lines", "Ztilde_fourth_intersection", "four_points_same_HO"]
    for result in run_point(Point(2, 3, 6), ids):
        assert result.status == "fail", result.check_id
        assert result.witness["error"].startswith("AttributeError: "), result.check_id


def test_a_failing_iso_reflection_check_raises_out_of_construct(monkeypatch):
    from cevian import constructions
    from cevian.projective import DegenerateConfiguration

    def fails(eta, q, q_iso):
        raise DegenerateConfiguration("constructed map is not an affine reflection")

    monkeypatch.setattr(constructions, "require_iso_reflection", fails)
    with pytest.raises(DegenerateConfiguration):
        constructions.construct(Point(2, 3, 6))
    result = run_point(Point(2, 3, 6), ["eta_reflection"])[0]
    assert result.status == "fail"
    assert result.witness["error"] == "DegenerateConfiguration: constructed map is not an affine reflection"
