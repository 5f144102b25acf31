"""Acceptance suite: every criterion at zero tolerance, one line per result.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines; a
criterion only prints after every one of its exact assertions held.
"""

import random
from fractions import Fraction

import pytest

from cevian.scalar import Scalar
from cevian.projective import (
    CENTROID,
    Homothety,
    Line,
    MID_AB,
    MID_BC,
    MID_CA,
    Point,
    Translation,
    VERTEX_A,
    VERTEX_B,
    VERTEX_C,
    anticomplement,
    anticomplement_map,
    are_collinear,
    centroid_of,
    collinear_ratio,
    complement,
    complement_map,
    incident,
    join,
    meet,
    midpoint,
    parallel_through,
)
from cevian.conics import (
    Conic,
    InfinityInvolution,
    SelfConjugate,
    second_intersection,
    tangent_conics_at,
    transform_conic,
)
from cevian.constructions import (
    anticevian_family,
    construct,
    locus_conic,
    sample_nondegenerate,
    special_configuration_point,
)
from cevian.verify import (
    CheckContext,
    Claims,
    DOCUMENTED_CHECKS,
    REGISTRY,
    classical_centers,
    gergonne_point,
    run_point,
    run_suite,
)

SEED = 42
COUNT = 25
VERTICES = (VERTEX_A, VERTEX_B, VERTEX_C)
MIDPOINTS = (MID_BC, MID_CA, MID_AB)


def report(number: int, text: str) -> None:
    print(f"[acceptance] criterion {number}: {text}: PASS")


@pytest.fixture(scope="module")
def samples():
    return sample_nondegenerate(SEED, COUNT)


@pytest.fixture(scope="module")
def configurations(samples):
    return [construct(p) for p in samples]


def test_criterion_1_dual_path_agreement(configurations):
    failures = 0
    for cs in configurations:
        o_formula = cs.cevian_map_iso.inverse()(complement(cs.q))
        h_formula = anticomplement(o_formula)
        if not (h_formula == cs.orthocenter and o_formula == cs.circumcenter):
            failures += 1
            continue
        for base, trace in zip(VERTICES, cs.traces):
            if not incident(cs.orthocenter, parallel_through(base, join(cs.q, trace))):
                failures += 1
        for base, trace in zip(MIDPOINTS, cs.traces):
            if not incident(cs.circumcenter, parallel_through(base, join(cs.q, trace))):
                failures += 1
    assert failures == 0
    report(1, f"formula equals parallel definition on {COUNT} seeded points, 0 failures")


def test_criterion_2_generalized_feuerbach(configurations):
    failures = 0
    for cs in configurations:
        z = cs.feuerbach_point
        if z is None:
            failures += 1
            continue
        on_both = cs.ninepoint_conic.contains(z) and cs.inconic.contains(z)
        shared = tangent_conics_at(cs.ninepoint_conic, cs.inconic, z)
        if not (on_both and shared):
            failures += 1
    assert failures == 0
    report(2, f"nine-point conic tangent to inconic at the cevian-conic center, {COUNT} points, 0 failures")


def test_criterion_3_ninepoint_structure(configurations):
    failures = 0
    k = complement_map()
    for cs in configurations:
        ok = (
            cs.ninepoint_conic_iso.center() == complement(cs.q)
            and cs.ninepoint_conic == transform_conic(k, cs.circumconic)
            and cs.ninepoint_center == midpoint(cs.orthocenter, cs.circumcenter)
            and cs.fourth_intersection is not None
            and cs.cevian_conic.contains(cs.fourth_intersection)
            and cs.circumconic.contains(cs.fourth_intersection)
        )
        if not ok:
            failures += 1
    assert failures == 0
    report(3, "nine-point centers, complements, and the fourth intersection, 0 failures")


def test_criterion_4_map_algebra(configurations):
    failures = 0
    kinv = anticomplement_map()
    for cs in configurations:
        lam = cs.transfer_map
        phi = cs.ninepoint_to_inconic
        eta = cs.iso_reflection
        kind = cs.circum_to_inconic.classify()
        s = meet(join(cs.circumcenter, cs.q), join(CENTROID, cs.v))
        # the composite map built from the p_iso side, equal up to scale
        phi_from_iso = cs.cevian_map_iso @ kinv @ cs.cevian_map @ kinv
        ok = (
            lam(cs.p) == cs.q_iso
            and lam(cs.orthocenter) == cs.q
            and eta is not None
            and eta(cs.orthocenter) == cs.orthocenter_iso
            and phi == phi_from_iso
            and phi(cs.ninepoint_center) == cs.q
            and s == cs.insimilicenter
            and cs.circum_to_inconic(s) == s
            and isinstance(kind, (Homothety, Translation))
        )
        if not ok:
            failures += 1
    assert failures == 0
    report(4, "transfer, reflection, and composite map identities, 0 failures")


def test_criterion_5_gergonne_specialization():
    # 13-14-15: every classical center is rational and on the cevian conic
    sides = (Fraction(13), Fraction(14), Fraction(15))
    ge = gergonne_point(sides)
    assert ge == Point(21, 24, 28)
    cs = construct(ge)
    oracle = classical_centers(sides)
    assert cs.q == oracle["incenter"] == Point(13, 14, 15)
    assert cs.p_iso == oracle["nagel"] == Point(8, 7, 6)
    assert cs.q_iso == oracle["mittenpunkt"] == Point(52, 49, 45)
    assert cs.orthocenter == oracle["orthocenter"] == Point(55, 70, 99)
    for name in ("incenter", "nagel", "mittenpunkt", "orthocenter"):
        assert cs.cevian_conic.contains(oracle[name])
    # 3-4-5: the orthocenter-like point is the right-angle vertex
    cs345 = construct(gergonne_point((3, 4, 5)))
    assert cs345.orthocenter == Point(0, 0, 1)
    assert cs345.orthocenter == classical_centers((3, 4, 5))["orthocenter"]
    report(5, "gergonne specializations on the 13-14-15 and 3-4-5 triangles, exact")


def test_criterion_6_vertex_locus():
    assert construct(Point(6, 3, 2)).orthocenter == VERTEX_A
    assert construct(Point(-1, 3, 2)).orthocenter == VERTEX_A
    conic = locus_conic("A")
    assert conic == Conic(((-2, 1, 1), (1, 0, 1), (1, 1, 0)))  # -x^2 + xy + xz + yz = 0
    center = conic.center()
    assert center == Point(1, 3, 3)
    assert collinear_ratio(VERTEX_A, center, MID_BC) == Scalar(Fraction(6, 7))
    assert conic.polar(VERTEX_A) == Line(-2, 1, 1)
    for p in (VERTEX_B, VERTEX_C, MID_CA, MID_AB):
        assert conic.contains(p)
    assert conic.tangent_at(VERTEX_B) == Line(1, 0, 1)
    assert conic.tangent_at(VERTEX_C) == Line(1, 1, 0)
    report(6, "vertex-orthocenter locus conic with exact equation and tangencies")


def test_criterion_7_sqrt2_configuration():
    p = special_configuration_point()
    assert p == Point(Scalar(1), Scalar(1, 1, 2), Scalar(1, -1, 2))
    cs = construct(p)
    assert cs.orthocenter == VERTEX_A
    assert cs.circumcenter == MID_BC
    assert isinstance(cs.circum_to_inconic.classify(), Translation)
    assert are_collinear(cs.circumcenter, cs.circumcenter_iso, cs.p)
    assert are_collinear(cs.circumcenter, cs.p, cs.p_iso)
    ratio = collinear_ratio(cs.circumcenter, cs.p_iso, cs.p)
    assert ratio * ratio == Scalar(9)
    d = cs.traces[0]
    side_ratio = collinear_ratio(cs.circumcenter, d, VERTEX_C)
    assert side_ratio * side_ratio == Scalar(2)
    assert cs.cevian_map(cs.traces_iso[0]) == midpoint(cs.circumcenter, d)
    assert cs.p == centroid_of(cs.circumcenter, d, cs.q)
    fam = anticevian_family(cs)
    assert fam.p_a == second_intersection(
        join(cs.p, CENTROID), cs.circumconic, cs.p
    )
    report(7, "sqrt(2) configuration: translation map, ratio 3 and squared ratio 2, exact")


def test_criterion_8_four_point_family(configurations):
    failures = 0
    for cs in configurations[:5]:
        fam = anticevian_family(cs)
        conics = [cs.cevian_conic]
        for sibling in fam.siblings():
            sib = construct(sibling)
            if sib.circumcenter != cs.circumcenter or sib.orthocenter != cs.orthocenter:
                failures += 1
            conics.append(sib.cevian_conic)
        solid = [c for c in conics if c is not None and not c.is_degenerate()]
        for i in range(len(solid)):
            for j in range(i + 1, len(solid)):
                if solid[i] == solid[j]:
                    failures += 1
        for conic in solid:
            for pt in (*VERTICES, cs.orthocenter):
                if not conic.contains(pt):
                    failures += 1
    assert failures == 0
    report(8, "anticevian sibling family shares centers; conics distinct through a, b, c, h")


def test_criterion_9_involution_agreement(configurations):
    rng = random.Random(SEED)
    failures = 0
    for cs in configurations:
        involutions = (
            InfinityInvolution(cs.inconic),
            InfinityInvolution(cs.circumconic),
            InfinityInvolution(cs.ninepoint_conic),
        )
        tested = 0
        while tested < 5:
            k = Fraction(rng.randint(-40, 40), rng.randint(1, 9))
            direction = Point(1, k, -1 - k)
            try:
                images = [psi(direction) for psi in involutions]
            except SelfConjugate:
                continue
            if not (images[0] == images[1] == images[2]):
                failures += 1
            tested += 1
    assert failures == 0
    report(9, f"conjugate-direction involutions agree on 5 directions x {COUNT} points, 0 failures")


def test_criterion_10_harness_integrity():
    first = run_suite(7, 3)
    second = run_suite(7, 3)
    assert first.canonical_dict() == second.canonical_dict()
    assert all(r.status != "fail" for r in first.results)
    documented = [cid for cid, _ in DOCUMENTED_CHECKS]
    assert sorted(documented) == sorted(REGISTRY)
    assert len(documented) == 26

    def negated(ctx: CheckContext, cl: Claims) -> None:
        cl.note("p", ctx.cs.p)
        cl.note("orthocenter", ctx.cs.orthocenter)
        cl.check("orthocenter_equals_p", ctx.cs.orthocenter == ctx.cs.p)

    registry = dict(REGISTRY)
    registry["negated_probe"] = negated
    sabotage = run_suite(7, 3, check_ids=["negated_probe"], registry=registry)
    failures = [r for r in sabotage.results if r.status == "fail"]
    assert failures
    for failure in failures:
        replay = run_point(Point.parse(failure.config["p"]), ["negated_probe"], registry=registry)[0]
        assert replay.status == "fail"
        assert replay.witness["orthocenter"] == failure.witness["orthocenter"]
        assert str(Point.parse(failure.witness["orthocenter"])) == failure.witness[
            "orthocenter"
        ]
    report(10, "deterministic suite, complete registry, reproducible negated-check witness")


def test_full_suite_is_green(suite_42_25):
    suite = suite_42_25
    assert (suite.seed, suite.count) == (SEED, COUNT)
    failures = [r.to_dict() for r in suite.results if r.status == "fail"]
    assert not failures, failures
    tallies = suite.tallies()
    for cid, _ in DOCUMENTED_CHECKS:
        assert tallies[cid]["fail"] == 0
        assert tallies[cid]["pass"] >= 1
    report(0, f"full registered suite over {COUNT} samples and all fixtures, 0 failures")
