"""Named theorem checks, the deterministic randomized driver, and exact
witness reporting.

Every geometric claim the kernel implements is registered here exactly once
under a stable id.  A check either passes, fails with a complete exact
witness (every input needed to reproduce it), or is skipped because the
claim's hypotheses exclude the configuration.  Hypothesis violations skip;
conclusion violations fail.  Nothing in this module ever consults a float.
"""

from __future__ import annotations

import time
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence

from .projective import (
    AffineReflection,
    CENTROID,
    GeometryError,
    HardDegeneracy,
    Homothety,
    LINE_AT_INFINITY,
    MID_AB,
    MID_BC,
    MID_CA,
    MIDPOINTS,
    Point,
    SIDE_BC,
    SIDELINES,
    Translation,
    VERTEX_A,
    VERTEX_B,
    VERTEX_C,
    VERTICES,
    anticomplement,
    anticomplement_map,
    are_collinear,
    cevian_map,
    complement,
    complement_map,
    incident,
    join,
    meet,
    midpoint,
    parallel,
    parallel_through,
    perspector,
    point_reflection,
    reflect_through,
    collinear_ratio,
    centroid_of,
)
from .conics import (
    InfinityInvolution,
    SelfConjugate,
    TwoPoints,
    infinity_intersection_count,
    isotomic_image_of_line,
    line_conic_intersections,
    nine_point_conic,
    second_intersection,
    tangent_conics_at,
    transform_conic,
)
from .constructions import (
    Centers,
    ConstructionSet,
    anticevian_family,
    construct,
    locus_conic,
    sample_nondegenerate,
    special_configuration_point,
)
from .scalar import Record


class UnknownCheck(GeometryError):
    pass


# ---------------------------------------------------------------------------
# configurations


class Config(Record):
    """One verification target: a driving point p, optionally tied to a
    Euclidean triangle through its exact side lengths, three Fractions
    (used only by the classical-center cross-checks), and a label."""

    __slots__ = _fields = ("p", "sides", "label")

    def __init__(self, p: Point, sides: Optional[tuple[Fraction, ...]] = None, label: str = ""):
        super().__init__(p, sides, label)

    def describe(self) -> dict:
        return {
            "p": str(self.p),
            "sides": [str(s) for s in self.sides] if self.sides else None,
            "field_d": self.p.d,
            "label": self.label,
        }


class CheckResult:
    def __init__(
        self,
        check_id: str,
        status: str,  # "pass" | "fail" | "skip"
        config: dict,
        reason: Optional[str] = None,
        witness: Optional[dict] = None,
    ):
        self.check_id = check_id
        self.status = status
        self.config = config
        self.reason = reason
        self.witness = {} if witness is None else witness

    def to_dict(self) -> dict:
        out = {"check_id": self.check_id, "status": self.status, "config": self.config}
        if self.reason is not None:
            out["reason"] = self.reason
        if self.witness:
            out["witness"] = self.witness
        return out


class _Skip(Exception):
    def __init__(self, reason: str):
        self.reason = reason


class Claims:
    """Collects named sub-claims of one check with their exact witnesses."""

    def __init__(self):
        self.witness: dict[str, str] = {}
        self.failed: list[str] = []
        self.checked = 0

    def note(self, key: str, value) -> None:
        self.witness[key] = str(value)

    def check(self, key: str, ok: bool) -> None:
        self.checked += 1
        if not ok:
            self.failed.append(key)

    def equal(self, key: str, left, right) -> None:
        ok = left == right
        if ok:
            # equal canonical values print alike, so print one side once
            side = str(right)
            self.witness[key] = f"{side} == {side}"
        else:
            self.witness[key] = f"{left} == {right}"
        self.check(key, ok)

    def true(self, key: str, ok: bool, value=None) -> None:
        if value is not None:
            self.witness[key] = str(value)
        self.check(key, ok)


class CheckContext:
    """Lazily shared state for all checks against one configuration."""

    def __init__(self, config: Config):
        self.config = config
        self.cs: ConstructionSet = construct(config.p)
        self._family = None

    def family(self):
        if self._family is None:
            self._family = anticevian_family(self.cs)
        return self._family

    def require(self, name: str):
        """The construction's member `name`, or a skip with the reason it is absent."""
        member = getattr(self.cs, name)
        if member is None:
            raise _Skip(self.cs.absent[name])
        return member


CheckFn = Callable[[CheckContext, Claims], None]
REGISTRY: dict[str, CheckFn] = {}
_DESCRIPTIONS: dict[str, str] = {}
# the loci a check may exclude: the degeneracy flag of each, and the reason
# a configuration on it is skipped with
_LOCI = {
    "median": ("on_median", "p lies on a median"),
    "steiner": ("on_steiner_circumellipse", "p lies on the outer centroid ellipse"),
}
# check id -> the loci of _LOCI it excludes, in the order they are tested
EXCLUDED_LOCI: dict[str, tuple[str, ...]] = {}


def _register(check_id: str, description: str, *off: str):
    """Register a check under its id, with the claim it decides and the
    loci it excludes, which `_evaluate` skips before it calls the check."""

    def deco(fn: CheckFn) -> CheckFn:
        REGISTRY[check_id] = fn
        _DESCRIPTIONS[check_id] = description
        EXCLUDED_LOCI[check_id] = off
        return fn

    return deco


# ---------------------------------------------------------------------------
# classical-center oracles (side lengths in, exact barycentrics out)


def _conway(sides: Sequence[Fraction]) -> tuple[Fraction, Fraction, Fraction]:
    a, b, c = sides
    return (
        (b * b + c * c - a * a) / 2,
        (c * c + a * a - b * b) / 2,
        (a * a + b * b - c * c) / 2,
    )


def gergonne_point(sides: Sequence[Fraction]) -> Point:
    a, b, c = (Fraction(s) for s in sides)
    s = (a + b + c) / 2
    return Point((s - b) * (s - c), (s - c) * (s - a), (s - a) * (s - b))


def classical_centers(sides: Sequence[Fraction]) -> dict[str, Point]:
    """Incenter, Nagel point, mittenpunkt, and orthocenter of a triangle with
    the given side lengths, from the standard closed forms; these are the
    independent oracles the Gergonne cross-check compares against."""
    a, b, c = (Fraction(s) for s in sides)
    s = (a + b + c) / 2
    sa, sb, sc = _conway((a, b, c))
    return {
        "incenter": Point(a, b, c),
        "nagel": Point(s - a, s - b, s - c),
        "mittenpunkt": Point(a * (s - a), b * (s - b), c * (s - c)),
        "orthocenter": Point(sb * sc, sc * sa, sa * sb),
    }


# ---------------------------------------------------------------------------
# the checks


@_register("thm_HO_formula", "affine formulas for the two generalized centers match their parallel-line definitions")
def _check_ho_formula(ctx: CheckContext, cl: Claims) -> None:
    cs = ctx.cs
    # the affine formula O = T_p'^-1(K(q)), with T_p' built from its
    # definition, the map taking ABC to the cevian triangle of p_iso
    o_formula = cevian_map(cs.p_iso).inverse()(complement(cs.q))
    h_formula = anticomplement(o_formula)
    cl.equal("o_formula", o_formula, cs.circumcenter)
    cl.equal("h_formula", h_formula, cs.orthocenter)
    cl.equal("o_is_complement_of_h", complement(cs.orthocenter), cs.circumcenter)
    q_lines = [join(cs.q, trace) for trace in cs.traces]
    for tag, bases in (("h", VERTICES), ("o", MIDPOINTS)):
        target = cs.orthocenter if tag == "h" else cs.circumcenter
        for i, (base, q_line) in enumerate(zip(bases, q_lines)):
            cl.true(f"{tag}_parallel_{i}", incident(target, parallel_through(base, q_line)))
    cl.note("h", cs.orthocenter)
    cl.note("o", cs.circumcenter)


@_register("lambda_maps", "the cevian-transfer map sends p to q_iso and the orthocenter-like point to q", "median", "steiner")
def _check_lambda(ctx: CheckContext, cl: Claims) -> None:
    cs = ctx.cs
    cl.equal("transfer_p", cs.transfer_map(cs.p), cs.q_iso)
    cl.equal("transfer_h", cs.transfer_map(cs.orthocenter), cs.q)
    cl.equal("transfer_inv_p_iso", cs.transfer_map_inverse(cs.p_iso), cs.q)
    cl.equal(
        "orthocenter_preimage_two_ways",
        cs.orthocenter_preimage,
        cs.cevian_map_iso_inverse(cs.q),
    )


@_register("eta_reflection", "the iso-reflection swaps the primed and unprimed centers and keeps joins parallel", "median", "steiner")
def _check_eta(ctx: CheckContext, cl: Claims) -> None:
    cs = ctx.cs
    eta = ctx.require("iso_reflection")
    cl.equal("eta_o", eta(cs.circumcenter), cs.circumcenter_iso)
    cl.equal("eta_h", eta(cs.orthocenter), cs.orthocenter_iso)
    cl.equal("eta_q", eta(cs.q), cs.q_iso)
    kind = eta.classify()
    cl.true("eta_is_affine_reflection", isinstance(kind, AffineReflection), kind)
    if isinstance(kind, AffineReflection):
        cl.equal("eta_axis", kind.axis, join(CENTROID, cs.v))
    pp = join(cs.p, cs.p_iso)
    if cs.circumcenter != cs.circumcenter_iso:
        cl.true("oo_parallel_pp", parallel(join(cs.circumcenter, cs.circumcenter_iso), pp))
    if cs.orthocenter != cs.orthocenter_iso:
        cl.true("hh_parallel_pp", parallel(join(cs.orthocenter, cs.orthocenter_iso), pp))


@_register("H_on_cevian_conic", "both orthocenter-like points lie on the cevian conic", "median", "steiner")
def _check_h_on_cp(ctx: CheckContext, cl: Claims) -> None:
    cs = ctx.cs
    cl.true("h_on_conic", cs.cevian_conic.contains(cs.orthocenter), cs.orthocenter)
    cl.true("h_iso_on_conic", cs.cevian_conic.contains(cs.orthocenter_iso), cs.orthocenter_iso)


@_register("ninepoint_center_complement", "the nine-point conic of a,b,c,p_iso is centered at the complement of q")
def _check_ninepoint_center(ctx: CheckContext, cl: Claims) -> None:
    cs = ctx.cs
    cl.equal("center_is_k_of_q", cs.ninepoint_conic_iso.center(), complement(cs.q))
    cl.equal(
        "circumconic_is_pullback",
        cs.circumconic,
        transform_conic(cs.cevian_map_iso_inverse, cs.ninepoint_conic_iso),
    )
    for name, v in zip("abc", VERTICES):
        cl.true(f"{name}_on_circumconic", cs.circumconic.contains(v))
    cl.equal("circumconic_center", cs.circumconic.center(), cs.circumcenter)
    if cs.feuerbach_point is not None:
        cl.true(
            "cevian_center_on_ninepoint_iso",
            cs.ninepoint_conic_iso.contains(cs.feuerbach_point),
            cs.feuerbach_point,
        )


@_register("NH_complement_of_circumconic", "the orthocenter nine-point conic is the complement and half-turn image of the circumconic")
def _check_nh_complement(ctx: CheckContext, cl: Claims) -> None:
    cs = ctx.cs
    if cs.flags.h_is_vertex:
        raise _Skip("orthocenter-like point is a vertex")
    if cs.orthocenter.is_infinite():
        raise _Skip("orthocenter-like point is infinite")
    cl.equal(
        "nh_is_complement",
        cs.ninepoint_conic,
        transform_conic(complement_map(), cs.circumconic),
    )
    quadrangle_conic = nine_point_conic(
        (*VERTICES, cs.orthocenter)
    )
    cl.equal("nh_is_quadrangle_conic", cs.ninepoint_conic, quadrangle_conic)
    halfturn = complement_map() @ point_reflection(cs.circumcenter)
    kind = halfturn.classify()
    cl.true("halfturn_composite_is_homothety", isinstance(kind, Homothety), kind)
    if isinstance(kind, Homothety):
        cl.equal("halfturn_center", kind.center, cs.orthocenter)
        cl.equal("halfturn_ratio", kind.ratio, Fraction(1, 2))
    cl.equal(
        "nh_is_halfturn_image",
        cs.ninepoint_conic,
        transform_conic(halfturn, cs.circumconic),
    )
    cl.equal(
        "n_is_midpoint",
        cs.ninepoint_center,
        midpoint(cs.orthocenter, cs.circumcenter),
    )


@_register("M_to_inconic", "the circum-to-inconic map is a homothety or translation fixing the insimilicenter")
def _check_m_to_inconic(ctx: CheckContext, cl: Claims) -> None:
    cs = ctx.cs
    kind = cs.circum_to_inconic.classify()
    cl.true(
        "m_is_homothety_or_translation",
        isinstance(kind, (Homothety, Translation)),
        kind,
    )
    cl.equal(
        "m_sends_circumconic_to_inconic",
        transform_conic(cs.circum_to_inconic, cs.circumconic),
        cs.inconic,
    )
    cl.equal("m_sends_o_to_q", cs.circum_to_inconic(cs.circumcenter), cs.q)
    # corollary: the circumconic's tangents at the medial preimages are
    # parallel to the corresponding sides
    t_inv = cs.cevian_map_iso_inverse
    for name, mid, side in zip(("bc", "ca", "ab"), MIDPOINTS, SIDELINES):
        preimage = t_inv(mid)
        cl.true(
            f"medial_preimage_tangent_parallel_{name}",
            parallel(cs.circumconic.tangent_at(preimage), side),
            preimage,
        )
    if cs.flags.on_median:
        return
    s = cs.insimilicenter
    cl.equal("m_fixes_s", cs.circum_to_inconic(s), s)
    if cs.circumcenter == cs.q:
        return
    oq = join(cs.circumcenter, cs.q)
    cl.equal("s_on_axis_meet", s, meet(oq, join(CENTROID, cs.v)))
    if cs.circumcenter_iso != cs.q_iso:
        cl.equal("s_from_iso_line", s, meet(oq, join(cs.circumcenter_iso, cs.q_iso)))


@_register("Z_fixed_point", "the cevian-conic center is fixed by the composite map and lies on the nine-point conic")
def _check_z_fixed(ctx: CheckContext, cl: Claims) -> None:
    cs = ctx.cs
    z = ctx.require("feuerbach_point")
    fix = cs.cevian_map @ anticomplement_map()
    cl.equal("z_fixed_by_composite", fix(z), z)
    cl.true("z_on_ninepoint", cs.ninepoint_conic.contains(z), z)
    z_anti = anticomplement(z)
    cl.true("anticomplement_z_on_circumconic", cs.circumconic.contains(z_anti), z_anti)


@_register("phi_map_algebra", "the ninepoint-to-inconic map algebra: images of n, k(s), k(q_iso), and p/p_iso symmetry")
def _check_phi(ctx: CheckContext, cl: Claims) -> None:
    cs = ctx.cs
    phi = cs.ninepoint_to_inconic
    cl.equal("phi_n", phi(cs.ninepoint_center), cs.q)
    k_q_iso = complement(cs.q_iso)
    t_of_p = cs.cevian_map(cs.p)
    cl.equal("phi_k_q_iso", phi(k_q_iso), t_of_p)
    kinv = anticomplement_map()
    m1 = cs.cevian_map @ kinv
    m2 = cs.cevian_map_iso @ kinv
    phi_iso = m2 @ m1  # T_p' K^-1 T_p K^-1
    cl.equal("phi_symmetric_in_p", phi, phi_iso)
    cl.equal("half_maps_commute", m1 @ m2, phi_iso)
    if cs.circumcenter != cs.q:
        t_iso_of_p_iso = cs.cevian_map_iso(cs.p_iso)
        cl.true(
            "t_iso_of_p_iso_on_oq",
            incident(t_iso_of_p_iso, join(cs.circumcenter, cs.q)),
            t_iso_of_p_iso,
        )
    if cs.circumcenter_iso != cs.q_iso:
        cl.true(
            "t_of_p_on_iso_line",
            incident(t_of_p, join(cs.circumcenter_iso, cs.q_iso)),
            t_of_p,
        )
    if cs.insimilicenter is not None:
        cl.equal("phi_k_s", phi(complement(cs.insimilicenter)), cs.insimilicenter)
    z = cs.feuerbach_point
    if z is not None:
        kind = phi.classify()
        if isinstance(kind, Homothety):
            cl.equal("phi_center_is_z", kind.center, z)
        elif isinstance(kind, Translation):
            cl.equal("phi_direction_is_z", kind.direction, z)
        else:
            cl.true("phi_is_homothety_or_translation", False, kind)
        if k_q_iso != t_of_p:
            third_line = join(k_q_iso, t_of_p)
            cl.true("z_on_third_fixed_line", incident(z, third_line), third_line)


@_register("gen_feuerbach_tangency", "the nine-point conic and the inconic are tangent at the cevian-conic center")
def _check_feuerbach(ctx: CheckContext, cl: Claims) -> None:
    cs = ctx.cs
    z = ctx.require("feuerbach_point")
    cl.true("z_on_ninepoint", cs.ninepoint_conic.contains(z), z)
    cl.true("z_on_inconic", cs.inconic.contains(z), z)
    cl.true(
        "shared_tangent_at_z",
        tangent_conics_at(cs.ninepoint_conic, cs.inconic, z),
        cs.ninepoint_conic.polar(z),
    )
    cl.equal(
        "phi_sends_ninepoint_to_inconic",
        transform_conic(cs.ninepoint_to_inconic, cs.ninepoint_conic),
        cs.inconic,
    )
    # the companion statement for p_iso's nine-point conic and inconic
    ninepoint_p = nine_point_conic((*VERTICES, cs.p))
    circ_iso = transform_conic(cs.cevian_map_inverse, ninepoint_p)
    nh_iso = transform_conic(complement_map(), circ_iso)
    cl.equal(
        "phi_sends_iso_ninepoint_to_iso_inconic",
        transform_conic(cs.ninepoint_to_inconic, nh_iso),
        cs.inconic_iso,
    )
    for i, t in enumerate(cs.traces_iso):
        cl.true(f"iso_inconic_contact_{i}", cs.inconic_iso.contains(t))


@_register("Z_on_lines", "the cevian-conic center is the meet of the axis with the q-to-n line", "median")
def _check_z_on_lines(ctx: CheckContext, cl: Claims) -> None:
    cs = ctx.cs
    z = cs.feuerbach_point
    if cs.q == cs.ninepoint_center:
        raise _Skip("q coincides with the nine-point center")
    # det(G, v, q) = (u-v)(v-w)(w-u)sigma, and q = N on the outer ellipse:
    # from here on q, O and p_iso all lie off the axis
    axis = join(CENTROID, cs.v)
    cl.equal("z_is_axis_meet_qn", z, meet(axis, join(cs.q, cs.ninepoint_center)))
    if cs.circumcenter != cs.p_iso:
        cl.equal("anticomplement_z", anticomplement(z), meet(axis, join(cs.circumcenter, cs.p_iso)))
    pullback = transform_conic(cs.cevian_map_inverse, cs.cevian_conic)
    cl.equal("anticevian_conic_center", pullback.center(), anticomplement(z))


@_register("Ztilde_fourth_intersection", "the reflected center is the fourth common point of cevian conic and circumconic")
def _check_ztilde(ctx: CheckContext, cl: Claims) -> None:
    cs = ctx.cs
    zt = ctx.require("fourth_intersection")
    cl.true("ztilde_on_cevian_conic", cs.cevian_conic.contains(zt), zt)
    cl.true("ztilde_on_circumconic", cs.circumconic.contains(zt), zt)


@_register("S1T1_parallel", "the two cevian chords of the circumconic from a vertex subtend a side-parallel")
def _check_s1t1(ctx: CheckContext, cl: Claims) -> None:
    cs = ctx.cs
    if cs.orthocenter.is_infinite():
        raise _Skip("orthocenter-like point is infinite")
    if cs.flags.h_is_vertex is None:
        ah = join(VERTEX_A, cs.orthocenter)
        if incident(cs.circumcenter, ah):
            raise _Skip("circumcenter-like point lies on the vertex cevian")
    else:
        if cs.flags.h_is_vertex != "A":
            raise _Skip("vertex case stated only for the first vertex")
        ah = parallel_through(VERTEX_A, join(cs.q, cs.traces[0]))
    s1 = second_intersection(ah, cs.circumconic, VERTEX_A)
    t1 = second_intersection(
        join(VERTEX_A, cs.circumcenter), cs.circumconic, VERTEX_A
    )
    cl.note("s1", s1)
    cl.note("t1", t1)
    if s1 == t1:
        raise _Skip("chords touch the conic at one point")
    cl.true("s1t1_parallel_side", parallel(join(s1, t1), SIDE_BC))


@_register("lemma_equivalences_HA", "vertex-orthocenter points satisfy the parallelogram and collinearity equivalences")
def _check_lemma_ha(ctx: CheckContext, cl: Claims) -> None:
    cs = ctx.cs
    if cs.flags.h_is_vertex != "A":
        raise _Skip("orthocenter-like point is not the first vertex")
    # F - A = Q - E and E - A = Q - F both say: AQ and EF bisect each other
    _, e, f = cs.traces
    parallelogram = midpoint(VERTEX_A, cs.q) == midpoint(e, f)
    cl.true("qe_equals_af", parallelogram, cs.q)
    cl.true("qf_equals_ae", parallelogram)
    d3, e3, f3 = cs.traces_iso
    line_c = join(cs.q, MID_CA)
    cl.true(
        "f3_line_collinear",
        incident(f3, line_c) and incident(complement(e3), line_c),
        line_c,
    )
    line_d = join(cs.q, MID_AB)
    cl.true(
        "e3_line_collinear",
        incident(e3, line_d) and incident(complement(f3), line_d),
        line_d,
    )


@_register("four_points_same_HO", "the anticevian sibling points share both generalized centers and their conics meet in a,b,c,h", "median", "steiner")
def _check_four_points(ctx: CheckContext, cl: Claims) -> None:
    cs = ctx.cs
    fam = ctx.family()
    cl.equal("a_from_anticevian", VERTEX_A, meet(join(fam.q_b, fam.q_c), join(cs.q, fam.q_a)))
    cl.equal("b_from_anticevian", VERTEX_B, meet(join(fam.q_a, fam.q_c), join(cs.q, fam.q_b)))
    cl.equal("c_from_anticevian", VERTEX_C, meet(join(fam.q_a, fam.q_b), join(cs.q, fam.q_c)))
    cl.equal(
        "circumconic_is_anticevian_ninepoint",
        nine_point_conic((fam.q_a, fam.q_b, fam.q_c, cs.q)),
        cs.circumconic,
    )
    conics = [cs.cevian_conic]
    for name, sib in zip(("p_a", "p_b", "p_c"), map(Centers, fam.siblings())):
        cl.equal(f"{name}_same_o", sib.circumcenter, cs.circumcenter)
        cl.equal(f"{name}_same_h", sib.orthocenter, cs.orthocenter)
        conics.append(sib.cevian_conic)
    # distinctness presumes nondegenerate conics: a sibling landing on a
    # median collapses its conic to a line pair, outside the claim's scope
    solid = [c for c in conics if not c.is_degenerate()]
    for i in range(len(solid)):
        for j in range(i + 1, len(solid)):
            cl.true(f"conics_{i}{j}_distinct", solid[i] != solid[j])
    for i, conic in enumerate(conics):
        for tag, pt in (*zip("abc", VERTICES), ("h", cs.orthocenter)):
            cl.true(f"conic_{i}_contains_{tag}", conic.contains(pt))


@_register("perspectivity_medial_transfer", "q is the perspector of the medial triangle and the transfer image of abc", "median", "steiner")
def _check_persp_a(ctx: CheckContext, cl: Claims) -> None:
    cs = ctx.cs
    tri2 = tuple(cs.transfer_map(v) for v in VERTICES)
    cl.equal("perspector_is_q", perspector(MIDPOINTS, tri2), cs.q)


@_register("perspectivity_anticevian_medial", "the orthocenter preimage is the perspector of the two anticevian-derived triangles", "median", "steiner")
def _check_persp_b(ctx: CheckContext, cl: Claims) -> None:
    cs = ctx.cs
    tinv = cs.cevian_map_inverse
    tinv_iso = cs.cevian_map_iso_inverse
    tri1 = tuple(tinv(v) for v in VERTICES)
    tri2 = tuple(tinv_iso(m) for m in MIDPOINTS)
    cl.equal("perspector_is_preimage", perspector(tri1, tri2), cs.orthocenter_preimage)
    cl.true(
        "first_vertex_collinear",
        are_collinear(tri1[0], cs.orthocenter_preimage, tri2[0]),
    )


@_register("perspectivity_ABC_medial", "the orthocenter-like point is the perspector of abc and a transfer-medial triangle", "median", "steiner")
def _check_persp_c(ctx: CheckContext, cl: Claims) -> None:
    cs = ctx.cs
    tinv = cs.transfer_map_inverse
    tri2 = tuple(tinv(m) for m in MIDPOINTS)
    cl.equal(
        "perspector_is_orthocenter",
        perspector(VERTICES, tri2),
        cs.orthocenter,
    )
    cl.true("a_h_collinear", are_collinear(VERTEX_A, cs.orthocenter, tri2[0]))


@_register("perspectivity_ceva_conjugate", "the orthocenter preimage is the perspector of the anticevian and iso-cevian triangles", "median", "steiner")
def _check_persp_d(ctx: CheckContext, cl: Claims) -> None:
    cs = ctx.cs
    fam = ctx.family()
    tri1 = (fam.q_a, fam.q_b, fam.q_c)
    cl.equal(
        "perspector_is_preimage",
        perspector(tri1, cs.traces_iso),
        cs.orthocenter_preimage,
    )


@_register("perspectivity_second_cevian", "the orthocenter-like point is the perspector of the inverse-transfer and second-cevian triangles", "median", "steiner")
def _check_persp_e(ctx: CheckContext, cl: Claims) -> None:
    cs = ctx.cs
    tinv = cs.transfer_map_inverse
    tri1 = tuple(tinv(v) for v in VERTICES)
    tri2 = tuple(cs.second_cevian_map(v) for v in VERTICES)
    cl.equal(
        "perspector_is_orthocenter", perspector(tri1, tri2), cs.orthocenter
    )


@_register("gergonne_feuerbach_hyperbola", "for the gergonne point the cevian conic carries the classical centers")
def _check_gergonne(ctx: CheckContext, cl: Claims) -> None:
    sides = ctx.config.sides
    if sides is None:
        raise _Skip("no triangle side lengths attached")
    if ctx.cs.p != gergonne_point(sides):
        raise _Skip("p is not the gergonne point of the attached triangle")
    cs = ctx.cs
    oracle = classical_centers(sides)
    cl.equal("q_is_incenter", cs.q, oracle["incenter"])
    cl.equal("p_iso_is_nagel", cs.p_iso, oracle["nagel"])
    cl.equal("q_iso_is_mittenpunkt", cs.q_iso, oracle["mittenpunkt"])
    cl.equal("h_is_classical_orthocenter", cs.orthocenter, oracle["orthocenter"])
    conic = ctx.require("cevian_conic")
    for name in ("incenter", "nagel", "mittenpunkt", "orthocenter"):
        cl.true(f"{name}_on_conic", conic.contains(oracle[name]), oracle[name])


# three proper conics meet the line at infinity in six points at most, so
# at least two of these eight directions are tested
_PSI_DIRECTIONS = tuple(
    (k, Point(1, k, -1 - k)) for k in (2, 3, 5, 7, 11, 13, 17, 19)
)


@_register("psi_involutions_agree", "the three central conics induce one conjugate-direction involution at infinity")
def _check_psi(ctx: CheckContext, cl: Claims) -> None:
    cs = ctx.cs
    if cs.q.is_infinite() or cs.circumcenter.is_infinite():
        raise _Skip("involutions need ordinary conic centers")
    invs = (
        InfinityInvolution(cs.inconic),
        InfinityInvolution(cs.circumconic),
        InfinityInvolution(cs.ninepoint_conic),
    )
    tested = 0
    for k, x in _PSI_DIRECTIONS:
        try:
            images = [inv(x) for inv in invs]
        except SelfConjugate:
            continue
        cl.true(
            f"agree_at_{k}",
            images[0] == images[1] == images[2],
            images[0],
        )
        cl.true(f"involutive_at_{k}", invs[0](images[0]) == x)
        tested += 1
        if tested == 5:
            break


@_register("Htilde_midpoint_reflection", "the orthocenter preimage is a p_iso midpoint and the reflection of q in the circumcenter", "steiner")
def _check_htilde(ctx: CheckContext, cl: Claims) -> None:
    cs = ctx.cs
    ht = cs.orthocenter_preimage
    cl.equal(
        "preimage_is_midpoint",
        ht,
        midpoint(cs.p_iso, anticomplement(cs.orthocenter)),
    )
    cl.equal("preimage_is_reflection", ht, reflect_through(cs.circumcenter, cs.q))


@_register("HA_fallback_tangency", "when the orthocenter-like point is a vertex, the complement conic is tangent to the circumconic there")
def _check_ha_fallback(ctx: CheckContext, cl: Claims) -> None:
    cs = ctx.cs
    which = cs.flags.h_is_vertex
    if which is None:
        raise _Skip("orthocenter-like point is not a vertex")
    vertex = VERTICES["ABC".index(which)]
    mid_opposite = MIDPOINTS["ABC".index(which)]
    cl.equal("orthocenter_is_vertex", cs.orthocenter, vertex)
    cl.equal("circumcenter_is_midpoint", cs.circumcenter, mid_opposite)
    cl.equal(
        "nh_is_complement",
        cs.ninepoint_conic,
        transform_conic(complement_map(), cs.circumconic),
    )
    cl.true(
        "tangent_at_vertex",
        tangent_conics_at(cs.ninepoint_conic, cs.circumconic, vertex),
        vertex,
    )
    for name, pt in (("vertex", vertex), ("mid_bc", MID_BC), ("mid_ca", MID_CA), ("mid_ab", MID_AB)):
        cl.true(f"nh_contains_{name}", cs.ninepoint_conic.contains(pt))


@_register("steiner_collapse", "on the outer centroid ellipse the three centers collapse to one infinite point")
def _check_steiner(ctx: CheckContext, cl: Claims) -> None:
    cs = ctx.cs
    if not cs.flags.on_steiner_circumellipse:
        raise _Skip("p is not on the outer centroid ellipse")
    cl.true("incidence", isotomic_image_of_line(LINE_AT_INFINITY).contains(cs.p), cs.p)
    cl.equal("o_equals_h", cs.circumcenter, cs.orthocenter)
    cl.equal("h_equals_q", cs.orthocenter, cs.q)
    cl.equal("q_equals_p_iso", cs.q, cs.p_iso)
    cl.true("collapsed_point_infinite", cs.q.is_infinite(), cs.q)
    cl.true("inconic_is_parabola", infinity_intersection_count(cs.inconic) == 1)
    cl.equal("inconic_center", cs.inconic.center(), cs.q)


@_register("special_sqrt2_configuration", "the sqrt(2) configuration: translation map, collinear centers, and exact ratios")
def _check_special(ctx: CheckContext, cl: Claims) -> None:
    cs = ctx.cs
    if cs.flags.h_is_vertex != "A" or cs.circumcenter != MID_BC:
        raise _Skip("orthocenter-like point is not the first vertex")
    if cs.traces_iso[0] != midpoint(VERTEX_A, cs.p_iso):
        raise _Skip("the bisection hypothesis fails")
    kind = cs.circum_to_inconic.classify()
    cl.true("map_is_translation", isinstance(kind, Translation), kind)
    line = anticomplement_map().apply_to_line(
        anticomplement_map().apply_to_line(SIDE_BC)
    )
    cl.equal("circumconic_is_isotomic_image", cs.circumconic, isotomic_image_of_line(line))
    cl.true(
        "centers_collinear_with_p",
        are_collinear(cs.circumcenter, cs.circumcenter_iso, cs.p)
        and are_collinear(cs.circumcenter, cs.p, cs.p_iso),
    )
    ratio = collinear_ratio(cs.circumcenter, cs.p_iso, cs.p)
    cl.true("distance_ratio_three", ratio in (3, -3), ratio)
    d = cs.traces[0]
    side_ratio = collinear_ratio(cs.circumcenter, d, VERTEX_C)
    cl.true(
        "squared_side_ratio_two",
        side_ratio.a == 0 and side_ratio.b in (1, -1) and side_ratio.d == 2,
        side_ratio,
    )
    a3 = cs.cevian_map(cs.traces_iso[0])
    cl.equal("a3_is_midpoint", a3, midpoint(cs.circumcenter, d))
    cl.equal("p_is_centroid", cs.p, centroid_of(cs.circumcenter, d, cs.q))
    l_g = parallel_through(CENTROID, SIDE_BC)
    cl.true("p_on_centroid_parallel", incident(cs.p, l_g), l_g)
    fam = ctx.family()
    cl.equal(
        "sibling_is_second_intersection",
        fam.p_a,
        second_intersection(join(cs.p, CENTROID), cs.circumconic, cs.p),
    )
    locus = locus_conic("A")
    hits = line_conic_intersections(l_g, locus)
    cl.true("two_locus_points_on_line", isinstance(hits, TwoPoints), hits)
    if isinstance(hits, TwoPoints):
        cl.true("p_is_a_locus_meet", cs.p in (hits.p1, hits.p2))
        for i, pt in enumerate((hits.p1, hits.p2)):
            cl.true(
                f"tangent_{i}_through_vertex",
                incident(VERTEX_A, locus.tangent_at(pt)),
            )


# One entry per implemented claim, in registration order.
DOCUMENTED_CHECKS: tuple[tuple[str, str], ...] = tuple(_DESCRIPTIONS.items())


# ---------------------------------------------------------------------------
# driver


def fixed_configurations(field_policy: str = "auto") -> list[Config]:
    """The pinned configurations every suite run covers in addition to the
    seeded random sample."""
    configs = [
        Config(gergonne_point(sides), sides, "gergonne-" + "-".join(map(str, sides)))
        for sides in [(Fraction(3), Fraction(4), Fraction(5)), (Fraction(13), Fraction(14), Fraction(15))]
    ] + [
        Config(Point(6, 3, 2), label="vertex-locus-interior"),
        Config(Point(-1, 3, 2), label="vertex-locus-exterior"),
        Config(Point(1, 1, 2), label="on-median"),
        Config(Point(3, 6, -2), label="steiner"),
        Config(Point(1, -6, 15), label="feuerbach-at-infinity"),
    ]
    if field_policy == "auto":
        configs.append(Config(special_configuration_point(), label="sqrt2-special"))
    elif field_policy != "rational":
        raise ValueError(f"unknown field policy {field_policy!r}")
    return configs


def run_point(
    p: Point,
    check_ids: Optional[Iterable[str]] = None,
    sides: Optional[Sequence[Fraction]] = None,
    registry: Optional[dict[str, CheckFn]] = None,
) -> list[CheckResult]:
    """Every wanted check (all by default) at one driving point, on one
    construction, with the triangle's side lengths if given: the replay of
    a witness's `config`."""
    reg = REGISTRY if registry is None else registry
    config = Config(p, tuple(Fraction(s) for s in sides) if sides else None)
    return _check_config(config, _wanted(reg, check_ids), reg)


def _wanted(reg: dict[str, CheckFn], check_ids: Optional[Iterable[str]]) -> list[str]:
    wanted = list(reg) if check_ids is None else list(check_ids)
    for cid in wanted:
        if cid not in reg:
            raise UnknownCheck(f"no check registered under {cid!r}")
    return wanted


def _error_witness(exc: Exception) -> dict:
    """The type and message of an error, and the module it was raised in."""
    tb = exc.__traceback__
    while tb is not None and tb.tb_next is not None:
        tb = tb.tb_next
    module = tb.tb_frame.f_globals.get("__name__", "?") if tb is not None else "?"
    return {"error": f"{type(exc).__name__}: {exc}", "raised_in": module}


def _check_config(config: Config, wanted: list[str], reg: dict[str, CheckFn]) -> list[CheckResult]:
    """The wanted checks against one configuration, which all share one
    description of it.  A hard degeneracy skips them all; any other error
    of the construction fails them all, with the error as the witness."""
    described = config.describe()
    try:
        ctx = CheckContext(config)
    except HardDegeneracy as exc:
        return [CheckResult(cid, "skip", described, reason=str(exc)) for cid in wanted]
    except Exception as exc:
        witness = _error_witness(exc)
        return [CheckResult(cid, "fail", described, witness=dict(witness)) for cid in wanted]
    return [_evaluate(reg[cid], cid, ctx, described) for cid in wanted]


def _evaluate(fn: CheckFn, check_id: str, ctx: CheckContext, described: dict) -> CheckResult:
    for locus in EXCLUDED_LOCI.get(check_id, ()):
        flag, reason = _LOCI[locus]
        if getattr(ctx.cs.flags, flag):
            return CheckResult(check_id, "skip", described, reason=reason)
    cl = Claims()
    try:
        fn(ctx, cl)
    except _Skip as s:
        return CheckResult(check_id, "skip", described, reason=s.reason)
    except Exception as exc:
        cl.witness.update(_error_witness(exc))
        return CheckResult(check_id, "fail", described, witness=cl.witness)
    if cl.failed:
        cl.witness["failed_claims"] = ", ".join(cl.failed)
        return CheckResult(check_id, "fail", described, witness=cl.witness)
    if cl.checked == 0:  # a check that returns without a claim has a bug
        cl.witness["reason"] = "the check made no claim"
        return CheckResult(check_id, "fail", described, witness=cl.witness)
    return CheckResult(check_id, "pass", described, witness=cl.witness)


def tally(results: Iterable[CheckResult]) -> dict[str, dict[str, int]]:
    """Pass, fail and skip counts for each check id."""
    out: dict[str, dict[str, int]] = {}
    for r in results:
        slot = out.setdefault(r.check_id, {"pass": 0, "fail": 0, "skip": 0})
        slot[r.status] += 1
    return out


class SuiteReport:
    def __init__(
        self, seed: int, count: int, field_policy: str, results: list[CheckResult], elapsed: float
    ):
        self.seed = seed
        self.count = count
        self.field_policy = field_policy
        self.results = results
        self.elapsed = elapsed

    def tallies(self) -> dict[str, dict[str, int]]:
        return tally(self.results)

    def canonical_dict(self) -> dict:
        """Everything except wall-clock time; identical across reruns."""
        return {
            "seed": self.seed,
            "count": self.count,
            "field_policy": self.field_policy,
            "tallies": self.tallies(),
            "results": [r.to_dict() for r in self.results],
        }

    def to_dict(self) -> dict:
        out = self.canonical_dict()
        out["elapsed_seconds"] = self.elapsed
        return out


def run_suite(
    seed: int,
    count: int,
    field_policy: str = "auto",
    check_ids: Optional[Iterable[str]] = None,
    registry: Optional[dict[str, CheckFn]] = None,
) -> SuiteReport:
    """Run every registered check over `count` seeded random nondegenerate
    points plus the fixed configurations; deterministic for a fixed seed.
    An error in a construction or a check does not end the run: it fails
    the checks of that configuration, or that check, with the error as the
    witness."""
    reg = REGISTRY if registry is None else registry
    wanted = _wanted(reg, check_ids)
    start = time.monotonic()
    configs = fixed_configurations(field_policy)
    configs.extend(
        Config(p, label=f"sample-{i}")
        for i, p in enumerate(sample_nondegenerate(seed, count))
    )
    results: list[CheckResult] = []
    for config in configs:
        results.extend(_check_config(config, wanted, reg))
    return SuiteReport(seed, count, field_policy, results, time.monotonic() - start)
