"""The package's record types: reprs, equality, hashing and immutability.

Witness strings and the golden digest print records, so each repr below is
spelled out literally, in the `Name(field=value, ...)` form they have
always had.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from cevian import Point, Scalar
from cevian.conics import NoRealIntersection, TangentAt, TwoPoints
from cevian.constructions import AnticevianFamily, DegeneracyReport, anticevian_family, construct
from cevian.projective import AffineReflection, GeneralMap, Homothety, Identity, Line, Translation
from cevian.render import RenderTriangle
from cevian.scalar import NoRealRoots, Roots
from cevian.verify import CheckResult, Config

P, Q = Point(2, 3, 6), Point(1, -1, 0)
GERGONNE_SIDES = (Fraction(3), Fraction(4), Fraction(5))


def records():
    """(record, a copy built anew, its repr) for every record type."""
    makers = [
        (NoRealRoots, "NoRealRoots()"),
        (
            lambda: Roots(1, (2, 0), ((1, 0), (-3, 0))),
            "Roots(d=1, den=(2, 0), nums=((1, 0), (-3, 0)))",
        ),
        (
            lambda: TwoPoints(P, Q),
            "TwoPoints(p1=Point('(2 : 3 : 6)'), p2=Point('(1 : -1 : 0)'))",
        ),
        (lambda: TangentAt(P), "TangentAt(p=Point('(2 : 3 : 6)'))"),
        (NoRealIntersection, "NoRealIntersection()"),
        (Identity, "Identity()"),
        (lambda: Translation(Q), "Translation(direction=Point('(1 : -1 : 0)'))"),
        (  # the seed-42 witness
            lambda: Homothety(Point(27, 32, 25), Scalar(Fraction(-2, 5))),
            "Homothety(center=Point('(27 : 32 : 25)'), ratio=Scalar('-2/5'))",
        ),
        (
            lambda: AffineReflection(Line(1, -1, 0), Q),
            "AffineReflection(axis=Line('[1 : -1 : 0]'), direction=Point('(1 : -1 : 0)'))",
        ),
        (GeneralMap, "GeneralMap()"),
        (
            lambda: DegeneracyReport(False, False, True, False, "A"),
            "DegeneracyReport(on_sideline=False, on_anticomplementary_sideline=False, "
            "on_median=True, on_steiner_circumellipse=False, h_is_vertex='A')",
        ),
        (
            lambda: anticevian_family(construct(P)),
            "AnticevianFamily(q_a=Point('(3 : -4 : -5)'), q_b=Point('(3 : -4 : 5)'), "
            "q_c=Point('(3 : 4 : -5)'), p_a=Point('(1 : -6 : -3)'), "
            "p_b=Point('(6 : -1 : 2)'), p_c=Point('(3 : 2 : -1)'))",
        ),
        (
            lambda: Config(P, GERGONNE_SIDES, "gergonne-3-4-5"),
            "Config(p=Point('(2 : 3 : 6)'), sides=(Fraction(3, 1), Fraction(4, 1), "
            "Fraction(5, 1)), label='gergonne-3-4-5')",
        ),
        (
            lambda: RenderTriangle.parse("0,0;3/2,0;0,1"),
            "RenderTriangle(a=(Fraction(0, 1), Fraction(0, 1)), "
            "b=(Fraction(3, 2), Fraction(0, 1)), c=(Fraction(0, 1), Fraction(1, 1)))",
        ),
    ]
    return [pytest.param(make(), make(), text, id=text.split("(")[0]) for make, text in makers]


@pytest.mark.parametrize("record, again, text", records())
def test_record_prints_its_fields(record, again, text):
    assert repr(record) == text


@pytest.mark.parametrize("record, again, text", records())
def test_record_equals_and_hashes_by_value(record, again, text):
    assert record is not again
    assert record == again and not record != again
    assert hash(record) == hash(again) == hash(tuple(record.as_dict().values()))
    assert copy.copy(record) == record == pickle.loads(pickle.dumps(record))


@pytest.mark.parametrize("record, again, text", records())
def test_record_refuses_assignment_and_deletion(record, again, text):
    for field in [*record.as_dict(), "extra"]:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
    assert repr(record) == text


def test_records_of_different_types_differ():
    assert Identity() != GeneralMap()
    assert NoRealRoots() != NoRealIntersection()
    assert Translation(P) != (P,) and (P,) != Translation(P)
    assert TangentAt(P) != Translation(P)
    assert Translation(P) != Translation(Q)
    assert DegeneracyReport(False, False, True, False, None) != DegeneracyReport(
        False, False, True, False, "A"
    )


def test_config_defaults_and_keywords():
    config = Config(P)
    assert (config.p, config.sides, config.label) == (P, None, "")
    assert Config(P, label="x") == Config(p=P, label="x") == Config(P, None, "x")
    assert Config(label="x", sides=GERGONNE_SIDES, p=P) == Config(P, GERGONNE_SIDES, "x")
    with pytest.raises(TypeError):
        Config()
    with pytest.raises(TypeError):
        Config(P, label="x", colour="red")
    with pytest.raises(TypeError):
        Config(P, None, "", "extra")
    with pytest.raises(TypeError):
        Config(P, p=P)


def test_records_built_positionally_or_by_keyword_agree():
    family = anticevian_family(construct(P))
    with pytest.raises(TypeError):
        AnticevianFamily(**family.as_dict())
    with pytest.raises(TypeError):
        Homothety(ratio=Scalar(2), center=P)
    with pytest.raises(TypeError):
        Homothety(P)


@pytest.mark.parametrize("record, again, text", records())
def test_record_refuses_a_wrong_number_of_fields(record, again, text):
    values = tuple(record.as_dict().values())
    if isinstance(record, Config):  # sides and label have defaults
        wrong = [(), (*values, "extra")]
    else:
        wrong = [(*values, None)] + ([values[:-1]] if values else [])
    for args in wrong:
        with pytest.raises(TypeError):
            type(record)(*args)
    assert type(record)(*values) == record


def test_render_triangle_caches_its_frame():
    tri = RenderTriangle.default()
    assert tri.frame is tri.frame
    assert tri.sidelines is tri.sidelines
    assert set(vars(tri)) == {"frame", "sidelines"}
    assert tri == RenderTriangle.default()


def test_check_results_do_not_share_a_witness():
    first = CheckResult("c", "skip", {})
    second = CheckResult("c", "skip", {})
    assert first.witness == {} and first.witness is not second.witness
