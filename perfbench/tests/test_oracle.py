from fractions import Fraction

import pytest

import oracle
from oracle import Quad
from cevian import Point, Scalar, construct, special_configuration_point


def program_output(point, d=None):
    """H, O, Z and the two conics of cevian's construction, parsed by the oracle."""
    cs = construct(point)

    def parse(member):
        return oracle.parse_point(str(member), d)

    return {
        "h": parse(cs.orthocenter),
        "o": parse(cs.circumcenter),
        "z": parse(cs.feuerbach_point),
        "ninepoint": oracle.parse_matrix(str(cs.ninepoint_conic), d),
        "inconic": oracle.parse_matrix(str(cs.inconic), d),
        "q": parse(cs.q),
    }


def check(p, out):
    return oracle.check_construction(
        p, out["h"], out["o"], out["z"], out["ninepoint"], out["inconic"]
    )


RATIONAL = (7, -3, 11)
D = 2021  # 43 * 47
QUADRATIC = (3, Quad(1, 2, D), Quad(-4, 1, D))


@pytest.fixture(scope="module")
def rational_output():
    return program_output(Point(*RATIONAL))


@pytest.fixture(scope="module")
def quadratic_output():
    x, y, z = QUADRATIC
    return program_output(Point(Scalar(x), Scalar(y.a, y.b, D), Scalar(z.a, z.b, D)), D)


def test_accepts_the_program_output(rational_output, quadratic_output):
    assert check(RATIONAL, rational_output) == []
    assert check(QUADRATIC, quadratic_output) == []


def test_accepts_the_sqrt2_configuration():
    p = special_configuration_point()
    exact = (1, Quad(1, 1, 2), Quad(1, -1, 2))
    assert oracle.same_point(oracle.parse_point(str(p), 2), exact)
    assert check(exact, program_output(p, 2)) == []


@pytest.mark.parametrize("p, out", [(RATIONAL, "rational_output"), (QUADRATIC, "quadratic_output")])
def test_rejects_a_perturbed_h(p, out, request):
    out = dict(request.getfixturevalue(out))
    x, y, z = out["h"]
    out["h"] = (x, y, z + 1)
    assert any(problem.startswith("H ") for problem in check(p, out))


def test_rejects_swapped_o(rational_output):
    out = dict(rational_output, h=rational_output["o"], o=rational_output["h"])
    problems = check(RATIONAL, out)
    assert any(problem.startswith("H ") for problem in problems)
    assert any(problem.startswith("O ") for problem in problems)


def test_rejects_a_non_tangent_conic_pair(rational_output):
    other = program_output(Point(5, 2, -9))
    problems = oracle.check_tangency(
        rational_output["ninepoint"], other["inconic"], rational_output["z"]
    )
    assert problems
    # a rescaled matrix is the same conic
    assert oracle.check_tangency(
        rational_output["ninepoint"],
        tuple(tuple(3 * x for x in row) for row in rational_output["inconic"]),
        rational_output["z"],
    ) == []


def test_rejects_conics_that_meet_at_z_without_touching(rational_output):
    # N + (l1 l2^T + l2 l1^T) with l1 through Z and l2 not: still through Z,
    # but its tangent there is N Z + (l2 . Z) l1, another line
    n, z = rational_output["ninepoint"], rational_output["z"]
    l1 = oracle.cross(z, (1, 2, 3))
    l2 = (1, 0, 0)
    assert oracle.dot(l2, z) and not oracle.same_point(l1, oracle.mat_vec(n, z))
    other = tuple(
        tuple(n[i][j] + l1[i] * l2[j] + l2[i] * l1[j] for j in range(3)) for i in range(3)
    )
    problems = oracle.check_tangency(rational_output["inconic"], other, z)
    assert problems == ["the tangent lines at Z differ"]


def test_quadratic_field_reports_output_in_another_field():
    from workloads import QuadraticField

    x, y, z = QUADRATIC
    cs = construct(Point(Scalar(x), Scalar(y.a, y.b, D), Scalar(z.a, z.b, D)))
    assert QuadraticField.check(QUADRATIC, D, cs) == []
    # read over sqrt(2), the program's coordinates over sqrt(2021) are
    # unreadable: the check reports that instead of raising
    problems = QuadraticField.check(QUADRATIC, 2, cs)
    assert len(problems) == 1 and problems[0].startswith("unreadable output")


def test_gergonne_point_of_the_3_4_5_triangle():
    sides = (3, 4, 5)
    p = oracle.gergonne_point(sides)
    assert oracle.same_point(p, (2, 3, 6))
    assert oracle.same_point(oracle.inconic_center(p), (3, 4, 5))
    assert oracle.same_point(oracle.conway_orthocenter(sides), (0, 0, 1))
    out = program_output(Point(2, 3, 6))
    assert oracle.check_gergonne(sides, out["q"], out["h"]) == []
    assert oracle.check_gergonne(sides, out["q"], (0, 1, 0))
    assert oracle.check_gergonne(sides, (1, 1, 1), out["h"])


def test_parser_reads_the_printed_forms():
    assert oracle.parse_scalar("-7/3") == Fraction(-7, 3)
    value = oracle.parse_scalar("1/2-3*sqrt(6)", 6)
    assert (value.a, value.b, value.d) == (Fraction(1, 2), -3, 6)
    with pytest.raises(oracle.OracleError):
        oracle.parse_scalar("1+1*sqrt(3)", 6)
    with pytest.raises(oracle.OracleError):
        oracle.parse_point("(1 : 2)")
    assert oracle.parse_matrix("[[1, 0, 0], [0, 1, 0], [0, 0, -1/2]]")[2][2] == Fraction(-1, 2)


def test_degeneracy_loci():
    assert oracle.degeneracy_loci((1, 2, 0)) == ["sideline"]
    assert oracle.degeneracy_loci((1, 1, 2)) == ["median"]
    assert oracle.degeneracy_loci((3, 6, -2)) == ["steiner_circumellipse"]
    assert oracle.degeneracy_loci((6, 3, 2)) == ["orthocenter_at_vertex"]
    assert "anticomplementary_sideline" in oracle.degeneracy_loci((1, -1, 5))
    assert oracle.degeneracy_loci(QUADRATIC) == []
