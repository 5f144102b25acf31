from fractions import Fraction

import pytest

import oracle
from workloads import WORKLOADS, ConstructBits, QuadraticField, Suite


def fingerprint(name, inputs):
    if name == "quadratic_field":
        return [(d, str(point)) for d, _, _, point in inputs]
    return inputs


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_are_deterministic_per_seed(name):
    wl = WORKLOADS[name]
    first = fingerprint(name, wl.make_inputs(3))
    assert first == fingerprint(name, wl.make_inputs(3))
    if name != "suite":  # run_suite takes the seed itself
        assert first != fingerprint(name, wl.make_inputs(4))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_suite_samples_avoid_every_locus(seed):
    from cevian import sample_nondegenerate

    for p in sample_nondegenerate(seed, Suite.COUNT):
        assert oracle.degeneracy_loci(oracle.parse_point(str(p))) == []


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_construct_bits_inputs(seed):
    wl = ConstructBits()
    inputs = wl.make_inputs(seed)
    assert len(inputs) == wl.round_size
    for p, text in inputs:
        assert oracle.degeneracy_loci(p) == []
        assert tuple(int(c) for c in text.split(":")) == p
        assert len({abs(c).bit_length() for c in p}) == 1
    # one draw in each equal slice of log(bits), from 4 to 1024 bits
    bits = sorted(abs(p[0]).bit_length() for p, _ in inputs)
    n, ratio = wl.round_size, wl.MAX_BITS / wl.MIN_BITS
    for i, b in enumerate(bits):
        assert round(wl.MIN_BITS * ratio ** (i / n)) <= b <= round(wl.MIN_BITS * ratio ** ((i + 1) / n))


def is_prime(n):
    return n > 1 and all(n % k for k in range(2, int(n**0.5) + 1))


@pytest.mark.parametrize("seed", [1, 2])
def test_quadratic_field_inputs(seed):
    wl = QuadraticField()
    inputs = wl.make_inputs(seed)
    assert len(inputs) == wl.round_size
    for d, exact, _, point in inputs:
        factors = [k for k in range(2, int(d**0.5) + 1) if d % k == 0 and is_prime(k)]
        assert len(factors) == 1
        p1, p2 = factors[0], d // factors[0]
        assert p1 != p2 and is_prime(p2)
        assert all(2 ** (wl.PRIME_BITS - 1) <= f < 2**wl.PRIME_BITS for f in (p1, p2))
        assert oracle.degeneracy_loci(exact) == []
        assert all(isinstance(c, oracle.Quad) and c.b for c in exact[1:])
        assert isinstance(exact[0], (int, Fraction))
        assert oracle.same_point(oracle.parse_point(str(point), d), exact)
