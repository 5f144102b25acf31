"""The calls the benchmark's traced run makes into cevian, pinned in tier-1.

`perfbench/run.py` times Scalar +, * and / on the operand pairs of a
workload, `Point(*t)` on its coordinate triples and `inverse()` on its maps,
and its coefficient-bit row reads the `.a` and `.b` of every Scalar of the
`coords` and `matrix` views of a construction.  Here each workload's
`operands()` is built from small inputs and the same calls are made, so that
trimming any of them fails these tests rather than a benchmark run.  The
names of its `LAYER_SPANS` are resolved here the same way.
"""

import operator
import sys
from importlib import import_module
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import run as bench  # noqa: E402  (perfbench/run.py)
from workloads import WORKLOADS  # noqa: E402

from cevian import AffineMap, Point, Scalar, construct  # noqa: E402

D = 6


def small_inputs(name):
    """A few inputs of the workload's own shape."""
    if name == "suite":
        return 1  # a seed: run_suite samples its own points
    if name == "construct_bits":
        points = [(2, 3, 6), (-5, 3, 7), (7, 11, -13)]
        return [(p, ":".join(map(str, p))) for p in points]
    rows = [(3, (1, 2), (-1, 1)), (-2, (5, -1), (2, 3))]
    inputs = []
    for x, (a, b), (c, e) in rows:
        scalars = (Scalar(x), Scalar(a, b, D), Scalar(c, e, D))
        inputs.append((D, None, scalars, Point(*scalars)))
    return inputs


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_calls_still_work(name):
    operands = WORKLOADS[name].operands(small_inputs(name))
    assert operands.rational_pairs and operands.triples and operands.maps
    if name != "construct_bits":  # its inputs are all rational
        assert operands.sqrt_pairs
    for x, y in operands.rational_pairs:
        assert operator.add(x, y) == Scalar(x.a + y.a)
        assert operator.mul(x, y) == Scalar(x.a * y.a)
        assert operator.truediv(x, y) == Scalar(x.a / y.a)
    for x, y in operands.sqrt_pairs:
        d = max(x.d, y.d)  # their one field
        assert operator.mul(x, y) == Scalar(x.a * y.a + x.b * y.b * d, x.a * y.b + x.b * y.a, d)
    for t in operands.triples:
        assert Point(*t).coords[0] != 0
    for m in operands.maps:
        assert m @ m.inverse() == AffineMap.identity()
    cs = construct(Point(*operands.triples[0]))
    assert bench.coeff_bits(cs) > 0


@pytest.mark.parametrize("module_name, attr, span", bench.LAYER_SPANS)
def test_layer_spans_resolve(module_name, attr, span):
    """Every name the traced run wraps resolves as it does there, to a
    callable: a rename or a move fails here, not in `--trace 1`."""
    owner = import_module(module_name)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    assert callable(getattr(owner, name))
