"""The traffic the coverage gate runs the package under.

    python -I -B tests/coverage_traffic.py SRC

imports cevian from SRC with a profile hook already set, so that bodies run
at import count too, and calls the package as its users do: each workload
of the benchmark on perfbench's own inputs, with the calls of its timed run
and of its traced run, and every form of every CLI command, each of which
must give its exit code.  It prints one JSON list of the [file name, first
line] of every code object of the package that was entered.
"""

import contextlib
import io
import json
import operator
import os
import sys
import tempfile
from pathlib import Path

SRC = Path(sys.argv[1]).resolve()
PACKAGE = str(SRC / "cevian") + os.sep
SEED = 1
entered = set()


def record(frame, event, arg):
    if event == "call":
        entered.add(frame.f_code)


sys.path[:0] = [str(SRC), str(SRC.parent / "perfbench")]
sys.setprofile(record)

import run as bench  # noqa: E402  (perfbench/run.py)
from workloads import WORKLOADS  # noqa: E402

from cevian import Point, cli, construct  # noqa: E402
from cevian.render import PRESETS  # noqa: E402
from cevian.verify import REGISTRY, run_suite  # noqa: E402


def timed_run(name, inputs, tmp):
    """The calls of one round of the workload, as workloads.py makes them."""
    if name == "suite":
        run_suite(inputs, WORKLOADS[name].COUNT, registry=dict(REGISTRY))
    elif name == "construct_bits":
        for _, text in inputs:
            assert cli.main(["construct", f"--p={text}", "--out", os.path.join(tmp, "report.json")]) == 0, text
    else:
        for _, _, _, point in inputs:
            construct(point)


def traced_calls(name, inputs):
    """The calls run.py's traced run makes past its rounds."""
    operands = WORKLOADS[name].operands(inputs)
    for fn in (operator.add, operator.mul, operator.truediv):
        for x, y in operands.rational_pairs:
            fn(x, y)
    for x, y in operands.sqrt_pairs:
        operator.mul(x, y)
    for t in operands.triples:
        Point(*t)
    for m in operands.maps:
        m.inverse()
    bench.coeff_bits(construct(Point(*operands.triples[0])))


def cli_calls(tmp):
    """(argv, exit code) of every command form."""
    out = os.path.join(tmp, "out")
    config = os.path.join(tmp, "figure.cfg")
    Path(config).write_text("# a figure\np = 7:3:2\npreset = fig3\nz_locus = yes\n", encoding="utf-8")
    calls = [
        (["construct", "--p", "2:3:6", "--triangle", "0,0;5,0;16/5,12/5", "--out", out], 0),
        (["construct", "--p", "1:1+1*sqrt(2):1-1*sqrt(2)", "--out", out], 0),
        (["construct", "--p", "1:1:2", "--out", out], 0),  # on a median
        (["construct", "--p", "3:6:-2", "--out", out], 0),  # on the outer ellipse
        (["construct", "--p", "0:1:1", "--out", out], 2),  # on a sideline
        (["construct", "--p", "1:2", "--out", out], 2),
        (["verify", "--seed", "3", "--count", "2", "--out", out], 0),
        (["verify", "--p", "2:3:6", "--out", out], 0),
        (["verify", "--seed", "3", "--count", "1", "--check", "lambda_maps", "--out", out], 0),
        (["verify", "--seed", "3", "--count", "1", "--field-policy", "rational", "--out", out], 0),
        (["locus", "--vertex", "A", "--out", out], 0),
        (["locus", "--vertex", "B", "--out", out], 0),
        (["locus", "--out", out], 0),
        (["svg", "--p", "7:3:2", "--preset", "fig3", "--z-locus", "--out", out], 0),
        (["--config", config, "svg", "--out", out], 0),
    ]
    calls += [(["svg", "--p", "2:3:6", "--preset", name, "--out", out], 0) for name in sorted(PRESETS)]
    return calls


with tempfile.TemporaryDirectory() as tmp:
    for name, workload in WORKLOADS.items():
        inputs = workload.make_inputs(SEED)
        timed_run(name, inputs, tmp)
        traced_calls(name, inputs)
    with contextlib.redirect_stderr(io.StringIO()):
        for argv, code in cli_calls(tmp):
            assert cli.main(argv) == code, argv

sys.setprofile(None)
json.dump(
    sorted({(code.co_filename[len(PACKAGE):], code.co_firstlineno) for code in entered if code.co_filename.startswith(PACKAGE)}),
    sys.stdout,
)
