"""The calls the benchmark's traced run makes into cevian, pinned in tier-1.

`perfbench/run.py` times Scalar +, * and / on the operand pairs of a
workload, `Point(*t)` on its coordinate triples and `inverse()` on its maps,
and its coefficient-bit row reads the `.a` and `.b` of every Scalar of the
`coords` and `matrix` views of a construction.  Here each workload's
`operands()` is built from small inputs and the same calls are made, so that
trimming any of them fails these tests rather than a benchmark run.  The
names of its `LAYER_SPANS` are resolved here the same way, and they count
as used in the gate that keeps code only the tests call out of the library.
A second gate runs the program and names the reason for every package body
it never enters.
"""

import ast
import json
import operator
import subprocess
import sys
from graphlib import CycleError, TopologicalSorter
from importlib import import_module
from math import gcd
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import run as bench  # noqa: E402  (perfbench/run.py)
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

import cevian  # noqa: E402
from cevian import AffineMap, Point, Scalar, cli, construct  # noqa: E402
from cevian.verify import REGISTRY, fixed_configurations, run_point  # noqa: E402

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
        assert m @ m.inverse() == AffineMap(((1, 0, 0), (0, 1, 0), (0, 0, 1)))
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


def test_traced_build_parser_runs_on_every_cli_call(tmp_path):
    """The traced run wraps `cevian.cli.build_parser` as `cli.parse`: the
    parser is cached behind that module-level name, so `main` calls the
    wrapper on every run and the row keeps timing the lookup."""
    assert cli.build_parser() is cli.build_parser()
    cached = cli.build_parser
    tracer = Tracer()
    tracer.patch(cli, "build_parser", "cli.parse")
    try:
        for _ in range(2):
            assert cli.main(["locus", "--out", str(tmp_path / "locus.json")]) == 0
    finally:
        tracer.unpatch()
    assert cli.build_parser is cached
    assert tracer.totals()["cli.parse"][0] == 2


def names_read(tree):
    """(line, name, is_attribute) of every name and attribute a tree reads."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.lineno, node.id, False
        elif isinstance(node, ast.Attribute):
            yield node.lineno, node.attr, True


def test_library_holds_no_code_only_the_tests_call():
    """Every module-level def and class of the package is named elsewhere in
    it, and every method and property of its classes is read as an attribute
    elsewhere in it, unless the benchmark's scripts name it, it is registered
    as a check, or the traced run wraps it: a second copy of a computation
    that only a test calls belongs in the tests.  Dunder methods are run by
    the language, and count as used.  Bodies that share a name with a used
    one are left to the coverage gate below, which runs the program."""
    src = Path(cevian.__file__).parent
    trees = {path: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    kept = {fn.__name__ for fn in REGISTRY.values()}
    kept |= {part for _, attr, _ in bench.LAYER_SPANS for part in attr.split(".")}
    kept |= {
        name for path in BENCH.glob("*.py") for _, name, _ in names_read(ast.parse(path.read_text()))
    }
    defs = [  # (path, qualified name, node, is_method)
        (path, node.name, node, False)
        for path, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    ]
    defs += [
        (path, f"{cls.name}.{node.name}", node, True)
        for path, _, cls, _ in list(defs)
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("__")
    ]
    reads = [(path, *read) for path, tree in trees.items() for read in names_read(tree)]
    unused = [
        f"{path.name}:{qualname}"
        for path, qualname, node, is_method in defs
        if node.name not in kept
        and not any(
            name == node.name
            and (attribute or not is_method)
            and not (at == path and node.lineno <= line <= node.end_lineno)
            for at, line, name, attribute in reads
        )
    ]
    assert unused == []


TRAFFIC = Path(__file__).resolve().parent / "coverage_traffic.py"
PERFBENCH = "perfbench"

# Every body of the package that coverage_traffic.py never enters, and why
# it stays: a kind, and for the "perfbench" kind the LAYER_SPANS function of
# the traced run that is it or calls it.
NEVER_ENTERED = {
    "conics.py:conic_row": (PERFBENCH, "conic_through_five", "builds the five rows it solves"),
    "conics.py:conic_through_five": (PERFBENCH, "conic_through_five", "a LAYER_SPANS span"),
    "conics.py:inconic_with_contacts": (PERFBENCH, "inconic_with_contacts", "a LAYER_SPANS span"),
    "projective.py:null_space": (PERFBENCH, "null_space", "a LAYER_SPANS span; conic_through_five calls it"),
    "scalar.py:divide_exactly": (PERFBENCH, "null_space", "the exact division of its Bareiss step"),
    "scalar.py:Scalar.__sub__": ("tests", "the Scalar arithmetic moves to the tests in one piece"),
    "scalar.py:Scalar.__neg__": ("tests", "the Scalar arithmetic moves to the tests in one piece"),
    "projective.py:CanonicalObject.__hash__": ("language", "hash() of a point, line or matrix"),
    "scalar.py:Scalar.__hash__": ("language", "hash() equal to that of an equal rational"),
    "scalar.py:Record.__eq__": ("language", "== of two records"),
    "scalar.py:Record.__hash__": ("language", "hash() of a record"),
    "scalar.py:Record._values": ("language", "the field tuple of __eq__, __hash__ and __reduce__"),
    "scalar.py:Record.__reduce__": ("language", "pickle and copy of a record"),
    "scalar.py:Record.__setattr__": ("language", "refuses assignment to a field"),
    "scalar.py:Record.__delattr__": ("language", "refuses deletion of a field"),
    "projective.py:HomogeneousMatrix._validate": ("hook", "the base's no-op: AffineMap and Conic override it"),
    "verify.py:_error_witness": ("error path", "the witness of a check or construction that raises"),
}


def package_bodies():
    """(qualified name, file name, first line) of every function, method and
    property of the package, nested ones included; the first line is that
    of the first decorator, as in the body's code object."""

    def walk(path, node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [deco.lineno for deco in child.decorator_list])
                yield f"{path.name}:{prefix}{child.name}", path.name, first
                yield from walk(path, child, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                yield from walk(path, child, f"{prefix}{child.name}.")
            else:
                yield from walk(path, child, prefix)

    for path in sorted(Path(cevian.__file__).parent.glob("*.py")):
        yield from walk(path, ast.parse(path.read_text()), "")


def test_every_body_of_the_package_runs_or_says_why_not():
    """Code only the tests call belongs in the tests, and a name gate cannot
    see a method whose bare name another one shares.  So the program runs
    its users' traffic (coverage_traffic.py, in a fresh interpreter under
    sys.setprofile), and every package body it never enters must be listed
    in NEVER_ENTERED with its reason: no more, so that a body that starts to
    run or is deleted leaves the list too."""
    done = subprocess.run(
        [sys.executable, "-I", "-B", str(TRAFFIC), str(Path(cevian.__file__).parents[1])],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    entered = {tuple(key) for key in json.loads(done.stdout)}
    never = {name for name, file, line in package_bodies() if (file, line) not in entered}
    unlisted = sorted(never - NEVER_ENTERED.keys())
    stale = sorted(NEVER_ENTERED.keys() - never)
    assert not unlisted, f"never entered, with no reason in NEVER_ENTERED: {unlisted}"
    assert not stale, f"in NEVER_ENTERED, but entered or gone: {stale}"


def test_what_perfbench_keeps_the_traced_run_wraps():
    """A "perfbench" entry of NEVER_ENTERED is a function the traced run
    wraps as a LAYER_SPANS span, or one that such a function's body calls."""
    spans = {attr for _, attr, _ in bench.LAYER_SPANS}
    functions = {
        node.name: node
        for path in Path(cevian.__file__).parent.glob("*.py")
        for node in ast.parse(path.read_text()).body
        if isinstance(node, ast.FunctionDef)
    }
    for entry, (kind, via, *_) in NEVER_ENTERED.items():
        if kind != PERFBENCH:
            continue
        assert via in spans, entry
        name = entry.split(":")[1]
        assert name == via or name in {read for _, read, _ in names_read(functions[via])}, entry


def test_every_skip_a_check_can_give_is_given_and_nothing_fails():
    """A guard no point can reach hides a bug when one fires it, so every
    skip reason written into a check as a literal must be given somewhere
    on the loci.  The points are every (u : v : w) with nonzero integer
    coordinates of absolute value at most 4, u > 0 and gcd 1: medians,
    anticomplementary sidelines, the line at infinity, the outer ellipse and
    the vertex loci of H all hold some of them.  With the fixed
    configurations and a triangle whose Gergonne point is not p, every
    check runs on each, and none may fail.  A reason no point gives needs a
    point that gives it, not an exemption."""
    src = Path(cevian.__file__).parent / "verify.py"
    literals = {
        node.args[0].value
        for node in ast.walk(ast.parse(src.read_text()))
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_Skip"
        and isinstance(node.args[0], ast.Constant)
    }
    nonzero = [c for c in range(-4, 5) if c]
    points = [Point(u, v, w) for u in range(1, 5) for v in nonzero for w in nonzero if gcd(u, v, w) == 1]
    assert len(points) == 220
    results = [r for p in points for r in run_point(p)]
    results += [r for config in fixed_configurations() for r in run_point(config.p, sides=config.sides)]
    results += run_point(Point(1, 2, 3), sides=(3, 4, 5))
    assert [r.to_dict() for r in results if r.status == "fail"] == []
    assert sorted(literals - {r.reason for r in results}) == []


def test_package_modules_read_every_name_they_import():
    """No module of the package but `__init__.py`, which re-exports, imports
    a name it never reads: a name an edit leaves unread is dead code too."""
    src = Path(cevian.__file__).parent
    unread = []
    for path in sorted(src.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = [
            (node.lineno, alias.asname or alias.name.split(".")[0])
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
            for alias in node.names
        ]
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unread += [f"{path.name}:{line}:{name}" for line, name in imported if name not in read]
    assert unread == []


def test_package_imports_form_no_cycle():
    """The relative imports between the package's modules, those under
    TYPE_CHECKING included, form no cycle."""
    src = Path(cevian.__file__).parent
    imports = {
        path.stem: {
            node.module.split(".")[0] if node.module else alias.name  # from . import x
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.ImportFrom) and node.level
            for alias in node.names
        }
        for path in src.glob("*.py")
    }
    try:
        TopologicalSorter(imports).prepare()
    except CycleError as exc:
        pytest.fail(f"import cycle {' -> '.join(exc.args[1])}")


def test_package_imports_no_dataclasses():
    """No module of the package imports dataclasses, and a fresh interpreter
    that imports cevian and cevian.cli loads neither dataclasses nor
    inspect, which dataclasses imports."""
    src = Path(cevian.__file__).parent
    for path in src.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            assert "dataclasses" not in {name.split(".")[0] for name in names}, path.name
    probe = (
        f"import sys; sys.path.insert(0, {str(src.parent)!r}); import cevian, cevian.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    done = subprocess.run(
        [sys.executable, "-I", "-B", "-c", probe], capture_output=True, text=True, timeout=60, check=True
    )
    assert done.stdout.split() == ["[]"]
