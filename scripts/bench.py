#!/usr/bin/env python3
"""A/B timing of this tree's cevian against another copy of it, in one process.

    python3 scripts/bench.py --against REV --out BENCH.json [--rounds 24]

REV is a git revision of this repository, such as HEAD~1; the script
unpacks its src/ from `git archive` into a temporary directory.  Both
packages are imported into this process: the cevian entries of sys.modules
are dropped between the two imports, and each side's modules are put back
there before it runs, so the lazy imports of perfbench's input generators
resolve to it.  Each round runs every row once on each side, the side that
goes first alternating from round to round, so a slow stretch of a shared
host falls on both alike.

The end-to-end rows time one round of an operation each: run_suite(42, 25);
the 64 `cevian construct` CLI calls of the construct_bits workload at a
fixed seed; and construct() on points of 4, 64, 256, 1024 and 4096 bits,
over Q(sqrt(2)) and over Q(sqrt(d)) for d a product of two 12-bit primes.
The inputs come from perfbench/workloads.py; the Q(sqrt(2)) points read the
quadratic_field coefficients over sqrt(2), and perfbench's oracle rules out
those that are degenerate there.  The layer rows follow.  The two
_canonical rows replay, through each side's own _canonical, the (d, v)
arguments of every call that side made in one round of an end-to-end row,
recorded once before the rounds: run_suite(42, 25), whose calls are nearly
all at d = 1, and construct() over Q(sqrt(d)).  Then comes one row per
check id that both trees register: the time that check takes over one more
round of run_suite(42, 25), which runs each REGISTRY entry wrapped in a
timer.

The JSON report gives, for each row, each side's median time of a round,
the ratio of this tree's time to the other's within each round as its
median and quartiles, the number of rounds and the rounds this tree was
faster.  The medians and the ratios are taken from the same raw times: the
alternated rounds already share the host's pace, so no side is rescaled.
It also names the Python version, the machine and both trees: each side's
commit, with a sha256 over its src/cevian, since this tree may hold
uncommitted changes.
Nothing in it is asserted here: the script measures, and the reader
compares.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from types import ModuleType
from typing import Callable, Optional

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import oracle  # noqa: E402
import workloads  # noqa: E402

SUITE_ARGS = (42, 25)
CHECK_ROW = "check %%s in run_suite(%d, %d)" % SUITE_ARGS
CLI_SEED = 7  # the seed of the construct_bits inputs
POINTS = 16  # points of each construct() row
BITS = (4, 64, 256, 1024, 4096)
QUADRATIC_SEED = 11


def _is_cevian(name: str) -> bool:
    return name == "cevian" or name.startswith("cevian.")


def _drop_cevian() -> None:
    for name in [n for n in sys.modules if _is_cevian(n)]:
        del sys.modules[name]


def load_package(root: Path) -> dict[str, ModuleType]:
    """The modules of the cevian package under root/src, imported afresh."""
    _drop_cevian()
    src = str(root / "src")
    sys.path.insert(0, src)
    try:
        importlib.import_module("cevian.cli")
    finally:
        sys.path.remove(src)
    modules = {n: m for n, m in sys.modules.items() if _is_cevian(n)}
    origin = Path(modules["cevian"].__file__).resolve()
    if not origin.is_relative_to(Path(src).resolve()):
        raise SystemExit(f"cevian was imported from {origin}, not from {src}")
    return modules


def activate(modules: dict[str, ModuleType]) -> None:
    _drop_cevian()
    sys.modules.update(modules)


# ---------------------------------------------------------------------------
# the rows: each builds, for the active package, a function that runs one round


def suite_row() -> Callable[[], object]:
    from cevian.verify import run_suite

    return lambda: run_suite(*SUITE_ARGS)


def cli_row(out: str) -> Callable[[], object]:
    from cevian import cli

    texts = [text for _, text in workloads.ConstructBits().make_inputs(CLI_SEED)]

    def run() -> None:
        for text in texts:
            if cli.main(["construct", f"--p={text}", "--out", out]) != 0:
                raise RuntimeError(f"construct --p={text} failed")

    return run


def _construct_row(points: list) -> Callable[[], object]:
    from cevian.constructions import construct

    return lambda: [construct(p) for p in points]


def bits_row(bits: int) -> Callable[[], object]:
    from cevian import Point

    gen = workloads.ConstructBits()
    gen.MIN_BITS = gen.MAX_BITS = bits
    gen.round_size = POINTS
    return _construct_row([Point(*p) for p, _ in gen.make_inputs(bits)])


def sqrt2_row() -> Callable[[], object]:
    """The quadratic_field points (x : a + b sqrt(d) : c + e sqrt(d)) with d
    made 2, those off every degeneracy locus of the oracle there."""
    from cevian import Point, Scalar

    points = []
    for _, (x, y, z), _, _ in workloads.QuadraticField().make_inputs(QUADRATIC_SEED):
        exact = (x, oracle.Quad(y.a, y.b, 2), oracle.Quad(z.a, z.b, 2))
        if not oracle.degeneracy_loci(exact):
            points.append(Point(x, *(Scalar(int(q.a), int(q.b), 2) for q in exact[1:])))
    if len(points) < POINTS:
        raise RuntimeError(f"only {len(points)} Q(sqrt(2)) points")
    return _construct_row(points[:POINTS])


def quadratic_row() -> Callable[[], object]:
    gen = workloads.QuadraticField()
    gen.round_size = POINTS
    return _construct_row([point for *_, point in gen.make_inputs(QUADRATIC_SEED)])


def canonical_row(workload: Callable[[], Callable[[], object]]) -> Callable[[], object]:
    """The (d, v) arguments of every _canonical call that one round of a
    workload row makes, recorded once for the active package and replayed
    through its _canonical in each round."""
    from cevian import projective

    run_once = workload()
    canonical, calls = projective._canonical, []

    def recorded(d, v):
        calls.append((d, v))
        return canonical(d, v)

    projective._canonical = recorded
    try:
        run_once()
    finally:
        projective._canonical = canonical

    def run() -> None:
        for d, v in calls:
            canonical(d, v)

    return run


def check_rounds() -> tuple[list[str], Callable[[], dict[str, float]]]:
    """For the active package, its check ids and a round of
    run_suite(42, 25) with each REGISTRY entry wrapped in a timer, which
    returns the seconds each check id took, summed over the configurations
    it ran on.  The checks run through run_suite's registry argument, so the
    end-to-end row times the suite unwrapped."""
    from cevian.verify import REGISTRY, run_suite

    spent = dict.fromkeys(REGISTRY, 0.0)

    def timed(cid: str, check: Callable) -> Callable:
        def run(ctx, claims):
            start = time.perf_counter()
            try:
                return check(ctx, claims)
            finally:
                spent[cid] += time.perf_counter() - start

        return run

    registry = {cid: timed(cid, check) for cid, check in REGISTRY.items()}

    def run() -> dict[str, float]:
        for cid in spent:
            spent[cid] = 0.0
        run_suite(*SUITE_ARGS, registry=registry)
        return dict(spent)

    return list(REGISTRY), run


def rows(out: str) -> dict[str, Callable[[], Callable[[], object]]]:
    """Row name -> a builder of its round for the active package."""
    table = {
        "run_suite(%d, %d)" % SUITE_ARGS: suite_row,
        f"cli construct x64 (construct_bits, seed {CLI_SEED})": lambda: cli_row(out),
    }
    for bits in BITS:
        table[f"construct() x{POINTS}, {bits} bits"] = lambda bits=bits: bits_row(bits)
    table[f"construct() x{POINTS}, Q(sqrt(2))"] = sqrt2_row
    table[f"construct() x{POINTS}, Q(sqrt(d)), d of two 12-bit primes"] = quadratic_row
    table["_canonical, the calls of run_suite(%d, %d) replayed" % SUITE_ARGS] = lambda: canonical_row(suite_row)
    table[f"_canonical, the calls of construct() x{POINTS}, Q(sqrt(d)) replayed"] = (
        lambda: canonical_row(quadratic_row)
    )
    return table


# ---------------------------------------------------------------------------


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def _git(*args: str) -> Optional[str]:
    """The stripped stdout of git run on this checkout, or None on failure."""
    try:
        done = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def is_checkout() -> bool:
    """Whether this tree is a git checkout of its own, not a copy unpacked
    inside some other repository's work tree."""
    top = _git("rev-parse", "--show-toplevel")
    return top is not None and Path(top).resolve() == ROOT


def commit(rev: str) -> Optional[str]:
    """The full hash of the commit rev names, or None."""
    return _git("rev-parse", "--verify", "--quiet", rev + "^{commit}") or None


def src_digest(root: Path) -> str:
    """sha256 over the paths and contents of root/src/cevian's files."""
    digest = hashlib.sha256()
    base = root / "src" / "cevian"
    for path in sorted(base.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(base).as_posix().encode() + b"\0")
            digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


def unpack(rev: str, dest: Path) -> None:
    """src/ of rev, as `git archive rev src | tar -x -C dest` leaves it."""
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src"],
        capture_output=True, check=True,
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def measure(against: Path, rounds: int) -> dict:
    sides = {"this": load_package(ROOT), "against": load_package(against)}
    with tempfile.TemporaryDirectory() as tmp:
        table = rows(os.path.join(tmp, "report.json"))
        runs, checks, registered = {}, {}, {}
        for side, modules in sides.items():
            activate(modules)
            runs[side] = {name: build() for name, build in table.items()}
            registered[side], checks[side] = check_rounds()
        # the check ids of this tree, in its order, that the other registers too
        check_rows = {
            CHECK_ROW % cid: cid for cid in registered["this"] if cid in registered["against"]
        }
        names = [*table, *check_rows]
        times = {name: {side: [] for side in sides} for name in names}
        order = list(sides)
        for k in range(rounds + 1):  # round 0 warms both sides up and is not kept
            for name in table:
                for side in order if k % 2 else order[::-1]:
                    activate(sides[side])
                    start = time.perf_counter()
                    runs[side][name]()
                    elapsed = time.perf_counter() - start
                    if k:
                        times[name][side].append(elapsed)
            for side in order if k % 2 else order[::-1]:
                activate(sides[side])
                spent = checks[side]()
                if k:
                    for name, cid in check_rows.items():
                        times[name][side].append(spent[cid])
    _drop_cevian()
    report_rows = []
    for name in names:
        t, a = times[name]["this"], times[name]["against"]
        ratios = [x / y for x, y in zip(t, a)]
        q1, median, q3 = quartiles(ratios)
        report_rows.append({
            "name": name,
            "this_median_s": statistics.median(t),
            "against_median_s": statistics.median(a),
            "ratio": {"median": median, "q1": q1, "q3": q3},
            "rounds": len(ratios),
            "rounds_won": sum(x < y for x, y in zip(t, a)),
        })
    return {"rows": report_rows}


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--against", required=True, metavar="REV", help="the git revision to time this tree against"
    )
    parser.add_argument("--out", required=True, type=Path, help="where to write the JSON report")
    parser.add_argument("--rounds", type=int, default=24, help="timed rounds (default 24)")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    if not is_checkout():
        parser.error(f"{ROOT} is no git checkout of its own, so it has no {args.against} to archive")
    against = commit(args.against)
    if against is None:
        parser.error(f"{args.against} names no commit")
    with tempfile.TemporaryDirectory() as tmp:
        unpack(against, Path(tmp))
        report = {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "machine": {
                "platform": platform.platform(),
                "architecture": platform.machine(),
                "cpus": os.cpu_count(),
            },
            "trees": {
                "this": {
                    "commit": commit("HEAD"),
                    "src_uncommitted": bool(_git("status", "--porcelain", "--", "src/cevian")),
                    "src_sha256": src_digest(ROOT),
                },
                "against": {"rev": args.against, "commit": against, "src_sha256": src_digest(Path(tmp))},
            },
            "ratio": "this tree's time of a round over the other's, in the same round",
            **measure(Path(tmp), args.rounds),
        }
    args.out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    for row in report["rows"]:
        r = row["ratio"]
        print(
            f"{row['name']:<62} {row['against_median_s'] * 1e3:9.2f} -> "
            f"{row['this_median_s'] * 1e3:9.2f} ms  ratio {r['median']:.3f} "
            f"[{r['q1']:.3f}, {r['q3']:.3f}]  won {row['rounds_won']}/{row['rounds']}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
