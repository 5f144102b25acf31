"""Benchmark of cevian: one workload per run.

    python3 perfbench/run.py --workload suite --seed 1 --seconds 30 --trace 0

With --trace 0 it prints the end-to-end metrics, with --trace 1 the
per-layer metrics of a traced run.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  Every
time it reports is scaled to the reference pace of pace.py.  Run it
from the root of a source checkout; it imports cevian from ./src and writes
only under perfbench/_runs.  README.md in this directory describes the
workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import operator
import resource
import statistics
import subprocess
import sys
import time
from importlib import import_module
from pathlib import Path

import pace
from tracing import Tracer
from workloads import RUNS_DIR, WORKLOADS, RoundResult

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
PYCACHE = RUNS_DIR / "pycache"
COLD_STARTS = 4  # before each round of the timed phase, and after the last
MIN_OPS = 40  # operations a run needs for op_ms_tail to be more than the median

# (module, attribute, span name) for every layer boundary the traced run wraps
LAYER_SPANS = (
    ("cevian.scalar", "squarefree_decompose", "scalar.decompose"),
    ("cevian.projective", "null_space", "projective.null_space"),
    ("cevian.conics", "nine_point_conic", "conics.nine_point_conic"),
    ("cevian.conics", "conic_through_five", "conics.conic_through_five"),
    ("cevian.conics", "inconic_with_contacts", "conics.inconic_with_contacts"),
    ("cevian.conics", "transform_conic", "conics.transform_conic"),
    ("cevian.verify", "CheckContext.__init__", "verify.context"),
    ("cevian.cli", "main", "cli.main"),
    ("cevian.cli", "build_parser", "cli.parse"),
    ("cevian.cli", "parse_point", "cli.parse"),
    ("cevian.cli", "construction_report", "cli.report"),
    ("cevian.render", "bary_to_xy", "render.xy"),
    ("cevian.render", "direction_to_xy", "render.xy"),
)


def tail_percentile(n: int) -> int | None:
    """The highest whole percentile with at least ten of n samples beyond
    it, or None below 40 samples, where the median is reported alone."""
    if n < 40:
        return None
    return (100 * n - 1000) // n


def tail(samples: list[float], n: int) -> float:
    """The sample value at tail_percentile(n); the median when that is None."""
    pct = tail_percentile(n)
    if pct is None:
        return statistics.median(samples)
    return statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]


def ops_per_s(times: list[float]) -> float:
    return len(times) / sum(times)


def cold_setups(workload: str, seed: int, count: int) -> list[float]:
    """Seconds to import cevian and make the workload's inputs, each of
    `count` times in a fresh isolated interpreter that keeps its bytecode
    under PYCACHE, whatever the environment or the checkout's own
    __pycache__ directories hold.  Each is scaled to the reference pace by
    the mean of the kernel times just before and just after it."""
    cmd = [
        sys.executable, "-I", "-X", f"pycache_prefix={PYCACHE}",
        str(HERE / "cold_start.py"), workload, str(seed),
    ]
    times = []
    for _ in range(count):
        before = pace.kernel()
        done = subprocess.run(
            cmd, cwd=HERE.parent, capture_output=True, text=True, timeout=120, check=True
        )
        now = (before + pace.kernel()) / 2
        times.append(float(done.stdout.split()[-1]) * pace.REFERENCE_S / now)
    return times


def min_ops(wl) -> int:
    """Operations in the fewest whole rounds that reach MIN_OPS."""
    return wl.round_size * -(-MIN_OPS // wl.round_size)


def run_rounds(wl, seconds: float, play) -> None:
    """Call play(), which runs one whole round and returns its RoundResult:
    until at least min_ops(wl) operations ran, then again while a mean
    round more ends nearer to `seconds` of wall time than stopping now."""
    start = time.perf_counter()
    rounds = 0
    while True:
        res = play()
        rounds += 1
        elapsed = time.perf_counter() - start
        if not res.times:
            return
        if rounds * wl.round_size >= min_ops(wl) and elapsed * (rounds + 0.5) / rounds > seconds:
            return


def end_to_end(wl, seed: int, seconds: float) -> tuple[RoundResult, dict]:
    # an untimed start brings the bytecode under PYCACHE up to date, so
    # every timed start loads the same bytecode
    cold_setups(wl.name, seed, 1)
    inputs = wl.make_inputs(seed)
    setups = []
    totals = RoundResult()

    def play():
        # cold starts spread over the whole run, so that their median does
        # not hang on the load of one moment
        setups.extend(cold_setups(wl.name, seed, COLD_STARTS))
        res = wl.run_round(inputs)
        totals.add(res)
        return res

    run_rounds(wl, seconds, play)
    setups.extend(cold_setups(wl.name, seed, COLD_STARTS))
    times = totals.scaled_times()
    metrics = {
        "ops_per_s": (ops_per_s(times), "1/s"),
        "op_ms_p50": (statistics.median(times) * 1000, "ms"),
        "op_ms_tail": (tail(times, min_ops(wl)) * 1000, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return totals, metrics


def coeff_bits(cs) -> int:
    """Largest numerator or denominator bit length in a ConstructionSet."""

    def scalars(member):
        if isinstance(member, tuple):
            for item in member:
                yield from scalars(item)
        elif hasattr(member, "coords"):
            yield from member.coords
        elif hasattr(member, "matrix"):
            for row in member.matrix:
                yield from row

    best = 0
    for member in vars(cs).values():
        for s in scalars(member):
            for part in (s.a, s.b):
                best = max(best, part.numerator.bit_length(), part.denominator.bit_length())
    return best


def per_call_us(fn, operands: list) -> float:
    """Median over 5 repeats of the mean time of fn(*args) over the
    operands, each repeat at least 50 ms of calls; 0 when the workload's
    inputs hold no operands of this kind."""
    if not operands:
        return 0.0
    means = []
    for _ in range(5):
        calls = 0
        start = time.perf_counter()
        while True:
            for args in operands:
                fn(*args)
            calls += len(operands)
            elapsed = time.perf_counter() - start
            if elapsed >= 0.05:
                break
        means.append(elapsed / calls * 1e6)
    return statistics.median(means)


def traced(wl, seed: int, seconds: float) -> tuple[RoundResult, dict]:
    from cevian import Point
    from cevian.verify import REGISTRY

    inputs = wl.make_inputs(seed)
    tracer = Tracer()
    built = []
    bits = 0
    untraced = RoundResult()
    traced_totals = RoundResult()

    def play():
        nonlocal bits
        # an untraced round before each traced one: the base of the
        # tracing-overhead figures, measured under the same load
        untraced.add(wl.run_round(inputs))
        for module_name, attr, span in LAYER_SPANS:
            owner = import_module(module_name)
            *path, name = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            tracer.patch(owner, name, span)
        tracer.patch(import_module("cevian.constructions"), "construct", "constructions.construct", built)
        tracer.patch_entries(REGISTRY, "verify.check.")
        try:
            res = wl.run_round(inputs)
        finally:
            tracer.unpatch()
        traced_totals.add(res)
        bits = max([bits] + [coeff_bits(cs) for cs in built])
        built.clear()
        return res

    run_rounds(wl, seconds, play)
    if not traced_totals.times:
        return traced_totals, {}
    totals = RoundResult()
    totals.add(untraced)
    totals.add(traced_totals)
    untraced_ops_per_s = ops_per_s(untraced.scaled_times())
    ops = len(traced_totals.times)
    spans = tracer.totals()

    def calls(name):
        return spans.get(name, (0, 0.0, 0.0))[0] / ops

    def self_ms(name):
        return spans.get(name, (0, 0.0, 0.0))[1] * 1000 / ops

    operands = wl.operands(inputs)
    traced_ops_per_s = ops_per_s(traced_totals.scaled_times())
    metrics = {
        "scalar.add_us": (per_call_us(operator.add, operands.rational_pairs), "us"),
        "scalar.mul_us": (per_call_us(operator.mul, operands.rational_pairs), "us"),
        "scalar.div_us": (per_call_us(operator.truediv, operands.rational_pairs), "us"),
        "scalar.mul_sqrt_us": (per_call_us(operator.mul, operands.sqrt_pairs), "us"),
        "scalar.decompose_calls": (calls("scalar.decompose"), "count"),
        "scalar.decompose_ms": (self_ms("scalar.decompose"), "ms"),
        "projective.point_us": (per_call_us(Point, operands.triples), "us"),
        "projective.null_space_calls": (calls("projective.null_space"), "count"),
        "projective.null_space_ms": (self_ms("projective.null_space"), "ms"),
        "projective.affine_inverse_us": (
            per_call_us(lambda m: m.inverse(), [(m,) for m in operands.maps]),
            "us",
        ),
        "conics.nine_point_conic_calls": (calls("conics.nine_point_conic"), "count"),
        "conics.nine_point_conic_ms": (self_ms("conics.nine_point_conic"), "ms"),
        "conics.conic_through_five_ms": (self_ms("conics.conic_through_five"), "ms"),
        "conics.inconic_with_contacts_ms": (self_ms("conics.inconic_with_contacts"), "ms"),
        "conics.transform_conic_ms": (self_ms("conics.transform_conic"), "ms"),
        "constructions.construct_calls": (calls("constructions.construct"), "count"),
        "constructions.construct_ms": (self_ms("constructions.construct"), "ms"),
        "constructions.coeff_bits_max": (bits, "bits"),
        # a context does nothing but construct, so its whole span is reported
        "verify.context_ms": (
            spans.get("verify.context", (0, 0.0, 0.0))[2] * 1000 / ops,
            "ms",
        ),
    }
    for cid in REGISTRY:
        metrics[f"verify.check_ms.{cid}"] = (self_ms(f"verify.check.{cid}"), "ms")
    metrics.update(
        {
            "cli.parse_ms": (self_ms("cli.parse"), "ms"),
            "cli.report_ms": (self_ms("cli.report"), "ms"),
            "cli.report_kb": (traced_totals.report_bytes / 1024 / ops, "kB"),
            "render.xy_ms": (self_ms("render.xy"), "ms"),
            "trace.ops_per_s": (traced_ops_per_s, "1/s"),
            "trace.overhead_ops_per_s": (untraced_ops_per_s - traced_ops_per_s, "1/s"),
        }
    )
    RUNS_DIR.mkdir(exist_ok=True)
    tracer.write(RUNS_DIR / f"trace-{wl.name}-seed{seed}.csv")
    return totals, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cevian" / "__init__.py").is_file():
        print(f"error: no cevian sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    run = traced if args.trace else end_to_end
    totals, metrics = run(wl, args.seed, args.seconds)
    if not totals.times:
        print(f"error: all {totals.attempted} operations failed", file=sys.stderr)
        return 1
    for problem in totals.problems[:20]:
        print(f"incorrect: {problem}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{wl.name} {name} = {value:.6g} {unit}")
    print(
        f"{wl.name}: unscaled median operation {statistics.median(totals.times) * 1000:.6g} ms, "
        f"median kernel {statistics.median(totals.paces) * 1000:.4g} ms "
        f"against {pace.REFERENCE_S * 1000:.4g} ms at the reference pace"
    )
    print(
        f"{wl.name}: {len(totals.times)} operations timed, {totals.attempted} attempted, "
        f"{totals.failed} failed, tail at p{tail_percentile(min_ops(wl))}"
    )
    result = {
        "correct": not totals.problems,
        "attempted": totals.attempted,
        "failed": totals.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
