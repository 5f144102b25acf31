"""The benchmark's three workloads.

Each workload makes its inputs from a seed, runs one round of operations
(the same operations every round) and checks every operation's output with
the independent oracle.  cevian is imported inside the methods, so that
importing this module stays cheap and each workload pays only for the
modules its operations use.
"""

from __future__ import annotations

import functools
import json
import os
import random
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import oracle
import pace

RUNS_DIR = Path(__file__).resolve().parent / "_runs"

# The pinned Gergonne configurations of the verify suite, by side lengths.
GERGONNE_SIDES = ((3, 4, 5), (13, 14, 15))


@dataclass
class RoundResult:
    """Operations of one round, or of whole rounds added together."""

    times: list[float] = field(default_factory=list)  # seconds per completed operation
    paces: list[float] = field(default_factory=list)  # pace.kernel() right after each
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    report_bytes: int = 0  # construct reports written (construct_bits only)

    def add(self, other: "RoundResult") -> None:
        self.times += other.times
        self.paces += other.paces
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems += other.problems
        self.report_bytes += other.report_bytes

    def scaled_times(self) -> list[float]:
        """The operation times at the reference pace."""
        return pace.scaled(self.times, self.paces)


def _report_crash(res: RoundResult, what: str) -> None:
    res.failed += 1
    print(f"{what} raised:", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


def _check_cs(p, cs, d=None) -> list[str]:
    """Oracle check of a ConstructionSet, read through its printed form."""

    def point(member):
        return oracle.parse_point(str(member), d)

    z = None if cs.feuerbach_point is None else point(cs.feuerbach_point)
    return oracle.check_construction(
        p,
        point(cs.orthocenter),
        point(cs.circumcenter),
        z,
        oracle.parse_matrix(str(cs.ninepoint_conic), d),
        oracle.parse_matrix(str(cs.inconic), d),
    )


@dataclass
class Operands:
    """Operands for the per-call microbenchmarks, taken from the inputs."""

    rational_pairs: list
    sqrt_pairs: list
    triples: list
    maps: list


class Suite:
    """One operation: one configuration decided by all 26 checks of
    run_suite, the `cevian verify` path."""

    name = "suite"
    COUNT = 20  # seeded sample points per run_suite call
    FIXED = 8  # pinned configurations run_suite adds
    round_size = COUNT + FIXED

    def make_inputs(self, seed: int) -> int:
        import cevian.verify  # noqa: F401  (run_suite samples its own points)

        return seed

    def run_round(self, seed: int) -> RoundResult:
        from cevian import verify

        res = RoundResult()
        problems: dict[str, list[str]] = {}
        ids = list(verify.REGISTRY)
        # a copy, since its last check is replaced below; during a traced
        # round verify.REGISTRY holds the tracer's wrappers
        registry = dict(verify.REGISTRY)
        mark = [0.0]
        last = registry[ids[-1]]

        @functools.wraps(last)
        def clocked(ctx, claims):
            # runs last for every configuration: reads the clock, then checks
            # the configuration's construction with the oracle, so that no
            # construction outlives its configuration; the clock restarts
            # after the check
            try:
                return last(ctx, claims)
            finally:
                res.times.append(time.perf_counter() - mark[0])
                problems[ctx.config.label] = self.check(ctx)
                res.paces.append(pace.kernel())
                mark[0] = time.perf_counter()

        registry[ids[-1]] = clocked
        mark[0] = time.perf_counter()
        try:
            report = verify.run_suite(seed, self.COUNT, registry=registry)
        except Exception:  # a crashed round fails every configuration in it
            _report_crash(res, "run_suite")
            res.attempted = res.failed = self.round_size
            res.times.clear()
            res.paces.clear()
            return res
        failing: dict[str, list[str]] = {}
        for r in report.results:
            failing.setdefault(r.config["label"], [])
            if r.status == "fail":
                failing[r.config["label"]].append(r.check_id)
        res.attempted = len(failing)
        for label, checks in failing.items():
            if checks:
                res.failed += 1
                print(f"{label}: checks failed: {checks}", file=sys.stderr)
            else:
                res.problems += [f"{label}: {x}" for x in problems.get(label, [])]
        return res

    @staticmethod
    def check(ctx) -> list[str]:
        cs = ctx.cs
        try:
            p = oracle.parse_point(str(ctx.config.p))
            problems = _check_cs(p, cs)
            for sides in GERGONNE_SIDES:
                if oracle.same_point(p, oracle.gergonne_point(sides)):
                    problems += oracle.check_gergonne(
                        sides,
                        oracle.parse_point(str(cs.q)),
                        oracle.parse_point(str(cs.orthocenter)),
                    )
            return problems
        except oracle.OracleError as exc:
            return [f"unreadable output: {exc!r}"]

    def operands(self, seed: int) -> Operands:
        from cevian import sample_nondegenerate, special_configuration_point
        from cevian.projective import cevian_map

        points = sample_nondegenerate(seed, self.COUNT)
        coords = [c for p in points for c in p.coords]
        _, y, z = special_configuration_point().coords
        return Operands(
            rational_pairs=list(zip(coords, coords[1:])),
            sqrt_pairs=[(y, z), (z, y), (y, y), (z, z)],
            triples=[p.coords for p in points],
            maps=[cevian_map(p) for p in points[:8]],
        )


class ConstructBits:
    """One operation: `cevian construct --p x:y:z --out FILE` through
    cevian.cli.main, for an integer point whose coordinate bit length is
    drawn log-uniformly from 4 to 1024."""

    name = "construct_bits"
    round_size = 64
    MIN_BITS = 4
    MAX_BITS = 1024

    def make_inputs(self, seed: int) -> list[tuple[tuple[int, int, int], str]]:
        import cevian.cli  # noqa: F401  (the operation's entry point)

        rng = random.Random(f"{self.name}:{seed}")
        inputs = []
        for i in range(self.round_size):
            # one draw in each of round_size equal slices of log(bits), so
            # every round covers the whole range evenly
            u = (i + rng.random()) / self.round_size
            bits = round(self.MIN_BITS * (self.MAX_BITS / self.MIN_BITS) ** u)
            while True:
                p = tuple(
                    rng.choice((-1, 1)) * (rng.getrandbits(bits - 1) | 1 << (bits - 1))
                    for _ in range(3)
                )
                if not oracle.degeneracy_loci(p):
                    break
            inputs.append((p, ":".join(map(str, p))))
        rng.shuffle(inputs)
        return inputs

    def run_round(self, inputs) -> RoundResult:
        from cevian import cli

        res = RoundResult()
        RUNS_DIR.mkdir(exist_ok=True)
        out = RUNS_DIR / f"report-{os.getpid()}.json"
        try:
            for p, text in inputs:
                res.attempted += 1
                start = time.perf_counter()
                try:
                    code = cli.main(["construct", f"--p={text}", "--out", str(out)])
                except Exception:
                    _report_crash(res, f"construct --p={text}")
                    continue
                elapsed = time.perf_counter() - start
                if code != 0:
                    res.failed += 1
                    continue
                res.times.append(elapsed)
                res.paces.append(pace.kernel())
                payload = out.read_text(encoding="utf-8")
                res.report_bytes += len(payload.encode("utf-8"))
                res.problems += [f"{text}: {x}" for x in self.check(p, json.loads(payload))]
        finally:
            out.unlink(missing_ok=True)
        return res

    @staticmethod
    def check(p, report) -> list[str]:
        try:
            points = {s: oracle.parse_point(e["bary"]) for s, e in report["points"].items()}
            conics = {s: oracle.parse_matrix(e["matrix"]) for s, e in report["conics"].items()}
            problems = []
            if not oracle.same_point(points["P"], p):
                problems.append("P is not the input point")
            if not oracle.same_point(points["Q"], oracle.inconic_center(p)):
                problems.append("Q is not the complement of the isotomic conjugate")
            return problems + oracle.check_construction(
                p,
                points["H"],
                points["O"],
                points.get("Z"),
                conics["ninepoint-conic"],
                conics["inconic"],
            )
        except (KeyError, oracle.OracleError) as exc:
            return [f"unreadable report: {exc!r}"]

    def operands(self, inputs) -> Operands:
        from cevian import Point, Scalar
        from cevian.projective import cevian_map

        triples = [tuple(Scalar(c) for c in p) for p, _ in inputs]
        coords = [c for t in triples for c in t]
        return Operands(
            rational_pairs=list(zip(coords, coords[1:])),
            sqrt_pairs=[],  # every input is rational
            triples=triples,
            maps=[cevian_map(Point(*t)) for t in triples[:8]],
        )


def _random_prime(rng: random.Random, bits: int) -> int:
    while True:
        n = rng.randrange(1 << (bits - 1), 1 << bits) | 1
        if all(n % k for k in range(3, int(n**0.5) + 1, 2)):
            return n


class QuadraticField:
    """One operation: construct(p) for a point over its own field
    Q(sqrt(d)), d the product of two distinct PRIME_BITS-bit primes."""

    name = "quadratic_field"
    round_size = 56
    PRIME_BITS = 12
    SMALL = [k for k in range(-9, 10) if k]

    def make_inputs(self, seed: int) -> list:
        from cevian import Point, Scalar

        rng = random.Random(f"{self.name}:{seed}")
        inputs = []
        while len(inputs) < self.round_size:
            p1 = _random_prime(rng, self.PRIME_BITS)
            p2 = _random_prime(rng, self.PRIME_BITS)
            if p1 == p2:
                continue
            d = p1 * p2
            while True:
                x, a, b, c, e = (rng.choice(self.SMALL) for _ in range(5))
                exact = (x, oracle.Quad(a, b, d), oracle.Quad(c, e, d))
                if not oracle.degeneracy_loci(exact):
                    break
            scalars = (Scalar(x), Scalar(a, b, d), Scalar(c, e, d))
            inputs.append((d, exact, scalars, Point(*scalars)))
        return inputs

    def run_round(self, inputs) -> RoundResult:
        from cevian import constructions

        res = RoundResult()
        for d, exact, _, point in inputs:
            res.attempted += 1
            start = time.perf_counter()
            try:
                cs = constructions.construct(point)
            except Exception:
                _report_crash(res, f"construct({point})")
                continue
            res.times.append(time.perf_counter() - start)
            res.paces.append(pace.kernel())
            res.problems += [f"d={d}: {x}" for x in self.check(exact, d, cs)]
        return res

    @staticmethod
    def check(exact, d, cs) -> list[str]:
        try:
            problems = _check_cs(exact, cs, d)
            if not oracle.same_point(oracle.parse_point(str(cs.p), d), exact):
                problems.append("P is not the input point")
            return problems
        except oracle.OracleError as exc:
            return [f"unreadable output: {exc!r}"]

    def operands(self, inputs) -> Operands:
        from cevian import Scalar
        from cevian.projective import cevian_map

        rationals = [Scalar(s.a) for _, _, scalars, _ in inputs for s in scalars]
        return Operands(
            rational_pairs=list(zip(rationals, rationals[1:])),
            sqrt_pairs=[(y, z) for _, _, (_, y, z), _ in inputs],
            triples=[scalars for _, _, scalars, _ in inputs],
            maps=[cevian_map(point) for _, _, _, point in inputs[:4]],
        )


WORKLOADS = {w.name: w for w in (Suite(), ConstructBits(), QuadraticField())}
