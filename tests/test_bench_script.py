"""scripts/bench.py, the in-process A/B timing script, run for one round.

The tree is timed against its own HEAD, unpacked by the script from git
archive and loaded as the other package.  Only the shape of the JSON report
is checked, the end-to-end rows and the per-check layer rows alike, and
that each row's ratio is the ratio of its two medians, which one round
makes an identity: no timing is asserted, since one round on a shared host
says nothing about speed."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from cevian.verify import REGISTRY

ROOT = Path(__file__).resolve().parents[1]

ROWS = [
    "run_suite(42, 25)",
    "cli construct x64 (construct_bits, seed 7)",
    "construct() x16, 4 bits",
    "construct() x16, 64 bits",
    "construct() x16, 256 bits",
    "construct() x16, 1024 bits",
    "construct() x16, 4096 bits",
    "construct() x16, Q(sqrt(2))",
    "construct() x16, Q(sqrt(d)), d of two 12-bit primes",
]
# the layer rows: one per check id, in registry order
ROWS += [f"check {cid} in run_suite(42, 25)" for cid in REGISTRY]


def is_number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def is_hash(x):
    return isinstance(x, str) and len(x) == 40 and int(x, 16) >= 0


def own_checkout():
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True,
        )
    except OSError:
        return False
    return done.returncode == 0 and Path(done.stdout.split("\n")[0]).resolve() == ROOT


@pytest.mark.skipif(not own_checkout(), reason="the script archives a revision of a git checkout")
def test_one_round_writes_the_report(tmp_path):
    out = tmp_path / "bench.json"
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench.py"), "--against", "HEAD",
         "--rounds", "1", "--out", str(out)],
        capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(out.read_text(encoding="utf-8"))
    assert set(report) == {
        "python", "implementation", "machine", "trees", "ratio", "rows",
    }
    assert report["python"] == ".".join(map(str, sys.version_info[:3]))
    assert set(report["machine"]) == {"platform", "architecture", "cpus"}
    this, against = report["trees"]["this"], report["trees"]["against"]
    assert set(this) == {"commit", "src_uncommitted", "src_sha256"}
    assert set(against) == {"rev", "commit", "src_sha256"}
    assert is_hash(this["commit"]) and this["commit"] == against["commit"]
    assert against["rev"] == "HEAD" and isinstance(this["src_uncommitted"], bool)
    assert all(len(t["src_sha256"]) == 64 and int(t["src_sha256"], 16) >= 0 for t in (this, against))
    # HEAD's own source is what was archived, so the digests differ only by uncommitted edits
    assert (this["src_sha256"] == against["src_sha256"]) == (not this["src_uncommitted"])
    assert [row["name"] for row in report["rows"]] == ROWS
    for row in report["rows"]:
        assert set(row) == {"name", "this_median_s", "against_median_s", "ratio", "rounds", "rounds_won"}
        assert is_number(row["this_median_s"]) and is_number(row["against_median_s"])
        assert set(row["ratio"]) == {"median", "q1", "q3"}
        assert all(is_number(v) for v in row["ratio"].values())
        assert row["rounds"] == 1 and row["rounds_won"] in (0, 1)
        # the medians are the raw times of the round the ratio divides
        assert row["ratio"]["median"] == row["this_median_s"] / row["against_median_s"]
    assert done.stdout.count("\n") == len(ROWS)
