import random
import statistics

import pytest

from run import tail, tail_percentile


@pytest.mark.parametrize("n", [1, 10, 39])
def test_median_alone_below_forty_samples(n):
    samples = [random.Random(n).random() for _ in range(n)]
    assert tail_percentile(n) is None
    assert tail(samples, n) == statistics.median(samples)


def test_highest_percentile_with_ten_samples_beyond():
    for n in range(40, 2001):
        pct = tail_percentile(n)
        assert n * (100 - pct) / 100 >= 10, n
        assert pct == 99 or n * (100 - pct - 1) / 100 < 10, n


@pytest.mark.parametrize("n", [40, 80, 100, 128, 333])
def test_reported_tail_has_ten_samples_beyond(n):
    samples = random.Random(n).sample(range(10 * n), n)
    value = tail(samples, n)
    assert sum(s > value for s in samples) >= 10
    assert value > statistics.median(samples)


def test_the_workloads_tail_percentiles():
    from run import min_ops
    from workloads import WORKLOADS

    assert {name: tail_percentile(min_ops(w)) for name, w in WORKLOADS.items()} == {
        "suite": 82,
        "construct_bits": 84,
        "quadratic_field": 82,
    }
