import pace


def test_times_at_the_reference_pace_are_unchanged():
    times = [0.1, 0.2, 0.3]
    assert pace.scaled(times, [pace.REFERENCE_S] * 3) == times


def test_a_slow_stretch_is_scaled_away():
    # the same operation, timed 1.5 times slower while the kernel is too
    paces = [pace.REFERENCE_S] * 6 + [1.5 * pace.REFERENCE_S] * 6
    times = [0.2] * 6 + [0.3] * 6
    for t in pace.scaled(times, paces)[:3] + pace.scaled(times, paces)[-3:]:
        assert abs(t - 0.2) < 1e-12


def test_one_outlying_kernel_time_does_not_move_its_neighbours():
    paces = [pace.REFERENCE_S] * 7
    paces[3] = 10 * pace.REFERENCE_S
    assert pace.scaled([0.2] * 7, paces) == [0.2] * 7


def test_the_kernel_runs_no_cevian_code():
    import sys

    before = {m for m in sys.modules if m.split(".")[0] == "cevian"}
    assert pace.kernel() > 0
    assert {m for m in sys.modules if m.split(".")[0] == "cevian"} == before
