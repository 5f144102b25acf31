from tracing import Tracer


def test_patch_entries_records_spans_and_unpatch_restores():
    def outer(x):
        return registry["inner"](x) + 1

    def inner(x):
        return 2 * x

    registry = {"outer": outer, "inner": inner}
    tracer = Tracer()
    tracer.patch_entries(registry, "check.")
    assert registry["outer"](3) == 7
    tracer.unpatch()
    assert registry == {"outer": outer, "inner": inner}
    totals = tracer.totals()
    assert {name: calls for name, (calls, _, _) in totals.items()} == {
        "check.outer": 1,
        "check.inner": 1,
    }
    # the inner span is a child of the outer one, so it leaves its self time
    _, outer_self, outer_whole = totals["check.outer"]
    _, _, inner_whole = totals["check.inner"]
    assert abs(outer_self - (outer_whole - inner_whole)) < 1e-9
