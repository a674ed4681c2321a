"""Self time, nesting and absent targets of the benchmark's tracer.

Run with `python3 -m pytest bench/tests -q` from the root of a checkout.
"""

import sys
import types

import pytest

from tracing import Span, Tracer, covered, layer_metrics, self_times


def test_covered_merges_overlaps():
    assert covered([]) == 0.0
    assert covered([(0.0, 1.0), (0.5, 2.0), (3.0, 4.0)]) == pytest.approx(3.0)


def test_self_time_on_synthetic_tree():
    # root [0, 10] has children [1, 3] and [2, 6] (overlapping: cover 5)
    # and [8, 9]; the second child has its own child [4, 5].
    spans = [
        Span(0, "elliptic.continue_profile", 0.0, 10.0, None, "r"),
        Span(1, "elliptic.splu", 1.0, 3.0, 0, "r"),
        Span(2, "elliptic.splu", 2.0, 6.0, 0, "r"),
        Span(3, "grids.neg_laplacian", 4.0, 5.0, 2, "r"),
        Span(4, "grids.neg_laplacian", 8.0, 9.0, 0, "r"),
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 5.0 - 1.0)
    assert selfs[1] == pytest.approx(2.0)
    assert selfs[2] == pytest.approx(3.0)
    assert selfs[3] == selfs[4] == pytest.approx(1.0)
    m = layer_metrics(spans)
    assert m["elliptic.continue_profile.self_s"] == pytest.approx(4.0)
    assert m["elliptic.continue_profile.calls"] == 1
    assert m["elliptic.splu.s"] == pytest.approx(6.0)
    assert m["grids.neg_laplacian.calls"] == 2


def test_nested_spans_of_one_layer_count_once():
    spans = [
        Span(0, "io.write", 0.0, 4.0, None, "r"),
        Span(1, "io.write", 1.0, 3.0, 0, "r"),
        Span(2, "io.write", 5.0, 6.0, None, "r"),
    ]
    assert layer_metrics(spans)["io.write.s"] == pytest.approx(5.0)


def test_bookkeeping_is_not_layer_time():
    spans = [
        Span(0, "stability.slope_numeric", 0.0, 10.0, None, "r"),
        Span(1, "elliptic.resolve_at_omega", 1.0, 6.0, 0, "r"),
        Span(2, "elliptic.splu", 2.0, 3.0, 1, "r", {"fill_nnz": 7}),
        Span(3, "trace.annotate", 3.0, 5.0, 1, "r"),
    ]
    m = layer_metrics(spans)
    assert m["stability.slope_numeric.s"] == pytest.approx(8.0)
    assert m["elliptic.resolve_at_omega.s"] == pytest.approx(3.0)
    assert m["elliptic.splu.s"] == pytest.approx(1.0)
    assert m["elliptic.splu.fill_nnz"] == 7


def test_child_clipped_to_parent():
    spans = [Span(0, "a", 0.0, 2.0, None, "r"), Span(1, "b", 1.0, 5.0, 0, "r")]
    assert self_times(spans)[0] == pytest.approx(1.0)


@pytest.fixture
def fake_module():
    mod = types.ModuleType("fake_kg")

    def inner(x):
        return x + 1

    def outer(x):
        return mod.inner(x) * 2

    mod.inner, mod.outer = inner, outer
    sys.modules["fake_kg"] = mod
    yield mod
    del sys.modules["fake_kg"]


def test_tracer_wraps_restores_and_nests(fake_module):
    original = fake_module.outer
    tracer = Tracer(
        (
            ("outer", "fake_kg", "outer", None),
            ("inner", "fake_kg", "inner", lambda r: {"steps": r}),
        )
    )
    tracer.run = "rep1"
    tracer.install()
    try:
        assert fake_module.outer(1) == 4
    finally:
        tracer.uninstall()
    assert fake_module.outer is original
    names = [s.name for s in tracer.spans]
    assert names == ["outer", "inner", "trace.annotate"]
    outer, inner, note = tracer.spans
    assert inner.parent == outer.id and note.parent == outer.id
    assert inner.attrs == {"steps": 2} and {s.run for s in tracer.spans} == {"rep1"}
    assert outer.start <= inner.start <= inner.end <= outer.end


def test_absent_target_is_left_out(fake_module):
    tracer = Tracer(
        (
            ("dynamics.evolve", "fake_kg", "no_such_function", None),
            ("spectrum.eigsh", "no_such_module_kg", "eigsh", None),
            ("io.write", "fake_kg", "outer", None),
        )
    )
    tracer.install()
    try:
        fake_module.outer(1)
    finally:
        tracer.uninstall()
    assert tracer.absent == {"dynamics.evolve", "spectrum.eigsh"}
    m = layer_metrics(tracer.spans, tracer.absent)
    assert "io.write.s" in m
    assert not any(k.startswith(("dynamics.evolve", "dynamics.steps", "spectrum.eigsh")) for k in m)
