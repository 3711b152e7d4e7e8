import numpy as np
import pytest

import layers
import spans
from eegscrub import denoise
from eegscrub.core import Signal


def _span(span_id, parent, start, end, name="s"):
    return spans.Span(span_id, parent, None, name, start, end)


def test_self_time_nested():
    # root [0, 100] > child [10, 60] > grandchild [20, 50]
    got = spans.self_times_ns([_span(0, None, 0, 100), _span(1, 0, 10, 60),
                               _span(2, 1, 20, 50)])
    assert got == {0: 50, 1: 20, 2: 30}


def test_self_time_back_to_back_children():
    # children [10, 30] and [30, 70] touch; their union is 60 long
    got = spans.self_times_ns([_span(0, None, 0, 100), _span(1, 0, 10, 30),
                               _span(2, 0, 30, 70)])
    assert got == {0: 40, 1: 20, 2: 40}


def test_self_time_overlapping_children_count_once():
    got = spans.self_times_ns([_span(0, None, 0, 100), _span(1, 0, 10, 50),
                               _span(2, 0, 40, 60), _span(3, 0, 90, 120)])
    assert got[0] == 100 - 50 - 10


def test_tracer_records_parent_and_operation():
    tracer = spans.Tracer()
    with tracer.operation("op-1"), tracer.span("outer"):
        with tracer.span("inner", kind="x"):
            pass
    with tracer.span("after"):
        pass
    outer, inner, after = tracer.spans
    assert (outer.parent, inner.parent, after.parent) == (None, 0, None)
    assert (outer.op, inner.op, after.op) == ("op-1", "op-1", None)
    assert inner.attrs == {"kind": "x"}
    assert outer.start_ns <= inner.start_ns <= inner.end_ns <= outer.end_ns


def test_failed_call_keeps_span_with_error():
    tracer = spans.Tracer()
    boom = tracer.wrap(lambda: 1 / 0, "boom")
    with pytest.raises(ZeroDivisionError):
        boom()
    assert tracer.spans[0].attrs["error"] == "ZeroDivisionError"
    assert tracer.spans[0].end_ns >= tracer.spans[0].start_ns


def test_patched_wraps_lookup_names_and_restores():
    original = denoise.ssa_decompose
    sig = Signal(samples=np.sin(np.arange(512) / 5.0)
                 + 0.1 * np.cos(np.arange(512) / 1.3), fs=256.0)
    tracer = spans.Tracer()
    with tracer.patched(layers.trace_targets()):
        denoise.remove_motion_ssa(sig)
    assert denoise.ssa_decompose is original
    names = [sp.name for sp in tracer.spans]
    assert names == ["denoise.remove_motion_ssa", "decompose.ssa_decompose"]
    assert tracer.spans[1].parent == tracer.spans[0].span_id
    metrics = layers.pass_metrics(tracer.spans,
                                  spans.self_times_ns(tracer.spans))
    assert metrics["decompose.ssa_decompose.calls"] == 1
    built = metrics["decompose.ssa_decompose.components_built"]
    assert built >= 2
    assert metrics["decompose.ssa_decompose.bytes_computed"] == built * 512 * 8
