import threading
import types

import pytest

from perfbench.tracing import Span, Tracer, layer_of, self_times


def _span(name, start, end, parent=-1):
    span = Span(name, start, parent, op=0, thread=0)
    span.end = end
    return span


def test_self_time_subtracts_children():
    spans = [
        _span("models.forward", 0, 100),
        _span("models.embed", 10, 70, parent=0),
        _span("graphdata.compile", 20, 30, parent=1),
        _span("models.regressor", 75, 95, parent=0),
    ]
    assert self_times(spans) == [100 - 60 - 20, 60 - 10, 10, 20]


def test_self_time_clips_and_merges_overlapping_children():
    spans = [
        _span("root", 0, 100),
        _span("a", -5, 40, parent=0),   # starts before its parent
        _span("b", 30, 60, parent=0),   # overlaps a
        _span("c", 90, 120, parent=0),  # ends after its parent
    ]
    assert self_times(spans)[0] == 100 - 60 - 10


def test_open_span_has_no_self_time():
    span = Span("open", 5, -1, 0, 0)
    assert self_times([span]) == [0]


def test_nested_spans_record_parents_and_ops():
    tracer = Tracer()
    tracer.set_op(7)
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    outer, inner = tracer.spans
    assert outer.parent == -1 and inner.parent == 0
    assert outer.op == inner.op == 7
    assert outer.start <= inner.start <= inner.end <= outer.end


def test_spans_on_another_thread_have_their_own_stack():
    tracer = Tracer()
    with tracer.span("main"):
        worker = threading.Thread(target=lambda: tracer.span("side").__enter__())
        worker.start()
        worker.join(timeout=5)
    assert not worker.is_alive()
    side = next(s for s in tracer.spans if s.name == "side")
    assert side.parent == -1


def test_table_aggregates_count_total_and_self():
    tracer = Tracer()
    tracer.spans = [
        _span("x.a", 0, 2_000_000),
        _span("x.b", 0, 500_000, parent=0),
        _span("x.b", 500_000, 1_000_000, parent=0),
    ]
    table = tracer.table()
    assert table["x.a"] == {"count": 1, "total_ms": 2.0, "self_ms": 1.0}
    assert table["x.b"]["count"] == 2
    assert table["x.b"]["self_ms"] == pytest.approx(1.0)
    assert layer_of("graphdata.compile") == "graphdata"


class _Thing:
    def method(self, x):
        return x + 1

    @classmethod
    def build(cls, x):
        return (cls, x)

    @staticmethod
    def helper(x):
        return x * 2


def test_wrap_and_restore_functions_and_methods():
    module = types.ModuleType("fake")
    module.fn = lambda x: x - 1
    original_fn = module.fn
    original_build = vars(_Thing)["build"]
    tracer = Tracer()
    tracer.wrap(module, "fn", "fake.fn")
    tracer.wrap(_Thing, "method", "fake.method")
    tracer.wrap(_Thing, "build", "fake.build")
    tracer.wrap(_Thing, "helper", "fake.helper")
    thing = _Thing()
    tracer.wrap(thing, "method", "fake.bound")
    assert module.fn(5) == 4
    assert thing.method(1) == 2
    assert _Thing.build(3) == (_Thing, 3)
    assert _Thing.helper(4) == 8
    names = [s.name for s in tracer.spans]
    assert names == ["fake.fn", "fake.bound", "fake.method", "fake.build",
                     "fake.helper"]
    tracer.restore()
    assert module.fn is original_fn
    assert vars(_Thing)["build"] is original_build
    assert "method" not in vars(thing)
    count = len(tracer.spans)
    thing.method(1)
    assert len(tracer.spans) == count


def test_after_hook_can_count_and_rename():
    module = types.ModuleType("fake")
    module.fn = lambda x: (x, x > 0)

    def after(tracer, span, args, kwargs, result):
        tracer.count("fake.calls")
        span.name = "fake.hit" if result[1] else "fake.miss"

    tracer = Tracer()
    tracer.wrap(module, "fn", "fake.fn", after)
    module.fn(1)
    module.fn(-1)
    tracer.restore()
    assert [s.name for s in tracer.spans] == ["fake.hit", "fake.miss"]
    assert tracer.counters["fake.calls"] == 2
