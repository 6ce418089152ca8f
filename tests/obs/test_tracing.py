"""Tracing unit tests: span records, collector bounds, tree assembly."""

from __future__ import annotations

import json
import threading

import pytest

from repro.obs.tracing import (
    Span,
    SpanContext,
    Tracer,
    span_tree,
    trace_meta,
    tree_stages,
)


def _span(trace="t1", sid="s1", parent=None, stage="request", start=1.0):
    return Span(
        trace_id=trace,
        span_id=sid,
        parent_id=parent,
        stage=stage,
        start_s=start,
        duration_s=0.5,
    )


class TestSpanRecords:
    def test_dict_round_trip(self):
        span = _span()
        span.attrs["engine"] = "fused"
        again = Span.from_dict(json.loads(json.dumps(span.to_dict())))
        assert again == span

    def test_context_to_meta_is_the_wire_form(self):
        ctx = _span().context
        assert ctx == SpanContext("t1", "s1")
        assert ctx.to_meta() == {"trace_id": "t1", "span_id": "s1"}
        assert trace_meta(ctx) == {"trace_id": "t1", "span_id": "s1"}
        assert trace_meta(None) is None

    @pytest.mark.parametrize(
        "garbage",
        [
            {},
            {"trace_id": "t"},
            {"trace_id": "t", "span_id": "s", "parent_id": None,
             "stage": "x", "start_s": "soon", "duration_s": 0.0},
            {"trace_id": "t", "span_id": "s", "parent_id": None,
             "stage": "x", "start_s": 0.0, "duration_s": 0.0,
             "attrs": "not-a-dict"},
        ],
    )
    def test_malformed_wire_records_rejected(self, garbage):
        with pytest.raises(ValueError, match="malformed span"):
            Span.from_dict(garbage)

    def test_id_shapes(self):
        trace_id, span_id = Tracer.new_trace_id(), Tracer.new_span_id()
        assert len(trace_id) == 16 and int(trace_id, 16) >= 0
        assert len(span_id) == 8 and int(span_id, 16) >= 0
        assert Tracer.new_trace_id() != trace_id


class TestTracer:
    def test_record_links_a_child_through_its_parent_context(self):
        tracer = Tracer()
        root = Span(
            Tracer.new_trace_id(), Tracer.new_span_id(), None, "request",
            123.0, 0.5, {"deployment": "m0"},
        )
        parent = root.context
        child = Span(
            parent.trace_id, Tracer.new_span_id(), parent.span_id,
            "queue_wait", 123.1, 0.004, {"reason": "deadline"},
        )
        tracer.record(child)
        tracer.record(root)
        assert tracer.spans(root.trace_id) == [child, root]
        (tree,) = span_tree(tracer.spans())
        assert tree["span"] is root
        assert [c["span"] for c in tree["children"]] == [child]

    def test_adopt_wire_records(self):
        tracer = Tracer()
        records = [_span(sid=f"s{i}").to_dict() for i in range(3)]
        adopted = tracer.adopt(records)
        assert [s.span_id for s in adopted] == ["s0", "s1", "s2"]
        assert len(tracer.spans("t1")) == 3
        with pytest.raises(ValueError, match="malformed span"):
            tracer.adopt([{"nope": 1}])

    def test_bounded_collector_counts_evictions(self):
        tracer = Tracer(capacity=4)
        for i in range(10):
            tracer.record(_span(sid=f"s{i}"))
        stats = tracer.stats()
        assert stats == {
            "recorded": 10, "buffered": 4, "evicted": 6, "capacity": 4
        }
        assert [s.span_id for s in tracer.spans()] == ["s6", "s7", "s8", "s9"]
        with pytest.raises(ValueError, match="capacity"):
            Tracer(capacity=0)

    def test_trace_ids_and_clear(self):
        tracer = Tracer()
        tracer.record(_span(trace="t2", sid="a"))
        tracer.record(_span(trace="t1", sid="b"))
        tracer.record(_span(trace="t2", sid="c"))
        assert tracer.trace_ids() == ["t2", "t1"]
        tracer.clear()
        assert tracer.spans() == []

    def test_to_jsonl(self):
        tracer = Tracer()
        tracer.record(_span())
        (line,) = tracer.to_jsonl().splitlines()
        assert json.loads(line)["stage"] == "request"

    def test_concurrent_recording_is_exact(self):
        tracer = Tracer(capacity=10_000)
        threads_n, per_thread = 8, 500

        def work(k: int) -> None:
            for i in range(per_thread):
                tracer.record(_span(trace=f"t{k}", sid=f"{k}:{i}"))

        threads = [
            threading.Thread(target=work, args=(k,)) for k in range(threads_n)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        stats = tracer.stats()
        assert stats["recorded"] == threads_n * per_thread
        assert stats["buffered"] == threads_n * per_thread
        assert stats["evicted"] == 0


class TestSpanTree:
    def test_assembles_parent_child_links(self):
        spans = [
            _span(sid="root", stage="request", start=1.0),
            _span(sid="q", parent="root", stage="queue_wait", start=1.1),
            _span(sid="c", parent="root", stage="coalesce", start=1.2),
            _span(sid="d", parent="c", stage="shard_dispatch", start=1.3),
        ]
        (tree,) = span_tree(spans)
        assert tree["span"].span_id == "root"
        assert [n["span"].span_id for n in tree["children"]] == ["q", "c"]
        assert tree["children"][1]["children"][0]["span"].span_id == "d"
        assert tree_stages(tree) == {
            "request", "queue_wait", "coalesce", "shard_dispatch"
        }

    def test_children_ordered_by_start_time(self):
        spans = [
            _span(sid="b", parent="root", start=2.0),
            _span(sid="root", start=0.0),
            _span(sid="a", parent="root", start=1.0),
        ]
        (tree,) = span_tree(spans)
        assert [n["span"].span_id for n in tree["children"]] == ["a", "b"]

    def test_orphans_become_roots(self):
        # A truncated collector window (parent evicted) must still
        # assemble instead of dropping the surviving subtree.
        spans = [
            _span(sid="d", parent="evicted", stage="shard_dispatch"),
            _span(sid="w", parent="d", stage="wire", start=2.0),
        ]
        (tree,) = span_tree(spans)
        assert tree["span"].span_id == "d"
        assert tree_stages(tree) == {"shard_dispatch", "wire"}

    def test_self_parent_cannot_loop(self):
        (tree,) = span_tree([_span(sid="x", parent="x")])
        assert tree["span"].span_id == "x" and tree["children"] == []
