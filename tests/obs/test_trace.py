"""Unit contract of the span layer: off by default, zero-cost off.

Every other observability suite builds on these invariants: the
module-level :func:`repro.obs.trace.span` helper returns the shared
falsy ``NULL_SPAN`` singleton when no trace is active (so traceable
code never allocates), entering a real span makes it ambient for
nested calls, and the dict form written as the ``--trace`` file is
plain data.
"""

import json
import pickle

import pytest

from repro.obs.trace import (
    NULL_SPAN,
    Span,
    current_span,
    enabled,
    format_tree,
    span,
)


def test_disabled_by_default():
    assert current_span() is None
    assert not enabled()


def test_span_helper_returns_null_singleton_when_off():
    got = span("anything", foo=1)
    assert got is NULL_SPAN
    assert not got
    # Every mutation is a no-op returning the singleton.
    assert got.child("x") is NULL_SPAN
    assert got.tag(a=1) is NULL_SPAN
    assert got.finish(0.5) is NULL_SPAN
    with got as inner:
        assert inner is NULL_SPAN
    assert not enabled()


def test_entering_a_span_makes_it_ambient():
    root = Span("root", kind="test")
    with root:
        assert current_span() is root
        assert enabled()
        child = span("child", part=0)
        assert child
        with child:
            assert current_span() is child
            grand = span("grand")
            assert grand in child.children
        assert current_span() is root
    assert current_span() is None
    assert root.children == [child]
    assert root.elapsed_seconds is not None
    assert child.elapsed_seconds >= 0.0


def test_reentered_span_accumulates_time():
    node = Span("op")
    with node:
        pass
    first = node.elapsed_seconds
    with node:
        pass
    assert node.elapsed_seconds >= first


def test_exception_tags_error_and_restores_ambient():
    root = Span("root")
    with pytest.raises(ValueError):
        with root:
            raise ValueError("boom")
    assert root.tags["error"] == "ValueError"
    assert current_span() is None


def test_finish_closes_without_timing():
    node = Span("job")
    node.finish(1.25)
    assert node.elapsed_seconds == 1.25


def test_dict_roundtrip_preserves_tree():
    """The ``to_dict`` form is the ``--trace`` file format: plain data
    that survives pickle and JSON unchanged, children in order."""
    root = Span("query", sql="SELECT 1")
    a = root.child("scan", part=0)
    a.finish(0.002)
    root.child("scan", part=1).child("probe")
    payload = root.to_dict()
    assert pickle.loads(pickle.dumps(payload)) == payload
    assert json.loads(json.dumps(payload)) == payload
    assert payload["children"][0] == {
        "name": "scan", "tags": {"part": 0}, "elapsed_seconds": 0.002,
        "children": []}
    assert [c["tags"] for c in payload["children"]] == [{"part": 0},
                                                        {"part": 1}]
    assert payload["children"][1]["children"][0]["name"] == "probe"


def test_walk_is_preorder_and_deterministic():
    root = Span("r")
    a = root.child("a")
    a.child("a1")
    root.child("b")
    assert [(d, s.name) for d, s in root.walk()] \
        == [(0, "r"), (1, "a"), (2, "a1"), (1, "b")]


def test_format_tree_sorts_tags_and_masks_timing():
    root = Span("q", zeta=1, alpha=2)
    root.child("c").finish(0.0015)
    text = format_tree(root)
    assert text == "q  [alpha=2, zeta=1]\n  c"
    timed = format_tree(root, timing=True)
    assert "time=1.500ms" in timed
