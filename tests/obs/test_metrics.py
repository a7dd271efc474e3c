"""Unit contract of the metrics registry and its two export formats."""

import json

import pytest

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    REGISTRY,
    Histogram,
    MetricsRegistry,
)


def test_counter_accumulates_per_label_set():
    reg = MetricsRegistry()
    c = reg.counter("hits_total", "cache hits")
    c.inc()
    c.inc(2, table="ev")
    c.inc(table="ev")
    assert c.value() == 1
    assert c.value(table="ev") == 3
    assert c.total() == 4
    with pytest.raises(ValueError):
        c.inc(-1)


def test_gauge_overwrites():
    reg = MetricsRegistry()
    g = reg.gauge("margin_seconds")
    g.set(5.0)
    g.set(2.5)
    assert g.value() == 2.5


def test_histogram_buckets_sum_count():
    reg = MetricsRegistry()
    h = reg.histogram("seconds", buckets=(0.1, 1.0))
    for v in (0.05, 0.5, 3.0):
        h.observe(v)
    (sample,) = h.samples()
    assert sample["buckets"] == {"0.1": 1, "1.0": 2}
    assert sample["inf"] == 3
    assert sample["count"] == 3
    assert sample["sum"] == pytest.approx(3.55)


def test_get_or_create_returns_same_instrument():
    reg = MetricsRegistry()
    assert reg.counter("a_total") is reg.counter("a_total")
    with pytest.raises(ValueError):
        reg.gauge("a_total")  # name already bound to a counter
    assert reg.get("a_total").kind == "counter"
    assert reg.get("missing") is None


def test_reset_zeroes_values_but_keeps_registrations():
    reg = MetricsRegistry()
    c = reg.counter("x_total")
    c.inc()
    reg.reset()
    assert reg.get("x_total") is c           # registration survives
    assert c.total() == 0                    # ...but the samples are gone
    assert "x_total" in reg.exposition()


def test_reset_does_not_orphan_module_level_references():
    """Regression: reset() used to clear the registration table, so a
    module-level instrument reference kept recording into an object
    the registry no longer exported — its counts silently vanished
    from snapshot()/exposition().  reset() now delegates to
    reset_values(), so the old reference keeps exporting."""
    reg = MetricsRegistry()
    module_level = reg.counter("engine_ops_total", "ops")
    module_level.inc(7)
    reg.reset()
    module_level.inc()                       # the held reference records...
    assert reg.counter("engine_ops_total") is module_level
    assert module_level.total() == 1
    assert "engine_ops_total 1" in reg.exposition()   # ...and exports
    assert reg.snapshot()["engine_ops_total"]["samples"] != []


def test_bound_series_record_like_their_instrument():
    reg = MetricsRegistry()
    c = reg.counter("ops_total")
    h = reg.histogram("op_seconds", buckets=(0.1, 1.0))
    planner = c.series(mode="planner")
    planner.inc()
    planner.inc(2)
    c.inc(mode="planner")
    c.series().inc(5)
    assert c.value(mode="planner") == 4 and c.value() == 5
    with pytest.raises(ValueError):
        planner.inc(-1)
    h.series(mode="x").observe(0.05)
    h.observe(0.5, mode="x")
    (sample,) = h.samples()
    assert sample["labels"] == {"mode": "x"}
    assert sample["buckets"] == {"0.1": 1, "1.0": 2}
    assert sample["count"] == 2


def test_bound_series_keep_exporting_after_reset():
    """The orphaning bug of the test above, for bound series: a series
    bound before ``reset()`` still records into what the registry
    exports."""
    reg = MetricsRegistry()
    counter = reg.counter("ops_total", "ops")
    hist = reg.histogram("op_seconds", "latency", buckets=(0.1, 1.0))
    ops, seconds = counter.series(mode="planner"), hist.series()
    ops.inc(7)
    seconds.observe(0.5)
    reg.reset()
    assert "ops_total{" not in reg.exposition()
    ops.inc()
    seconds.observe(0.05)
    assert counter.value(mode="planner") == 1
    text = reg.exposition()
    assert 'ops_total{mode="planner"} 1' in text
    assert 'op_seconds_bucket{le="0.1"} 1' in text
    assert "op_seconds_count 1" in text


@pytest.mark.parametrize("value, text", [
    (float("inf"), "+Inf"), (float("-inf"), "-Inf"), (float("nan"), "NaN")],
    ids=["inf", "-inf", "nan"])
def test_exposition_renders_non_finite_values(value, text):
    """Prometheus spells the non-finite floats ``+Inf``, ``-Inf`` and
    ``NaN``; every instrument kind can hold one."""
    reg = MetricsRegistry()
    reg.gauge("g").set(value, kind="gauge")
    if not value < 0:                 # counters only go up
        reg.counter("c_total").inc(value)
    reg.histogram("h", buckets=(1.0,)).observe(value)
    lines = reg.exposition().splitlines()
    assert 'g{kind="gauge"} %s' % text in lines
    if not value < 0:
        assert "c_total %s" % text in lines
    assert "h_sum %s" % text in lines
    below = "1" if value < 0 else "0"
    assert 'h_bucket{le="1"} %s' % below in lines
    assert 'h_bucket{le="+Inf"} 1' in lines
    assert "h_count 1" in lines


def test_exposition_format_is_prometheus_text():
    reg = MetricsRegistry()
    c = reg.counter("queries_total", "queries served")
    c.inc(2, mode="planner")
    c.inc(mode="legacy")
    reg.gauge("up").set(1)
    text = reg.exposition()
    assert text.splitlines() == [
        "# HELP queries_total queries served",
        "# TYPE queries_total counter",
        'queries_total{mode="legacy"} 1',
        'queries_total{mode="planner"} 2',
        "# TYPE up gauge",
        "up 1",
    ]
    assert text.endswith("\n")


def test_exposition_escapes_label_values():
    reg = MetricsRegistry()
    reg.counter("odd_total").inc(sql='SELECT "x"\nFROM t')
    line = reg.exposition().splitlines()[-1]
    assert line == 'odd_total{sql="SELECT \\"x\\"\\nFROM t"} 1'


def test_exposition_escapes_hostile_label_values():
    """All three escapes at once, backslash first — a raw ``\\`` in the
    value must not double-escape the quote that follows it."""
    from repro.obs.metrics import escape_label_value

    hostile = 'a\\b"c\nd'
    assert escape_label_value(hostile) == 'a\\\\b\\"c\\nd'
    reg = MetricsRegistry()
    reg.counter("h_total").inc(v=hostile)
    line = reg.exposition().splitlines()[-1]
    assert line == 'h_total{v="a\\\\b\\"c\\nd"} 1'
    # One escaped line: no raw newline leaked into the exposition.
    assert len(reg.exposition().splitlines()) == 2


def test_exposition_escapes_help_text():
    """HELP lines escape backslash and newline (but not quotes — the
    exposition format only quotes label values)."""
    reg = MetricsRegistry()
    reg.counter("w_total", 'matches "x\\y"\nacross lines')
    help_line = reg.exposition().splitlines()[0]
    assert help_line == \
        '# HELP w_total matches "x\\\\y"\\nacross lines'


def test_reset_values_keeps_registrations():
    """The test-isolation primitive: values go to zero, the instruments
    (and every module-level reference to them) stay registered —
    unlike reset(), which orphans them."""
    reg = MetricsRegistry()
    c = reg.counter("x_total", "things")
    g = reg.gauge("y")
    h = reg.histogram("z_seconds")
    c.inc(5, mode="a")
    g.set(3.0)
    h.observe(0.25)
    reg.reset_values()
    assert reg.counter("x_total") is c     # same object, still bound
    assert c.total() == 0
    assert g.value() == 0
    assert h.samples() == []
    c.inc()                                # the old reference still counts
    assert "x_total 1" in reg.exposition()


def test_histogram_exposition_has_cumulative_buckets():
    reg = MetricsRegistry()
    h = reg.histogram("lat", buckets=(0.1, 1.0))
    h.observe(0.05)
    h.observe(0.5)
    lines = reg.exposition().splitlines()
    assert 'lat_bucket{le="0.1"} 1' in lines
    assert 'lat_bucket{le="1"} 2' in lines
    assert 'lat_bucket{le="+Inf"} 2' in lines
    assert "lat_count 2" in lines


def test_snapshot_is_json_serializable_and_sorted():
    reg = MetricsRegistry()
    reg.counter("b_total").inc(worker=3)
    reg.histogram("a_seconds").observe(0.01)
    snap = reg.snapshot()
    assert list(snap) == ["a_seconds", "b_total"]
    assert snap["b_total"]["type"] == "counter"
    assert snap["b_total"]["samples"] == [
        {"labels": {"worker": "3"}, "value": 1}]
    json.dumps(snap)  # must not raise


def test_global_registry_carries_engine_instruments():
    """Importing the engine registers its cold-site instruments."""
    import repro.sql.database  # noqa: F401  (registers on import)
    import repro.service.cache  # noqa: F401
    assert REGISTRY.get("repro_queries_total") is not None
    assert REGISTRY.get("repro_cache_hits_total") is not None
    assert isinstance(REGISTRY.get("repro_query_seconds"), Histogram)


class _LoopHistogram(Histogram):
    """The histogram as it was before bisection, kept as the oracle:
    ``observe`` walks every bucket and keeps cumulative counts, which
    the exports print as they are."""

    def observe(self, value, **labels):
        key = tuple(sorted((k, str(v)) for k, v in labels.items()))
        slot = self._values.get(key)
        if slot is None:
            slot = [0.0] * (len(self.buckets) + 3)
            self._values[key] = slot
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                slot[i] += 1
        slot[len(self.buckets)] += 1          # +Inf
        slot[len(self.buckets) + 1] += value  # sum
        slot[len(self.buckets) + 2] += 1      # count

    def samples(self):
        n = len(self.buckets)
        return [{"labels": dict(key),
                 "buckets": {str(b): slot[i]
                             for i, b in enumerate(self.buckets)},
                 "inf": slot[n], "sum": slot[n + 1], "count": slot[n + 2]}
                for key, slot in sorted(self._values.items())]

    def exposition_lines(self):
        from repro.obs.metrics import _num, _render_labels

        n = len(self.buckets)
        lines = []
        for key, slot in sorted(self._values.items()):
            for i, bound in enumerate(self.buckets):
                lines.append("%s_bucket%s %s" % (
                    self.name, _render_labels(key, [("le", _num(bound))]),
                    _num(slot[i])))
            lines.append("%s_bucket%s %s" % (
                self.name, _render_labels(key, [("le", "+Inf")]),
                _num(slot[n])))
            lines.append("%s_sum%s %s" % (
                self.name, _render_labels(key), _num(slot[n + 1])))
            lines.append("%s_count%s %s" % (
                self.name, _render_labels(key), _num(slot[n + 2])))
        return lines


@pytest.mark.parametrize("seed", range(4))
def test_histogram_bisection_matches_bucket_walk(seed):
    """Bisection plus per-bucket counts export exactly what the bucket
    walk did: random values, every bound exactly, zero, negatives and
    infinities; NaN lands in no finite bucket.  Both exports are
    compared, non-finite sums included."""
    import random

    rng = random.Random(seed)
    buckets = DEFAULT_BUCKETS if seed % 2 else (-1.0, 0.0, 0.5, 2.0)
    special = list(buckets) + [0, 0.0, -0.0, -3.5, -1, float("inf"),
                               float("-inf")]
    label_sets = [{}, {"mode": "planner"}, {"b": 2, "a": "x"}]
    finite, everything = [], []
    for n in range(300):
        if n % 3 == 0:
            value = rng.choice(special)
        else:
            value = rng.uniform(-2.0, 40.0) * rng.choice((1e-3, 1, 1e-1))
        labels = rng.choice(label_sets)
        everything.append((value, labels))
        if value not in (float("inf"), float("-inf")):
            finite.append((value, labels))
    everything.append((float("nan"), {"mode": "planner"}))
    for stream in (finite, everything):
        fast, loop = MetricsRegistry(), MetricsRegistry()
        fast._instruments["h"] = Histogram("h", "help", buckets)
        loop._instruments["h"] = _LoopHistogram("h", "help", buckets)
        for registry in (fast, loop):
            for value, labels in stream:
                registry.get("h").observe(value, **labels)
        # json renders NaN and infinities, which compare unequal as floats
        assert json.dumps(fast.snapshot()) == json.dumps(loop.snapshot())
        # sums of the second stream are +Inf, -Inf or NaN
        assert fast.exposition() == loop.exposition()
    nan_sample = [s for s in fast.get("h").samples()
                  if s["labels"] == {"mode": "planner"}][0]
    assert nan_sample["inf"] == nan_sample["count"]


def test_label_keys_match_sorted_keys():
    from repro.obs.metrics import _label_key

    for labels in ({}, {"mode": "legacy"}, {"n": 3},
                   {"z": 1, "a": 2, "m": "x"}):
        assert _label_key(labels) == tuple(
            sorted((k, str(v)) for k, v in labels.items()))
