"""Metrics registry semantics: counters, gauges, histograms, identity."""

import pytest

from repro.obs.registry import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)


class TestCounter:
    def test_increments(self):
        c = Counter("c")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_negative_increment_rejected(self):
        c = Counter("c")
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_set_total_fast_forwards(self):
        c = Counter("c")
        c.set_total(10)
        c.set_total(10)  # no movement is fine
        assert c.value == 10

    def test_set_total_cannot_move_backwards(self):
        c = Counter("c")
        c.set_total(10)
        with pytest.raises(ValueError):
            c.set_total(9)


class TestGauge:
    def test_set_inc_dec(self):
        g = Gauge("g")
        g.set(5)
        g.inc(2)
        g.dec(4)
        assert g.value == 3.0

    def test_callback_backed(self):
        state = {"v": 7}
        g = Gauge("g", callback=lambda: state["v"])
        assert g.value == 7.0
        state["v"] = 9
        assert g.value == 9.0

    def test_callback_backed_rejects_set(self):
        g = Gauge("g", callback=lambda: 1.0)
        with pytest.raises(RuntimeError):
            g.set(2)


class TestHistogram:
    def test_buckets_are_cumulative(self):
        h = Histogram("h", buckets=(1.0, 2.0, 5.0))
        for v in (0.5, 1.5, 1.7, 4.0, 99.0):
            h.observe(v)
        assert h.cumulative_buckets() == [(1.0, 1), (2.0, 3), (5.0, 4)]
        assert h.count == 5
        assert h.sum == pytest.approx(0.5 + 1.5 + 1.7 + 4.0 + 99.0)
        assert h.mean == pytest.approx(h.sum / 5)

    def test_bounds_sorted_and_deduped(self):
        h = Histogram("h", buckets=(5.0, 1.0, 2.0))
        assert h.upper_bounds == (1.0, 2.0, 5.0)
        with pytest.raises(ValueError):
            Histogram("h", buckets=(1.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("h", buckets=())

    def test_default_buckets_cover_scheduler_scales(self):
        assert DEFAULT_BUCKETS[0] <= 1e-4
        assert DEFAULT_BUCKETS[-1] >= 1.0


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        reg = MetricsRegistry()
        a = reg.counter("jobs_total", "help")
        b = reg.counter("jobs_total")
        assert a is b
        assert len(reg) == 1

    def test_labels_distinguish_instruments(self):
        reg = MetricsRegistry()
        a = reg.gauge("depth", labels={"user": "alice"})
        b = reg.gauge("depth", labels={"user": "bob"})
        assert a is not b
        # label order does not matter for identity
        c = reg.gauge("two", labels={"x": "1", "y": "2"})
        d = reg.gauge("two", labels={"y": "2", "x": "1"})
        assert c is d

    def test_type_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("n")
        with pytest.raises(ValueError):
            reg.gauge("n")

    def test_collect_is_sorted(self):
        reg = MetricsRegistry()
        reg.counter("b_total")
        reg.counter("a_total")
        reg.gauge("a_depth", labels={"u": "x"})
        names = [i.name for i in reg.collect()]
        assert names == sorted(names)

    def test_value_convenience(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(4)
        assert reg.value("c") == 4.0
        assert reg.value("missing") == 0.0
        reg.histogram("h")
        with pytest.raises(TypeError):
            reg.value("h")

    def test_refreshers_run_before_every_read(self):
        """A mirror is brought up to date when it is read — by ``value``,
        ``get`` and ``collect`` alike — and may add series while at it."""
        reg = MetricsRegistry()
        stats = {"done": 0, "users": []}
        done = reg.counter("done_total")

        def refresh():
            done.set_total(stats["done"])
            for user in stats["users"]:
                reg.gauge("seen", labels={"user": user}).set(1)

        reg.on_collect(refresh)
        stats["done"] = 3
        assert reg.value("done_total") == 3.0
        stats["done"] = 5
        assert reg.get("done_total").value == 5.0
        stats["done"], stats["users"] = 8, ["a", "b"]
        assert [(i.name, i.value) for i in reg.collect()] == [
            ("done_total", 8.0), ("seen", 1.0), ("seen", 1.0),
        ]

    def test_help_and_type_metadata(self):
        reg = MetricsRegistry()
        reg.counter("c", "counts things")
        assert reg.help_for("c") == "counts things"
        assert reg.type_of("c") == "counter"
        assert reg.type_of("missing") == "untyped"


class TestExporterLabelEscaping:
    """Prometheus text exposition must escape label values per the spec:
    backslash, double-quote, and newline."""

    def _line_for(self, value):
        from repro.obs.exporters import to_prometheus_text

        reg = MetricsRegistry()
        reg.gauge("g", labels={"account": value}).set(1.0)
        (line,) = [
            l for l in to_prometheus_text(reg).splitlines()
            if not l.startswith("#")
        ]
        return line

    def test_plain_value_verbatim(self):
        assert self._line_for("physics") == 'g{account="physics"} 1'

    def test_quote_escaped(self):
        assert self._line_for('say "hi"') == 'g{account="say \\"hi\\""} 1'

    def test_backslash_escaped(self):
        assert self._line_for(r"a\b") == 'g{account="a\\\\b"} 1'

    def test_newline_escaped(self):
        line = self._line_for("two\nlines")
        assert line == 'g{account="two\\nlines"} 1'
        # the exposition stays one line per sample
        assert "\n" not in line

    def test_escaping_keeps_exposition_parseable(self):
        from repro.obs.exporters import parse_prometheus_text, to_prometheus_text

        reg = MetricsRegistry()
        reg.counter("c_total", labels={"u": 'we"ird\\\n'}).inc(3)
        parsed = parse_prometheus_text(to_prometheus_text(reg))
        assert list(parsed.values()) == [3.0]
