"""Tests for the Prometheus exposition renderer, validator, and transports."""

from __future__ import annotations

import pathlib
import urllib.error
import urllib.request

import pytest

from repro.telemetry import MetricsRecorder, span
from repro.telemetry.heartbeat import Heartbeat
from repro.telemetry.prometheus import (
    CONTENT_TYPE,
    ExpositionError,
    MetricFamily,
    MetricsServer,
    escape_help,
    escape_label_value,
    format_value,
    heartbeat_families,
    metrics_families,
    render_exposition,
    render_metrics,
    validate_exposition,
    write_textfile,
)

GOLDEN = pathlib.Path(__file__).parent / "data" / "metrics_golden.prom"


def golden_heartbeats() -> list:
    """The fixed heartbeats the golden file was rendered from."""
    return [
        Heartbeat(
            role="supervisor", status="running", pid=101,
            updated_at=1700000000.0, round=0, max_rounds=5000,
            replicas=8, replicas_done=3, shards=4, retries=2, timeouts=1,
            failed_shards=1, rss_bytes=104857600, peak_rss_bytes=209715200,
            cpu_s=12.5,
        ),
        Heartbeat(
            role="shard", status="running", pid=102,
            updated_at=1700000001.0, round=120, max_rounds=5000,
            replicas=2, replicas_done=1, rounds_per_second=250.0, shard=0,
            attempt=1, rss_bytes=52428800, peak_rss_bytes=52428800,
            cpu_s=3.25,
        ),
        Heartbeat(
            role="shard", status="failed", pid=103,
            updated_at=1700000002.0, round=10, max_rounds=5000,
            replicas=2, replicas_done=0, shard=1, attempt=3,
            rss_bytes=41943040, cpu_s=0.5,
        ),
    ]


class TestValueAndEscapeFormatting:
    def test_integral_floats_render_without_point(self):
        assert format_value(3.0) == "3"
        assert format_value(-7.0) == "-7"
        assert format_value(0.0) == "0"

    def test_non_integral_and_special_values(self):
        assert format_value(2.5) == "2.5"
        assert format_value(float("nan")) == "NaN"
        assert format_value(float("inf")) == "+Inf"
        assert format_value(float("-inf")) == "-Inf"

    def test_huge_integral_floats_keep_float_form(self):
        # Past 1e15 an int cast would pretend to precision floats lack.
        assert "e" in format_value(1e16) or "." in format_value(1e16)

    def test_label_value_escapes(self):
        assert escape_label_value('a"b\\c\nd') == 'a\\"b\\\\c\\nd'

    def test_help_escapes_keep_quotes_literal(self):
        assert escape_help('say "hi"\n\\') == 'say "hi"\\n\\\\'


class TestMetricFamily:
    def test_rejects_illegal_metric_name(self):
        with pytest.raises(ValueError, match="illegal metric name"):
            MetricFamily("1bad", "gauge", "nope")

    def test_rejects_illegal_type(self):
        with pytest.raises(ValueError, match="illegal metric type"):
            MetricFamily("ok_name", "gouge", "typo")

    def test_counter_must_end_in_total(self):
        with pytest.raises(ValueError, match="_total"):
            MetricFamily("repro_rounds", "counter", "missing suffix")

    def test_rejects_illegal_label_name(self):
        with pytest.raises(ValueError, match="illegal label name"):
            MetricFamily(
                "ok_name", "gauge", "bad label",
                [((("0bad", "x"),), 1.0)],
            )


class TestRenderAndValidateRoundTrip:
    def test_rendered_output_validates(self):
        families = [
            MetricFamily(
                "demo_total", "counter", "with \\ and\nnewline",
                [((("k", 'v"\\\n'),), 1.0), ((("k", "plain"),), 2.5)],
            ),
            MetricFamily("demo_gauge", "gauge", "g", [((), float("nan"))]),
        ]
        payload = render_exposition(families)
        stats = validate_exposition(payload)
        assert stats == {"families": 2, "samples": 3}

    def test_golden_file(self):
        # Byte-for-byte: the rendered exposition of a fixed heartbeat set
        # must equal the committed golden payload (and validate).
        payload = render_exposition(heartbeat_families(golden_heartbeats()))
        assert payload == GOLDEN.read_text()
        validate_exposition(payload)

    def test_render_metrics_fallback_is_valid(self):
        payload = render_metrics()
        assert "repro_up 1" in payload
        validate_exposition(payload)

    def test_live_recorder_snapshot_renders(self):
        recorder = MetricsRecorder()
        with span(recorder, "stage") as timing:
            timing.incr("items", 3)
        recorder.round_recorded(1, 10)
        recorder.round_recorded(2, 12)
        payload = render_metrics(recorder.metrics())
        validate_exposition(payload)
        assert "repro_rounds_total 2" in payload
        assert 'repro_span_events_total{path="stage",counter="items"} 3' in payload

    def test_span_families_sorted_and_typed(self):
        recorder = MetricsRecorder()
        with span(recorder, "b"):
            pass
        with span(recorder, "a"):
            pass
        families = {f.name: f for f in metrics_families(recorder.metrics())}
        calls = families["repro_span_calls_total"]
        assert calls.kind == "counter"
        assert [dict(labels)["path"] for labels, _ in calls.samples] == ["a", "b"]

    def test_non_finite_gauges_skipped(self):
        recorder = MetricsRecorder()
        names = {f.name for f in metrics_families(recorder.metrics())}
        # No rounds observed: final_count/mean_abs_drift are NaN and must
        # be absent rather than rendered as NaN gauges.
        assert "repro_run_final_count" not in names
        assert "repro_run_mean_abs_drift" not in names


class TestHeartbeatFamilies:
    def test_empty_input_renders_nothing(self):
        assert heartbeat_families([]) == []

    def test_quarantined_gauge_comes_from_supervisor(self):
        families = {f.name: f for f in heartbeat_families(golden_heartbeats())}
        assert families["repro_shards_quarantined"].samples == [((), 1.0)]
        assert families["repro_shard_retries_total"].kind == "counter"

    def test_shard_labels(self):
        families = {f.name: f for f in heartbeat_families(golden_heartbeats())}
        up = families["repro_heartbeat_up"]
        labelled = {tuple(labels): value for labels, value in up.samples}
        assert labelled[(("role", "supervisor"),)] == 1.0
        assert labelled[(("role", "shard"), ("shard", "1"))] == 0.0


class TestValidatorRejections:
    def assert_rejects(self, payload: str, match: str):
        with pytest.raises(ExpositionError, match=match):
            validate_exposition(payload)

    def test_empty_and_missing_trailing_newline(self):
        self.assert_rejects("", "empty payload")
        self.assert_rejects("# HELP a b\n# TYPE a gauge\na 1", "end with a newline")

    def test_sample_without_declaration(self):
        self.assert_rejects("orphan 1\n", "no preceding HELP/TYPE")

    def test_type_before_help(self):
        self.assert_rejects("# TYPE a gauge\n# HELP a h\na 1\n", "precede|without")

    def test_duplicate_help(self):
        self.assert_rejects(
            "# HELP a h\n# HELP a h\n# TYPE a gauge\na 1\n", "duplicate HELP"
        )

    def test_non_contiguous_family(self):
        self.assert_rejects(
            "# HELP a h\n# TYPE a gauge\na 1\n"
            "# HELP b h\n# TYPE b gauge\nb 1\na 2\n",
            "contiguous",
        )

    def test_counter_without_total_suffix(self):
        self.assert_rejects("# HELP a h\n# TYPE a counter\na 1\n", "_total")

    def test_bad_escape_in_label_value(self):
        self.assert_rejects(
            '# HELP a h\n# TYPE a gauge\na{x="\\t"} 1\n', "bad escape"
        )

    def test_duplicate_series(self):
        self.assert_rejects(
            '# HELP a h\n# TYPE a gauge\na{x="1",y="2"} 1\na{y="2",x="1"} 2\n',
            "duplicate series",
        )
        self.assert_rejects(
            "# HELP a h\n# TYPE a gauge\na 1\na 2\n", "duplicate series"
        )
        # Same name, different label values: distinct series, accepted.
        validate_exposition('# HELP a h\n# TYPE a gauge\na{x="1"} 1\na{x="2"} 2\n')

    def test_duplicate_label_name(self):
        self.assert_rejects(
            '# HELP a h\n# TYPE a gauge\na{x="1",x="2"} 1\n', "duplicate label"
        )

    def test_unparsable_value_and_timestamp(self):
        self.assert_rejects("# HELP a h\n# TYPE a gauge\na one\n", "unparsable value")
        self.assert_rejects(
            "# HELP a h\n# TYPE a gauge\na 1 12.5\n", "not an integer"
        )

    def test_histogram_suffixes_accepted(self):
        payload = (
            "# HELP lat h\n# TYPE lat histogram\n"
            'lat_bucket{le="0.1"} 2\nlat_bucket{le="+Inf"} 3\n'
            "lat_sum 0.4\nlat_count 3\n"
        )
        stats = validate_exposition(payload)
        assert stats == {"families": 1, "samples": 4}

    def test_suffix_resolution_requires_histogram_type(self):
        self.assert_rejects(
            "# HELP lat h\n# TYPE lat gauge\nlat_sum 1\n",
            "no preceding HELP/TYPE",
        )


class TestTransports:
    def test_server_serves_valid_payload(self):
        calls = []

        def collect() -> str:
            calls.append(1)
            return render_metrics(heartbeats=golden_heartbeats())

        with MetricsServer(collect, port=0) as server:
            assert server.port != 0
            with urllib.request.urlopen(server.url, timeout=5) as response:
                assert response.status == 200
                assert response.headers["Content-Type"] == CONTENT_TYPE
                payload = response.read().decode("utf-8")
        validate_exposition(payload)
        assert "repro_shards_quarantined 1" in payload
        assert calls  # the collector ran per scrape, not at startup

    def test_server_404_off_path(self):
        with MetricsServer(lambda: "repro_up 1\n", port=0) as server:
            bad = server.url.replace("/metrics", "/other")
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(bad, timeout=5)
            assert excinfo.value.code == 404

    def test_server_500_on_collector_error(self):
        def explode() -> str:
            raise RuntimeError("collector broke")

        with MetricsServer(explode, port=0) as server:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(server.url, timeout=5)
            assert excinfo.value.code == 500

    def test_write_textfile_atomic(self, tmp_path):
        target = tmp_path / "metrics.prom"
        payload = render_metrics(heartbeats=golden_heartbeats())
        assert write_textfile(target, payload) == target
        assert target.read_text() == payload
        assert not (tmp_path / "metrics.prom.tmp").exists()
        # Overwrite is equally atomic: no partial state between payloads.
        write_textfile(target, "repro_up 1\n")
        assert target.read_text() == "repro_up 1\n"
