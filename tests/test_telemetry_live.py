"""Tests of the live observability layer: the crash-safe progress event
stream, the ``campaign watch`` analysis/CLI, the OpenMetrics and OTLP
exporters, graceful telemetry-report error handling, and the bench perf
history.

The load-bearing contracts:

* the progress stream follows the store segments' crash-safety
  discipline — a torn final line is ignored, corrupt lines are skipped,
  and a ``kill -9`` mid-campaign leaves a parseable stream;
* stored campaign records are bit-identical with the progress stream on
  or off (observability never touches the science);
* ``watch --once`` on a finished store reports 100 % with zero stalls;
* OpenMetrics text round-trips counters/gauges/histogram buckets through
  ``parse_openmetrics`` and passes its own validator;
* ``telemetry show`` / ``load_report`` turn a missing or corrupt
  ``telemetry.json`` into one actionable error line, never a traceback.
"""

from __future__ import annotations

import importlib.util
import io
import json
import os
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro import telemetry
from repro.campaign import CampaignDefinition, run_campaign
from repro.campaign.cli import main as cli_main
from repro.campaign.store import CampaignStore
from repro.campaign.watch import (
    MetricsServer,
    analyze_progress,
    load_view,
    render_view,
    run_watch,
    view_metrics,
)
from repro.engine import (
    AttackSpec,
    DetectorSpec,
    GridSpec,
    MTDSpec,
    ScenarioSpec,
)
from repro.exceptions import TelemetryError
from repro.telemetry.export import (
    otlp_spans_payload,
    parse_openmetrics,
    render_openmetrics,
    validate_openmetrics,
)
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.progress import (
    FORCED_KINDS,
    ProgressWriter,
    ShardProgress,
    progress_path,
    read_progress,
    set_current,
    tick,
)
from repro.telemetry.report import load_report
from repro.telemetry.spans import drain_spans

REPO_ROOT = Path(__file__).resolve().parent.parent
REPO_SRC = str(REPO_ROOT / "src")


@pytest.fixture(autouse=True)
def clean_telemetry():
    telemetry.disable()
    telemetry.reset()
    drain_spans()
    set_current(None)
    yield
    telemetry.disable()
    telemetry.reset()
    drain_spans()
    set_current(None)


def small_spec(**overrides) -> ScenarioSpec:
    defaults = dict(
        name="live-small",
        grid=GridSpec(case="ieee14", baseline="dc-opf"),
        attack=AttackSpec(n_attacks=16, seed=1),
        mtd=MTDSpec(policy="random", max_relative_change=0.2),
        n_trials=2,
        base_seed=23,
        deltas=(0.5, 0.9),
        metric="eta(0.9)",
    )
    defaults.update(overrides)
    return ScenarioSpec(**defaults)


def tiny_definition(**overrides) -> CampaignDefinition:
    defaults = dict(
        name="live-campaign",
        base=small_spec(),
        grids=({"mtd.max_relative_change": (0.1, 0.2)},),
        shard_size=1,
    )
    defaults.update(overrides)
    return CampaignDefinition(**defaults)


# ----------------------------------------------------------------------
# progress stream: writer, rate limiting, crash safety
# ----------------------------------------------------------------------
class TestProgressStream:
    def test_emit_and_read_back(self, tmp_path):
        with ProgressWriter(tmp_path, min_interval=0.0) as writer:
            writer.emit("run_start", campaign="c", n_items=3)
            writer.emit("heartbeat", shard=0, done=1)
        events = read_progress(tmp_path)
        assert [e["kind"] for e in events] == ["run_start", "heartbeat"]
        assert events[0]["campaign"] == "c"
        assert events[0]["pid"] == os.getpid()
        assert [e["seq"] for e in events] == [1, 2]
        assert all(e["ts"] > 0 for e in events)

    def test_torn_final_line_is_ignored(self, tmp_path):
        with ProgressWriter(tmp_path, min_interval=0.0) as writer:
            writer.emit("run_start", n_items=1)
            writer.emit("heartbeat", shard=0, done=1)
        with progress_path(tmp_path).open("ab") as handle:
            handle.write(b'{"kind": "heartbeat", "ts": 1.0, "done": 99')
        events = read_progress(tmp_path)
        assert [e["kind"] for e in events] == ["run_start", "heartbeat"]
        assert events[-1]["done"] == 1

    def test_corrupt_middle_line_is_skipped(self, tmp_path):
        writer = ProgressWriter(tmp_path, min_interval=0.0)
        writer.emit("run_start", n_items=1)
        writer.close()
        with progress_path(tmp_path).open("ab") as handle:
            handle.write(b"not json at all\n")
            handle.write(b'{"no_kind_field": true}\n')
        with ProgressWriter(tmp_path, min_interval=0.0) as writer:
            writer.emit("run_done", complete=True)
        assert [e["kind"] for e in read_progress(tmp_path)] == [
            "run_start",
            "run_done",
        ]

    def test_missing_stream_reads_empty(self, tmp_path):
        assert read_progress(tmp_path) == []

    def test_rate_limit_drops_heartbeats_but_not_forced_kinds(self, tmp_path):
        with ProgressWriter(tmp_path, min_interval=3600.0) as writer:
            for kind in sorted(FORCED_KINDS):
                assert writer.emit(kind) is not None
            assert writer.emit("heartbeat", done=1) is not None  # first one
            assert writer.emit("heartbeat", done=2) is None  # inside window
            assert writer.emit("heartbeat", force=True, done=3) is not None
        kinds = [e["kind"] for e in read_progress(tmp_path)]
        assert kinds.count("heartbeat") == 2
        assert set(kinds) >= FORCED_KINDS

    def test_zero_interval_emits_everything(self, tmp_path):
        with ProgressWriter(tmp_path, min_interval=0.0) as writer:
            for done in range(5):
                assert writer.emit("heartbeat", done=done) is not None
        assert len(read_progress(tmp_path)) == 5

    def test_shard_progress_lifecycle(self, tmp_path):
        writer = ProgressWriter(tmp_path, min_interval=0.0)
        progress = ShardProgress(writer, shard=3, total=2)
        progress.scenario_done(n_trials=4)
        progress.scenario_done(n_trials=4)
        progress.finish()
        writer.close()
        events = read_progress(tmp_path)
        assert [e["kind"] for e in events] == [
            "shard_start",
            "heartbeat",
            "heartbeat",
            "shard_done",
        ]
        final = events[-1]
        assert final["shard"] == 3
        assert final["done"] == 2 and final["total"] == 2
        assert final["trials_done"] == 8
        assert final["wall_seconds"] >= 0 and final["cpu_seconds"] >= 0

    def test_global_tick_is_a_noop_without_a_sink(self):
        tick(scenario="x", trial=1)  # must not raise, must not write

    def test_global_tick_routes_to_installed_sink(self, tmp_path):
        writer = ProgressWriter(tmp_path, min_interval=0.0)
        set_current(ShardProgress(writer, shard=0, total=1))
        tick(scenario="s", trial=2, n_trials=4)
        set_current(None)
        writer.close()
        beat = [e for e in read_progress(tmp_path) if e["kind"] == "heartbeat"][-1]
        assert beat["scenario"] == "s" and beat["trial"] == 2


# ----------------------------------------------------------------------
# watch analysis (pure, injected clock/pid probe)
# ----------------------------------------------------------------------
def _event(kind, ts, **fields):
    return {"v": 1, "kind": kind, "ts": ts, "pid": 1234, "seq": 1, **fields}


class TestAnalyzeProgress:
    @staticmethod
    def analyze(events, now, **kwargs):
        # The synthetic events carry a fake pid; probe it as alive unless a
        # test overrides the probe to exercise dead-writer detection.
        kwargs.setdefault("pid_probe", lambda pid: True)
        return analyze_progress(events, now=now, **kwargs)

    def run_events(self):
        return [
            _event("run_start", 0.0, campaign="c", plan_hash="abc", n_items=10,
                   completed=2, heartbeat_interval=1.0),
            _event("shard_start", 1.0, shard=0, done=0, total=4),
            _event("heartbeat", 2.0, shard=0, done=1, total=4,
                   trials_done=8, trials_per_sec=4.0),
            _event("heartbeat", 4.0, shard=0, done=3, total=4,
                   trials_done=24, trials_per_sec=6.0),
        ]

    def test_baseline_and_merged_shard_state(self):
        view = self.analyze(self.run_events(), now=5.0)
        assert view.campaign == "c" and view.plan_hash == "abc"
        assert view.n_items == 10 and view.baseline == 2
        assert view.completed == 5  # baseline 2 + shard done 3
        assert view.percent == pytest.approx(50.0)
        (shard,) = view.shards
        assert shard.done == 3 and shard.trials_per_sec == 6.0
        assert shard.state == "running"
        assert not view.complete and not view.stalled_shards

    def test_rate_and_eta_from_sliding_window(self):
        view = self.analyze(self.run_events(), now=5.0)
        # 3 scenarios over the 3 s between the first and last shard event.
        assert view.rate == pytest.approx(1.0)
        assert view.eta_seconds == pytest.approx(5.0)  # 5 remaining at 1/s

    def test_stall_detection_uses_injected_clock(self):
        events = self.run_events()
        quiet = self.analyze(events, now=4.5)
        assert quiet.shards[0].state == "running"
        # Median gap ~1.33 s, threshold 5x => silent for 100 s is stalled.
        stalled = self.analyze(events, now=104.0)
        assert stalled.shards[0].state == "stalled"
        assert [s.shard for s in stalled.stalled_shards] == [0]

    def test_dead_writer_beats_stalled(self):
        view = self.analyze(self.run_events(), now=104.0,
                            pid_probe=lambda pid: False)
        assert view.shards[0].state == "dead"

    def test_run_done_marks_complete_and_partition(self):
        events = self.run_events() + [
            _event("shard_done", 5.0, shard=0, done=4, total=4),
            _event("run_done", 5.1, executed=8, skipped=2,
                   complete=True),
        ]
        view = self.analyze(events, now=1000.0)
        assert view.run_complete and view.complete
        assert view.partition == {"executed": 8, "skipped": 2}
        assert view.completed == 10
        assert view.shards[0].state == "done"
        assert not view.stalled_shards  # done shards never stall

    def test_checkpointed_run_done_is_not_campaign_complete(self):
        events = self.run_events() + [
            _event("shard_done", 5.0, shard=0, done=4, total=4),
            _event("run_done", 5.1, executed=4, skipped=2,
                   complete=False),
        ]
        view = self.analyze(events, now=1000.0)
        assert view.run_complete and not view.complete
        assert view.completed == 6  # baseline 2 + executed 4

    def test_only_the_last_run_start_is_analyzed(self):
        events = self.run_events() + [
            _event("run_done", 5.0, executed=4, complete=False),
            _event("run_start", 10.0, campaign="c", plan_hash="abc",
                   n_items=10, completed=6, heartbeat_interval=1.0),
            _event("shard_start", 11.0, shard=2, done=0, total=4),
        ]
        view = self.analyze(events, now=11.5)
        assert view.baseline == 6 and not view.run_complete
        assert [s.shard for s in view.shards] == [2]

    def test_empty_events_yield_empty_view(self):
        view = self.analyze([], now=1.0)
        assert view.n_items == 0 and view.shards == ()
        assert not view.complete

    def test_to_dict_is_json_ready(self):
        view = self.analyze(self.run_events(), now=5.0)
        payload = json.loads(json.dumps(view.to_dict()))
        assert payload["completed"] == 5 and payload["n_items"] == 10
        assert payload["shards"][0]["state"] == "running"

    def test_render_view_mentions_stalls(self):
        text = render_view(self.analyze(self.run_events(), now=104.0))
        assert "STALLED" in text and "shard   0" in text

    def test_view_metrics_exposes_gauges(self):
        snap = view_metrics(self.analyze(self.run_events(), now=5.0))
        assert snap.gauges["watch.items_total"] == 10.0
        assert snap.gauges["watch.shard.done{shard=0}"] == 3.0
        text = render_openmetrics(snap)
        assert validate_openmetrics(text) == []


# ----------------------------------------------------------------------
# OpenMetrics exporter: render / validate / parse round-trip
# ----------------------------------------------------------------------
class TestOpenMetrics:
    def snapshot(self):
        reg = MetricsRegistry()
        reg.counter("engine.trials", 7)
        reg.counter("cache.analytic.hits", 3, case="ieee14")
        reg.gauge("pool.workers", 2.0)
        reg.declare_histogram("span.seconds", (0.001, 0.01, 0.1, 1.0))
        for value in (0.0005, 0.004, 0.05, 0.5, 5.0):
            reg.histogram("span.seconds", value)
        return reg.snapshot()

    def test_rendered_text_validates(self):
        text = render_openmetrics(self.snapshot())
        assert validate_openmetrics(text) == []
        assert text.rstrip().endswith("# EOF")
        assert "repro_engine_trials_total" in text
        assert 'case="ieee14"' in text

    def test_round_trip_recovers_snapshot(self):
        snap = self.snapshot()
        back = parse_openmetrics(render_openmetrics(snap))
        assert back.counters == snap.counters
        assert back.gauges == snap.gauges
        hist = back.histograms["span.seconds"]
        want = snap.histograms["span.seconds"]
        assert hist["boundaries"] == list(want["boundaries"])
        assert hist["bucket_counts"] == list(want["bucket_counts"])
        assert hist["count"] == want["count"]
        assert hist["sum"] == pytest.approx(want["sum"])
        # min/max are not representable in the exposition format.
        assert hist["min"] is None and hist["max"] is None

    def test_float_values_round_trip_exactly(self):
        reg = MetricsRegistry()
        reg.gauge("g", 0.1 + 0.2)  # classic repr-sensitive value
        back = parse_openmetrics(render_openmetrics(reg.snapshot()))
        assert back.gauges["g"] == 0.1 + 0.2

    def test_name_collision_is_an_error(self):
        reg = MetricsRegistry()
        reg.counter("a.b", 1)
        reg.counter("a_b", 1)  # mangles to the same exposition name
        with pytest.raises(ValueError, match="both export as"):
            render_openmetrics(reg.snapshot())

    def test_validator_flags_missing_eof(self):
        text = render_openmetrics(self.snapshot())
        broken = text.replace("# EOF\n", "")
        assert any("EOF" in problem for problem in validate_openmetrics(broken))

    def test_validator_flags_undeclared_family(self):
        text = render_openmetrics(self.snapshot())
        broken = text.replace("# EOF", "repro_rogue_metric 1\n# EOF")
        assert validate_openmetrics(broken)

    def test_validator_flags_negative_counter(self):
        reg = MetricsRegistry()
        reg.counter("c", 5)
        text = render_openmetrics(reg.snapshot())
        broken = text.replace("repro_c_total 5", "repro_c_total -5")
        assert any("invalid" in problem for problem in validate_openmetrics(broken))

    def test_accepts_plain_mapping_payload(self):
        # telemetry.json stores the snapshot as a plain dict.
        payload = self.snapshot().to_dict()
        text = render_openmetrics(payload)
        assert validate_openmetrics(text) == []


# ----------------------------------------------------------------------
# OTLP exporter
# ----------------------------------------------------------------------
class TestOtlpExport:
    def spans(self):
        return [
            {
                "name": "campaign.run",
                "wall_seconds": 2.0,
                "cpu_seconds": 1.5,
                "start_unix": 100.0,
                "attributes": {"plan": "abc"},
                "children": [
                    {"name": "campaign.shard", "wall_seconds": 0.75,
                     "attributes": {"shard": 0}, "children": []},
                    {"name": "campaign.shard", "wall_seconds": 0.75,
                     "attributes": {"shard": 1}, "children": []},
                ],
            }
        ]

    def test_payload_shape_and_ids(self):
        payload = otlp_spans_payload(self.spans(), resource={"python": "3.x"})
        scope = payload["resourceSpans"][0]["scopeSpans"][0]
        assert scope["scope"]["name"] == "repro.telemetry"
        spans = scope["spans"]
        assert [s["name"] for s in spans] == [
            "campaign.run", "campaign.shard", "campaign.shard",
        ]
        root, child_a, child_b = spans
        assert len(root["traceId"]) == 32 and len(root["spanId"]) == 16
        assert root["parentSpanId"] == ""
        assert child_a["parentSpanId"] == root["spanId"]
        assert child_a["spanId"] != child_b["spanId"]
        for span in spans:
            assert int(span["endTimeUnixNano"]) >= int(span["startTimeUnixNano"])
        resource_keys = {
            a["key"]: a["value"]
            for a in payload["resourceSpans"][0]["resource"]["attributes"]
        }
        assert resource_keys["service.name"] == {"stringValue": "repro"}
        assert "python" in resource_keys

    def test_children_lay_out_sequentially_from_parent_start(self):
        spans = otlp_spans_payload(self.spans())["resourceSpans"][0][
            "scopeSpans"][0]["spans"]
        root, child_a, child_b = spans
        assert child_a["startTimeUnixNano"] == root["startTimeUnixNano"]
        gap = int(child_b["startTimeUnixNano"]) - int(child_a["startTimeUnixNano"])
        assert gap == int(0.75 * 1e9)

    def test_ids_are_deterministic(self):
        first = otlp_spans_payload(self.spans())
        second = otlp_spans_payload(self.spans())
        assert first == second

    def test_cpu_seconds_becomes_an_attribute(self):
        spans = otlp_spans_payload(self.spans())["resourceSpans"][0][
            "scopeSpans"][0]["spans"]
        attrs = {a["key"]: a["value"] for a in spans[0]["attributes"]}
        assert attrs["cpu_seconds"] == {"doubleValue": 1.5}


# ----------------------------------------------------------------------
# graceful telemetry.json failures
# ----------------------------------------------------------------------
class TestLoadReport:
    def test_missing_report_names_the_store(self, tmp_path):
        with pytest.raises(TelemetryError, match="no telemetry report"):
            load_report(tmp_path)
        with pytest.raises(TelemetryError, match="--telemetry"):
            load_report(tmp_path)

    def test_truncated_json_mentions_crash(self, tmp_path):
        (tmp_path / "telemetry.json").write_text('{"schema_version": 1, "met')
        with pytest.raises(TelemetryError, match="truncated"):
            load_report(tmp_path)

    def test_empty_file(self, tmp_path):
        (tmp_path / "telemetry.json").write_text("")
        with pytest.raises(TelemetryError, match="is empty"):
            load_report(tmp_path)

    def test_non_json(self, tmp_path):
        (tmp_path / "telemetry.json").write_text("<html>not json</html>")
        with pytest.raises(TelemetryError, match="not valid JSON"):
            load_report(tmp_path)

    def test_non_object_document(self, tmp_path):
        (tmp_path / "telemetry.json").write_text("[1, 2, 3]")
        with pytest.raises(TelemetryError, match="list"):
            load_report(tmp_path)


class TestCliGracefulErrors:
    def one_line(self, err: str) -> None:
        assert "Traceback" not in err
        assert len([line for line in err.strip().splitlines() if line]) == 1

    def test_show_missing_report(self, tmp_path, capsys):
        assert cli_main(["telemetry", "show", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "no telemetry report" in err
        self.one_line(err)

    def test_show_truncated_report(self, tmp_path, capsys):
        (tmp_path / "telemetry.json").write_text('{"schema_version": 1, "met')
        assert cli_main(["telemetry", "show", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "truncated" in err
        self.one_line(err)

    def test_show_non_json_report(self, tmp_path, capsys):
        (tmp_path / "telemetry.json").write_text("not json")
        assert cli_main(["telemetry", "show", str(tmp_path)]) == 1
        self.one_line(capsys.readouterr().err)

    def test_status_telemetry_flag_degrades_gracefully(self, tmp_path, capsys):
        telemetry.enable()
        run_campaign(tiny_definition(), tmp_path / "store")
        (tmp_path / "store" / "telemetry.json").write_text("not json")
        code = cli_main(
            ["campaign", "status", "--store", str(tmp_path / "store"),
             "--telemetry"]
        )
        out = capsys.readouterr()
        assert code == 0  # the store itself is fine
        assert "Traceback" not in out.err
        assert "not valid JSON" in out.out + out.err


# ----------------------------------------------------------------------
# campaign integration: stream contents, watch CLI, bit-identity
# ----------------------------------------------------------------------
class TestCampaignIntegration:
    def run_instrumented(self, store, monkeypatch, **kwargs):
        monkeypatch.setenv("REPRO_PROGRESS_INTERVAL", "0")
        telemetry.enable()
        return run_campaign(tiny_definition(), store, **kwargs)

    def test_stream_brackets_the_run(self, tmp_path, monkeypatch):
        store = tmp_path / "store"
        self.run_instrumented(store, monkeypatch)
        events = read_progress(store)
        kinds = [e["kind"] for e in events]
        assert kinds[0] == "run_start" and kinds[-1] == "run_done"
        assert kinds.count("shard_start") == 2 and kinds.count("shard_done") == 2
        start = events[0]
        assert start["n_items"] == 2 and start["campaign"] == "live-campaign"
        done = events[-1]
        assert done["complete"] is True and done["executed"] == 2

    def test_no_stream_when_telemetry_is_off(self, tmp_path):
        run_campaign(tiny_definition(), tmp_path / "store")
        assert not progress_path(tmp_path / "store").exists()
        view = load_view(tmp_path / "store")
        assert view.source == "store" and view.complete

    def test_pool_workers_write_the_same_stream(self, tmp_path, monkeypatch):
        store = tmp_path / "store"
        self.run_instrumented(store, monkeypatch, n_workers=2)
        events = read_progress(store)
        kinds = [e["kind"] for e in events]
        assert kinds.count("shard_start") == 2 and kinds.count("shard_done") == 2
        pids = {e["pid"] for e in events if e["kind"] == "shard_done"}
        assert pids  # workers stamped their own pids
        view = analyze_progress(events)
        assert view.complete and view.completed == 2

    def test_watch_once_on_finished_store(self, tmp_path, monkeypatch):
        store = tmp_path / "store"
        self.run_instrumented(store, monkeypatch)
        out = io.StringIO()
        assert run_watch(store, once=True, json_output=True, out=out) == 0
        payload = json.loads(out.getvalue())
        assert payload["complete"] is True
        assert payload["completed"] == payload["n_items"] == 2
        assert payload["percent"] == 100.0
        assert payload["stalled"] == []
        assert payload["source"] == "progress"

    def test_watch_cli_verb(self, tmp_path, monkeypatch, capsys):
        store = tmp_path / "store"
        self.run_instrumented(store, monkeypatch)
        code = cli_main(
            ["campaign", "watch", "--store", str(store), "--once", "--json"]
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out)["complete"] is True

    def test_watch_once_incomplete_checkpoint_exits_one(
        self, tmp_path, monkeypatch
    ):
        store = tmp_path / "store"
        self.run_instrumented(store, monkeypatch, shard_limit=1)
        out = io.StringIO()
        assert run_watch(store, once=True, json_output=True, out=out) == 1
        payload = json.loads(out.getvalue())
        assert payload["run_complete"] is True and payload["complete"] is False
        assert payload["completed"] == 1 and payload["n_items"] == 2

    def test_watch_missing_store_is_an_error(self, tmp_path, capsys):
        code = cli_main(
            ["campaign", "watch", "--store", str(tmp_path / "nope"), "--once"]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_stored_records_identical_with_progress_on_off(
        self, tmp_path, monkeypatch
    ):
        self.run_instrumented(tmp_path / "on", monkeypatch)
        telemetry.disable()
        run_campaign(tiny_definition(), tmp_path / "off")

        def normalized(directory):
            records = {}
            for record in CampaignStore(directory).records():
                record.pop("created_unix", None)
                record.pop("elapsed_seconds", None)
                records[record["spec_hash"]] = record
            return records

        assert normalized(tmp_path / "on") == normalized(tmp_path / "off")
        assert progress_path(tmp_path / "on").exists()
        assert not progress_path(tmp_path / "off").exists()

    def test_metrics_prom_written_next_to_report(self, tmp_path, monkeypatch):
        store = tmp_path / "store"
        self.run_instrumented(store, monkeypatch)
        text = (store / "metrics.prom").read_text()
        assert validate_openmetrics(text) == []
        snap = parse_openmetrics(text)
        assert snap.counters.get("engine.trials", 0) > 0


class TestKillLeavesParseableStream:
    """kill -9 a heartbeating campaign: the stream stays parseable and the
    watcher keeps working off whatever was durable."""

    N_POINTS = 12

    def definition(self) -> CampaignDefinition:
        base = small_spec(
            name="kill-live",
            attack=AttackSpec(n_attacks=60, seed=1),
            detector=DetectorSpec(method="monte-carlo", n_noise_trials=1200),
            n_trials=1,
        )
        ratios = tuple(round(0.05 + 0.002 * k, 3) for k in range(self.N_POINTS))
        return CampaignDefinition(
            name="kill-live", base=base,
            grids=({"attack.ratio": ratios},), shard_size=2,
        )

    def test_kill_mid_campaign(self, tmp_path):
        def_path = tmp_path / "campaign.json"
        def_path.write_text(self.definition().to_json())
        store_dir = tmp_path / "kill.campaign"

        env = dict(os.environ)
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = REPO_SRC + (os.pathsep + existing if existing else "")
        env["REPRO_TELEMETRY"] = "1"
        env["REPRO_PROGRESS_INTERVAL"] = "0"
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "campaign", "run", str(def_path),
             "--store", str(store_dir)],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, env=env,
        )
        try:
            deadline = time.time() + 120
            while time.time() < deadline:
                events = read_progress(store_dir)
                if sum(e["kind"] == "heartbeat" for e in events) >= 2:
                    break
                if process.poll() is not None:
                    pytest.fail("campaign finished before it could be killed")
                time.sleep(0.01)
            else:
                pytest.fail("campaign never heartbeat")
            process.send_signal(signal.SIGKILL)
            process.wait(timeout=60)
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=60)

        # Whatever the kill left behind must parse cleanly (a torn tail is
        # silently dropped) and must not claim the run finished.
        events = read_progress(store_dir)
        assert events and events[0]["kind"] == "run_start"
        assert all("kind" in e and "ts" in e and "pid" in e for e in events)
        assert events[-1]["kind"] != "run_done"
        view = analyze_progress(events)
        assert view.n_items == self.N_POINTS and not view.complete

        # The dead writer is detected once its silence exceeds the stall
        # threshold (its pid is gone, so the state is "dead", not merely
        # "stalled").
        late = analyze_progress(events, now=time.time() + 3600.0)
        assert late.shards  # at least one shard had started
        assert all(s.state == "dead" for s in late.shards if not s.complete)


# ----------------------------------------------------------------------
# scrape endpoint
# ----------------------------------------------------------------------
class TestMetricsServer:
    def test_serves_openmetrics_and_health(self):
        reg = MetricsRegistry()
        reg.counter("scrapes", 1)
        with MetricsServer(lambda: reg.snapshot(), port=0) as server:
            url = f"http://127.0.0.1:{server.port}"
            with urllib.request.urlopen(f"{url}/metrics", timeout=10) as response:
                body = response.read().decode("utf-8")
                assert response.status == 200
                assert "openmetrics-text" in response.headers["Content-Type"]
            assert validate_openmetrics(body) == []
            assert "repro_scrapes_total 1" in body
            with urllib.request.urlopen(f"{url}/healthz", timeout=10) as response:
                assert response.read() == b"ok\n"

    def test_unknown_path_is_404(self):
        with MetricsServer(lambda: MetricsRegistry().snapshot(), port=0) as server:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(
                    f"http://127.0.0.1:{server.port}/nope", timeout=10
                )
            assert excinfo.value.code == 404


# ----------------------------------------------------------------------
# bench perf history (scripts/check_bench_manifest.py --compare)
# ----------------------------------------------------------------------
def _load_manifest_script():
    path = REPO_ROOT / "scripts" / "check_bench_manifest.py"
    spec = importlib.util.spec_from_file_location("check_bench_manifest", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load_bench_utils():
    path = REPO_ROOT / "benchmarks" / "_bench_utils.py"
    spec = importlib.util.spec_from_file_location("bench_utils_under_test", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestBenchStaleness:
    """Records are stale when their driver's *content* changes, not its mtime."""

    DRIVER = (
        "from _bench_utils import emit_bench_json\n"
        "\n"
        "\n"
        "def run():\n"
        "    emit_bench_json('demo', {'scale': 'smoke', 'sweep_seconds': 1.0})\n"
    )

    def emit_from_driver(self, tmp_path, monkeypatch):
        """Write a bench driver into ``tmp_path`` and let it emit its record."""
        driver = tmp_path / "bench_demo.py"
        driver.write_text(self.DRIVER)
        monkeypatch.syspath_prepend(str(REPO_ROOT / "benchmarks"))
        monkeypatch.setenv("REPRO_BENCH_OUT", str(tmp_path))
        spec = importlib.util.spec_from_file_location("bench_demo", driver)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        module.run()
        return driver

    def test_record_carries_its_drivers_source_hash(self, tmp_path, monkeypatch):
        driver = self.emit_from_driver(tmp_path, monkeypatch)
        script = _load_manifest_script()
        record = json.loads((tmp_path / "BENCH_demo.json").read_text())
        assert record["driver_sha256"] == script.source_sha256(driver)
        assert len(record["driver_sha256"]) == 64

    def test_touching_the_driver_keeps_its_record_ok(
        self, tmp_path, monkeypatch, capsys
    ):
        driver = self.emit_from_driver(tmp_path, monkeypatch)
        record = json.loads((tmp_path / "BENCH_demo.json").read_text())
        later = record["created_unix"] + 3600.0
        os.utime(driver, (later, later))  # as a fresh checkout would
        script = _load_manifest_script()
        assert script.check(bench_dir=tmp_path) == 0
        assert "ok      BENCH_demo.json" in capsys.readouterr().out

    def test_editing_the_driver_makes_its_record_stale(
        self, tmp_path, monkeypatch, capsys
    ):
        driver = self.emit_from_driver(tmp_path, monkeypatch)
        driver.write_text(self.DRIVER + "# edited\n")
        script = _load_manifest_script()
        assert script.check(bench_dir=tmp_path) == 1
        assert "BENCH_demo.json: stale" in capsys.readouterr().err
        assert script.check(allow_stale=True, bench_dir=tmp_path) == 0
        assert "warn    BENCH_demo.json: stale" in capsys.readouterr().out

    def test_record_without_hash_is_unstamped(self, tmp_path, capsys):
        (tmp_path / "bench_demo.py").write_text(self.DRIVER)
        (tmp_path / "BENCH_demo.json").write_text(
            json.dumps({"name": "demo", "created_unix": 100.0, "sweep_seconds": 1.0})
        )
        script = _load_manifest_script()
        assert script.check(bench_dir=tmp_path) == 1
        assert "BENCH_demo.json: unstamped" in capsys.readouterr().err
        assert script.check(allow_stale=True, bench_dir=tmp_path) == 0
        assert "warn    BENCH_demo.json: unstamped" in capsys.readouterr().out


class TestBenchHistory:
    def write_record(self, bench_dir, name, value, created, scale="quick",
                     metric="sweep_seconds"):
        bench_dir.mkdir(parents=True, exist_ok=True)
        (bench_dir / f"BENCH_{name}.json").write_text(json.dumps({
            "name": name, "created_unix": created, "scale": scale,
            metric: value,
        }))

    def append_history(self, bench_dir, name, value, created, scale="quick",
                       metric="sweep_seconds"):
        bench_dir.mkdir(parents=True, exist_ok=True)
        entry = {"name": name, "created_unix": created, "git_sha": "deadbee",
                 "scale": scale, "metric": metric, "value": value}
        with (bench_dir / "history.ndjson").open("a") as handle:
            handle.write(json.dumps(entry) + "\n")

    def test_key_metric_candidates_stay_in_sync(self):
        script = _load_manifest_script()
        utils = _load_bench_utils()
        assert script.KEY_METRIC_CANDIDATES == utils.KEY_METRIC_CANDIDATES

    def test_key_metric_prefers_ratio_and_skips_bools(self):
        script = _load_manifest_script()
        record = {"bit_identical": True, "speedup": 3.0, "overhead_ratio": 1.01}
        assert script.key_metric(record) == ("overhead_ratio", 1.01)
        assert script.key_metric({"bit_identical": True}) is None

    def test_direction_heuristic(self):
        script = _load_manifest_script()
        assert script.lower_is_better("sweep_seconds")
        assert script.lower_is_better("overhead_ratio")
        assert not script.lower_is_better("speedup")
        assert not script.lower_is_better("min_speedup")
        assert not script.lower_is_better("trials_per_second")

    def test_emit_bench_json_appends_history(self, tmp_path, monkeypatch):
        utils = _load_bench_utils()
        monkeypatch.setenv("REPRO_BENCH_OUT", str(tmp_path))
        utils.emit_bench_json("histtest", {"scale": "smoke", "sweep_seconds": 1.5})
        script = _load_manifest_script()
        entries = script.read_history(tmp_path)
        assert len(entries) == 1
        assert entries[0]["name"] == "histtest"
        assert entries[0]["metric"] == "sweep_seconds"
        assert entries[0]["value"] == 1.5
        assert entries[0]["scale"] == "smoke"

    def test_read_history_tolerates_torn_tail(self, tmp_path):
        script = _load_manifest_script()
        self.append_history(tmp_path, "a", 1.0, 100.0)
        with (tmp_path / "history.ndjson").open("ab") as handle:
            handle.write(b'{"name": "b", "value"')
        entries = script.read_history(tmp_path)
        assert [e["name"] for e in entries] == ["a"]

    def test_compare_flags_regression(self, tmp_path, capsys):
        script = _load_manifest_script()
        self.append_history(tmp_path, "x", 1.0, 100.0)
        self.write_record(tmp_path, "x", 1.5, 200.0)  # +50 % slower
        assert script.compare(bench_dir=tmp_path) == 1
        assert "regressed" in capsys.readouterr().err

    def test_compare_passes_improvement_and_small_noise(self, tmp_path, capsys):
        script = _load_manifest_script()
        self.append_history(tmp_path, "fast", 1.0, 100.0)
        self.write_record(tmp_path, "fast", 0.7, 200.0)  # improvement
        self.append_history(tmp_path, "noisy", 1.0, 100.0)
        self.write_record(tmp_path, "noisy", 1.1, 200.0)  # +10 % < threshold
        assert script.compare(bench_dir=tmp_path) == 0
        assert "no regressions" in capsys.readouterr().out

    def test_compare_respects_metric_direction(self, tmp_path, capsys):
        script = _load_manifest_script()
        self.append_history(tmp_path, "s", 4.0, 100.0, metric="speedup")
        self.write_record(tmp_path, "s", 2.0, 200.0, metric="speedup")
        assert script.compare(bench_dir=tmp_path) == 1  # speedup halved
        capsys.readouterr()
        self.write_record(tmp_path, "s", 8.0, 300.0, metric="speedup")
        assert script.compare(bench_dir=tmp_path) == 0  # speedup doubled

    def test_compare_skips_own_and_newer_entries(self, tmp_path, capsys):
        script = _load_manifest_script()
        # The record's own emission shares its timestamp: not a baseline.
        self.append_history(tmp_path, "x", 9.0, 200.0)
        self.write_record(tmp_path, "x", 9.0, 200.0)
        assert script.compare(bench_dir=tmp_path) == 0
        assert "no prior entry" in capsys.readouterr().out

    def test_compare_ignores_other_scales(self, tmp_path, capsys):
        script = _load_manifest_script()
        self.append_history(tmp_path, "x", 0.001, 100.0, scale="smoke")
        self.write_record(tmp_path, "x", 10.0, 200.0, scale="quick")
        assert script.compare(bench_dir=tmp_path) == 0
        assert "no prior entry" in capsys.readouterr().out

    def test_compare_threshold_is_tunable(self, tmp_path, capsys):
        script = _load_manifest_script()
        self.append_history(tmp_path, "x", 1.0, 100.0)
        self.write_record(tmp_path, "x", 1.1, 200.0)
        assert script.compare(threshold=0.05, bench_dir=tmp_path) == 1
        capsys.readouterr()
        assert script.compare(threshold=0.5, bench_dir=tmp_path) == 0

    def test_compare_without_history_is_a_noop(self, tmp_path, capsys):
        script = _load_manifest_script()
        self.write_record(tmp_path, "x", 1.0, 100.0)
        assert script.compare(bench_dir=tmp_path) == 0
        assert "nothing to compare" in capsys.readouterr().out

    def test_committed_history_matches_committed_records(self):
        # Every committed BENCH record with a headline metric has at least
        # its own seed entry in the committed timeline.
        script = _load_manifest_script()
        bench_dir = REPO_ROOT / "benchmarks"
        names = {e["name"] for e in script.read_history(bench_dir)}
        for path in bench_dir.glob("BENCH_*.json"):
            record = json.loads(path.read_text())
            if script.key_metric(record) is not None:
                assert record["name"] in names, path.name
