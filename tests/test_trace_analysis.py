"""Tests for :mod:`repro.obs.analyze` and the ``repro trace`` CLI."""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import pytest

from repro.cli import main
from repro.obs import (
    MetricsRegistry,
    RunManifest,
    Tracer,
    aggregate_phases,
    chrome_trace_events,
    critical_path,
    diff_traces,
    export_chrome_trace,
    export_jsonl,
    load_trace,
    render_diff,
    render_summary,
    summarize_trace,
)

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def miner_like_tracer(slow: float = 0.0) -> Tracer:
    tracer = Tracer()
    with tracer.span("depminer.run"):
        with tracer.span("strip", phase=True):
            pass
        with tracer.span("agree_sets", phase=True):
            time.sleep(0.002)
        with tracer.span("lhs", phase=True):
            if slow:
                time.sleep(slow)
            with tracer.span("attribute"):
                pass
    return tracer


@pytest.fixture
def trace_file(tmp_path):
    tracer = miner_like_tracer()
    path = tmp_path / "run.jsonl"
    export_jsonl(str(path), tracer, MetricsRegistry(),
                 meta={"command": "discover"})
    return path


@pytest.fixture
def manifest_file(tmp_path):
    manifest = RunManifest.build("discover", tracer=miner_like_tracer())
    path = tmp_path / "manifest.json"
    manifest.write(path)
    return path


class TestLoadTrace:
    def test_detects_jsonl(self, trace_file):
        loaded = load_trace(trace_file)
        assert loaded["kind"] == "trace"
        assert len(loaded["spans"]) == 5

    def test_detects_manifest(self, manifest_file):
        loaded = load_trace(manifest_file)
        assert loaded["kind"] == "manifest"
        assert loaded["phases"]

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "nope.json"
        path.write_text("not json at all\n")
        with pytest.raises(ValueError):
            load_trace(path)


class TestSummarize:
    def test_phases_and_totals(self, trace_file):
        summary = summarize_trace(load_trace(trace_file))
        assert summary["span_count"] == 5
        assert summary["error_count"] == 0
        assert summary["total_seconds"] > 0
        assert set(summary["phases"]) == {"strip", "agree_sets", "lhs"}
        rendered = render_summary(summary)
        assert "agree_sets" in rendered
        assert "%" in rendered

    def test_critical_path_descends_largest_child(self, trace_file):
        rows = critical_path(load_trace(trace_file))
        assert rows[0]["name"] == "depminer.run"
        assert rows[1]["name"] == "agree_sets"
        assert rows[0]["share"] == pytest.approx(1.0)

    def test_manifest_and_trace_agree(self, tmp_path):
        tracer = miner_like_tracer()
        jsonl = tmp_path / "t.jsonl"
        export_jsonl(str(jsonl), tracer, MetricsRegistry(),
                     meta={"command": "discover"})
        manifest = tmp_path / "m.json"
        RunManifest.build("discover", tracer=tracer).write(manifest)
        one = summarize_trace(load_trace(jsonl))
        two = summarize_trace(load_trace(manifest))
        assert one["phases"] == pytest.approx(two["phases"])


class TestAggregateAndDiff:
    def test_aggregate_phases(self):
        runs = [{"strip": 1.0, "lhs": 3.0}, {"strip": 2.0, "lhs": 5.0}]
        agg = aggregate_phases(runs)
        assert agg["strip"]["count"] == 2
        assert agg["strip"]["mean"] == pytest.approx(1.5)
        assert agg["lhs"]["max"] == 5.0

    def test_diff_flags_the_grown_phase(self, tmp_path):
        fast = tmp_path / "fast.jsonl"
        slow = tmp_path / "slow.jsonl"
        export_jsonl(str(fast), miner_like_tracer(), MetricsRegistry(),
                     meta={"command": "discover"})
        export_jsonl(str(slow), miner_like_tracer(slow=0.05),
                     MetricsRegistry(), meta={"command": "discover"})
        diff = diff_traces(load_trace(fast), load_trace(slow))
        lhs_row = next(r for r in diff["phases"] if r["phase"] == "lhs")
        assert lhs_row["ratio"] > 5
        assert diff["total"]["ratio"] > 1
        table = render_diff(diff)
        assert "lhs" in table
        assert "|" in table


class TestChromeExport:
    def test_events_are_complete_and_microsecond(self, trace_file):
        events = chrome_trace_events(load_trace(trace_file))
        assert len(events) == 5
        assert all(e["ph"] == "X" for e in events)
        root = next(e for e in events if e["name"] == "depminer.run")
        assert root["ts"] == 0
        assert root["dur"] > 0
        phase_event = next(e for e in events if e["name"] == "agree_sets")
        assert phase_event["cat"] == "phase"

    def test_export_loads_as_json(self, manifest_file, tmp_path):
        out = tmp_path / "chrome.json"
        export_chrome_trace(out, load_trace(manifest_file))
        document = json.loads(out.read_text())
        assert document["traceEvents"]

    def test_error_span_is_highlighted(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("run"):
                raise RuntimeError("x")
        events = chrome_trace_events(
            {"kind": "trace", "meta": {},
             "spans": [s.to_record() for s in tracer.iter_tree()],
             "metrics": [], "phases": {}}
        )
        assert events[0]["args"]["error"]


class TestTraceCli:
    def test_summary_text_and_json(self, trace_file, capsys):
        assert main(["trace", "summary", str(trace_file)]) == 0
        out = capsys.readouterr().out
        assert "phases:" in out
        assert "agree_sets" in out
        assert main(["trace", "summary", str(trace_file), "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["span_count"] == 5

    def test_critical_path(self, manifest_file, capsys):
        assert main(["trace", "critical-path", str(manifest_file)]) == 0
        assert "depminer.run" in capsys.readouterr().out

    def test_diff(self, trace_file, manifest_file, capsys):
        assert main(["trace", "diff", str(trace_file),
                     str(manifest_file)]) == 0
        out = capsys.readouterr().out
        assert "phase" in out

    def test_export_chrome(self, trace_file, tmp_path, capsys):
        out_path = tmp_path / "chrome.json"
        assert main(["trace", "export-chrome", str(trace_file),
                     "-o", str(out_path)]) == 0
        assert json.loads(out_path.read_text())["traceEvents"]

    def test_missing_file_is_a_clean_error(self, tmp_path, capsys):
        rc = main(["trace", "summary", str(tmp_path / "absent.json")])
        assert rc != 0


class TestTelemetryCli:
    @pytest.fixture
    def csv(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text(
            "a,b,c\n" + "\n".join(
                f"{i % 3},{i % 2},{i}" for i in range(30)
            ) + "\n"
        )
        return path

    def test_discover_telemetry_writes_a_valid_manifest(self, csv,
                                                        tmp_path, capsys):
        from repro.obs import validate_manifest

        out = tmp_path / "run.json"
        assert main(["discover", str(csv), "--telemetry", str(out)]) == 0
        document = json.loads(out.read_text())
        assert validate_manifest(document) == []
        assert document["command"] == "discover"
        assert document["phases"]
        assert document["relation"]["rows"] == 30
        assert document["relation"]["fingerprint"]
        assert document["resources"]["samples"] >= 2

    def test_telemetry_directory_default_naming(self, csv, tmp_path,
                                                monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["discover", str(csv), "--telemetry"]) == 0
        written = list((tmp_path / "results" / "telemetry").glob(
            "discover-*.json"))
        assert len(written) == 1

    def test_manifest_feeds_trace_summary(self, csv, tmp_path, capsys):
        out = tmp_path / "run.json"
        assert main(["discover", str(csv), "--telemetry", str(out)]) == 0
        capsys.readouterr()
        assert main(["trace", "summary", str(out)]) == 0
        assert "phases:" in capsys.readouterr().out


class TestCheckTraceScript:
    @pytest.fixture
    def check_trace(self):
        sys.path.insert(0, str(SCRIPTS))
        try:
            import check_trace

            yield check_trace
        finally:
            sys.path.remove(str(SCRIPTS))

    def test_clean_trace_passes(self, check_trace, trace_file):
        assert check_trace.check_file(trace_file) == []

    def test_unclosed_and_misparented_spans_are_flagged(self, check_trace,
                                                        trace_file,
                                                        tmp_path):
        records = [json.loads(line)
                   for line in trace_file.read_text().splitlines()]
        for record in records:
            if record.get("name") == "strip":
                record["end"] = None
            if record.get("name") == "lhs":
                record["depth"] = 7
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(json.dumps(r) for r in records) + "\n")
        problems = check_trace.check_file(bad)
        assert any("never closed" in p for p in problems)
        assert any("depth" in p for p in problems)

    def test_child_escaping_parent_window_is_flagged(self, check_trace,
                                                     trace_file, tmp_path):
        records = [json.loads(line)
                   for line in trace_file.read_text().splitlines()]
        for record in records:
            if record.get("name") == "agree_sets":
                record["end"] = record["end"] + 10.0
        bad = tmp_path / "late.jsonl"
        bad.write_text("\n".join(json.dumps(r) for r in records) + "\n")
        problems = check_trace.check_file(bad)
        assert any("ends after its parent" in p for p in problems)


class TestPlanSummary:
    def test_summary_names_the_chosen_plan(self, tmp_path, capsys):
        from repro.columnar import numpy_available
        from repro.storage.csv_io import relation_to_csv
        from tests.oracle import large_class_relation

        if not numpy_available():
            pytest.skip("the plans belong to the columnar backend")
        data = tmp_path / "wall.csv"
        relation_to_csv(large_class_relation(700), data)
        manifest = tmp_path / "run.json"
        assert main(["discover", str(data), "--backend", "columnar",
                     "--telemetry", str(manifest)]) == 0
        capsys.readouterr()
        assert main(["trace", "summary", str(manifest)]) == 0
        out = capsys.readouterr().out
        assert "plan: 2 (" in out
        assert "largest class 700" in out
