"""A short chaos soak must pass end to end, and its report must gate CI."""

import io
import json

import pytest

from repro.service.soak import (
    SoakConfig,
    SoakReport,
    run_soak,
    update_bench_perf,
)

#: One shared short soak per module -- real threads and HTTP make this the
#: most expensive fixture in the suite; every assertion reads one run.
@pytest.fixture(scope="module")
def report(tmp_path_factory):
    trace = tmp_path_factory.mktemp("soak") / "trace.jsonl"
    config = SoakConfig(
        duration=2.0,
        clients=4,
        seed=0,
        graphs_per_band=2,
        bands=(("small", 10, 2.0), ("medium", 40, 4.0)),
        fault_rate=0.05,
        rate=2000.0,
        burst=500,
        max_inflight=8,
        trace_path=str(trace),
    )
    out = io.StringIO()
    result = run_soak(config, out=out)
    result._trace_path = str(trace)
    result._rendered = out.getvalue()
    return result


def test_soak_passes_with_zero_server_errors(report):
    assert report.passed, report.failures
    assert report.requests > 0 and report.ok > 0
    assert report.server_errors == 0
    assert report.transport_errors == 0
    assert report.body_mismatches == 0


def test_body_check_accepts_a_visible_rebuild_and_flags_lost_or_phantom_edits():
    from repro.service.soak import _ClientStats

    stats = _ClientStats()
    graph = (30, 2)

    def check(edges, edits, edited=False):
        stats.check_body(graph, {"graph": {"edges": edges}, "edits": edits}, edited)
        return stats.body_mismatches, stats.rebuilt

    assert check(47, 0) == (0, 0)
    assert check(48, 1, edited=True) == (0, 0)
    assert check(48, 1) == (0, 0)
    assert check(47, 0) == (0, 1)  # evicted, rebuilt, and the body says so
    assert check(48, 1, edited=True) == (0, 1)
    assert check(47, 1) == (1, 1)  # the edit is gone, yet the body counts it
    assert check(48, 2) == (2, 1)  # an edit the client never had acknowledged


def test_soak_faults_fired_and_the_ladder_recovered(report):
    # Chaos actually happened -- and nothing leaked to clients as a 500.
    assert report.fault_fires > 0
    assert report.ok + report.analysis_failed + report.shed > 0


def test_soak_probes_all_held(report):
    assert report.probes == {
        "shed_rate": True, "shed_depth": True, "drain": True,
    }


def test_soak_sessions_produced_cache_hits(report):
    assert report.cache_hits > 0


def test_soak_slo_rows_cover_every_band(report):
    assert [row["band"] for row in report.slo] == ["small", "medium"]
    for row in report.slo:
        assert row["ok"] and row["n"] > 0
        assert row["p50_s"] <= row["p99_s"] <= row["budget_s"]


def test_soak_memory_stayed_bounded(report):
    assert report.rss_start_bytes is not None
    growth = report.rss_end_bytes - report.rss_start_bytes
    assert growth <= report.rss_bound_bytes


def test_soak_report_is_json_serializable_and_renders(report):
    data = json.loads(json.dumps(report.to_json()))
    assert data["passed"] is True
    assert data["config"]["seed"] == 0
    assert "soak:" in report._rendered and "slo small" in report._rendered


def test_soak_trace_is_flushed_on_drain(report):
    import repro.cli as cli

    out = io.StringIO()
    assert cli.main(["trace", "--check", report._trace_path], out=out) == 0


def test_update_bench_perf_preserves_existing_keys(report, tmp_path):
    path = tmp_path / "BENCH_perf.json"
    path.write_text(json.dumps({"bench": "perf_smoke", "trajectory": [1, 2]}))
    update_bench_perf(report, str(path))
    data = json.loads(path.read_text())
    assert data["bench"] == "perf_smoke" and data["trajectory"] == [1, 2]
    slo = data["service_slo"]
    assert slo["requests"] == report.requests
    assert slo["seed"] == 0
    assert [row["band"] for row in slo["rows"]] == ["small", "medium"]


def test_bench_slo_gate_accepts_the_report_and_rejects_a_blown_budget(
    report, tmp_path
):
    from repro.analysis.bench import check_slo_rows

    good = report.to_json()
    out = io.StringIO()
    assert check_slo_rows(good, out) == []

    bad = json.loads(json.dumps(good))
    bad["slo"][0]["p99_s"] = bad["slo"][0]["budget_s"] + 1.0
    failures = check_slo_rows(bad, io.StringIO())
    assert len(failures) == 1 and "small" in failures[0]


def test_failed_report_reports_not_passed():
    report = SoakReport()
    report.failures.append("synthetic")
    assert not report.passed
    assert report.to_json()["passed"] is False


@pytest.mark.parametrize(
    "kwargs",
    [
        {"clients": 0},
        {"duration": float("nan")},
        {"duration": 0.0},
        {"edit_rate": 2.0},
        {"fault_rate": -0.1},
    ],
)
def test_soak_config_rejects_bad_fields(kwargs):
    with pytest.raises(ValueError, match=next(iter(kwargs))):
        SoakConfig(**kwargs)
