"""One observer over run_analysis: a single trace covering every path.

The acceptance shape for the observability layer: with tracing enabled,
one ``run_analysis`` call over a fault-injected CFG yields one trace whose
spans nest correctly (fast attempt -> retry -> slow fallback) and whose
cache/retry counters match the returned ``Diagnostic``.
"""

import pytest

from repro.cfg.builder import cfg_from_edges
from repro.config import AnalysisConfig
from repro.obs.observer import Observer, observe
from repro.obs.schema import validate_trace
from repro.obs.trace import read_jsonl
from repro.resilience import faults
from repro.resilience.engine import run_analysis
from repro.resilience.faults import FaultPlan


@pytest.fixture(autouse=True)
def _no_leftover_plan():
    yield
    faults.uninstall()


def demo_cfg():
    return cfg_from_edges(
        [
            ("start", "a"), ("a", "b"), ("a", "c"), ("b", "d"), ("c", "d"),
            ("d", "e"), ("e", "a"), ("e", "end"), ("start", "end"),
        ]
    )


def spans_of(observer):
    records = read_jsonl(observer.recorder.jsonl_lines(observer.metrics_snapshot()))
    assert validate_trace(records) == []
    return records, [r for r in records if r["type"] == "span"]


def by_name(spans, name):
    return [s for s in spans if s["name"] == name]


def test_clean_run_emits_one_nested_trace_with_kernel_dispatch():
    observer = Observer()
    result = run_analysis(demo_cfg(), config=AnalysisConfig(observer=observer))
    assert result.ok and not result.diagnostic.degraded

    records, spans = spans_of(observer)
    assert len({s["trace"] for s in spans}) == 1

    (root,) = by_name(spans, "run_analysis")
    assert root["parent"] is None and root["status"] == "ok"
    stage_names = {s["name"] for s in spans if s["parent"] == root["span"]}
    assert stage_names == {
        "validate", "stage:pst", "stage:dominators", "stage:control-regions",
    }
    # Every stage succeeded on the first fast attempt.
    attempts = by_name(spans, "attempt:fast")
    assert len(attempts) == 3
    assert all(s["status"] == "ok" for s in attempts)
    assert not by_name(spans, "attempt:slow")

    counters = observer.metrics.counts_matching("dispatch")
    for component in ("cycle_equiv", "build_pst", "lengauer_tarjan", "control_regions"):
        assert counters[f"dispatch{{component={component},impl=kernel}}"] >= 1


def test_faulted_run_traces_fast_retry_slow_ladder():
    observer = Observer()
    config = AnalysisConfig(
        analyses=("dominators",),
        observer=observer,
        faults=FaultPlan(sites=["lengauer-tarjan/semi-skew"], seed=7),
    )
    result = run_analysis(demo_cfg(), config=config)
    assert result.ok and result.diagnostic.degraded
    assert result.diagnostic.paths["dominators"] == "slow"

    records, spans = spans_of(observer)
    (root,) = by_name(spans, "run_analysis")
    (stage,) = by_name(spans, "stage:dominators")
    assert stage["parent"] == root["span"]

    ladder = [
        s for s in spans
        if s["name"].startswith("attempt:") and s["parent"] == stage["span"]
    ]
    ladder.sort(key=lambda s: s["start"])
    assert [s["name"] for s in ladder] == [
        "attempt:fast", "attempt:fast-retry", "attempt:slow",
    ]
    assert [s["status"] for s in ladder] == ["error", "error", "ok"]
    # The span error text is the diagnostic's attempt detail, verbatim.
    failed = [a for a in result.diagnostic.attempts if a.outcome == "postcondition"]
    assert [s["error"] for s in ladder[:2]] == [a.detail for a in failed]

    # The kernel ran under both failed attempts; the slow attempt used the
    # iterative reference instead.
    kernel = [
        s for s in by_name(spans, "lengauer_tarjan")
        if s["attrs"]["impl"] == "kernel"
    ]
    assert len(kernel) == 2
    assert {s["parent"] for s in kernel} == {ladder[0]["span"], ladder[1]["span"]}
    slow_children = [
        s["name"] for s in spans if s["parent"] == ladder[2]["span"]
    ]
    assert "immediate_dominators" in slow_children


def test_counters_match_the_diagnostic_by_construction():
    observer = Observer(trace=False)
    config = AnalysisConfig(
        observer=observer,
        faults=FaultPlan(sites=["lengauer-tarjan/semi-skew"], seed=7),
    )
    result = run_analysis(demo_cfg(), config=config)
    assert result.ok

    expected = {}
    for attempt in result.diagnostic.attempts:
        key = (
            "engine.attempts{"
            f"outcome={attempt.outcome},path={attempt.path},stage={attempt.stage}"
            "}"
        )
        expected[key] = expected.get(key, 0.0) + 1.0
    assert observer.metrics.counts_matching("engine.attempts") == expected

    retries = sum(1 for a in result.diagnostic.attempts if a.path == "fast-retry")
    fallbacks = sum(1 for a in result.diagnostic.attempts if a.path == "slow")
    assert observer.metrics.count_of("engine.retries", stage="dominators") == retries
    assert observer.metrics.count_of("engine.fallbacks", stage="dominators") == fallbacks


def test_session_and_frozen_cache_counters_fire():
    from repro.kernel.session import session_for

    observer = Observer(trace=False)
    session = session_for(demo_cfg())
    with observe(observer):
        session.pst()
        session.pst()  # memoized: second call is a cache hit
    hits = observer.metrics.count_of("session.cache", artifact="pst", result="hit")
    misses = observer.metrics.count_of("session.cache", artifact="pst", result="miss")
    assert misses == 1.0
    assert hits >= 1.0


def test_engine_runs_keep_no_session_cache():
    """Each attempt recomputes through the public entry points, so an
    engine run adds no session.cache series, faulted or clean."""
    observer = Observer(trace=False)
    run_analysis(demo_cfg(), config=AnalysisConfig(observer=observer))
    plan = FaultPlan(sites=["cycle-equiv/skip-cap"], max_fires=1)
    run_analysis(demo_cfg(), config=AnalysisConfig(observer=observer, faults=plan))
    assert observer.metrics.counts_matching("session.cache") == {}
    assert observer.metrics.counts_matching("dispatch")
