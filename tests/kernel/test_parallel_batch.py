"""Parallel batch execution: parity with serial mode, checkpointing, fallback.

These tests exercise the real process pool (workers=2), so corpora are kept
tiny.  Behavioral parity -- same keys, same order, same statuses as the
serial path -- is the contract; wall-clock speedup is only asserted where
the host actually has cores to parallelize over.
"""

from __future__ import annotations

import io
import multiprocessing
import os
import signal
import threading
import time
import warnings

import pytest

from repro.cfg.builder import cfg_from_edges
from repro.cfg.graph import CFG
from repro.config import AnalysisConfig
from repro.obs.observer import Observer
from repro.obs.schema import validate_trace
from repro.obs.trace import read_jsonl
from repro.resilience.batch import (
    BatchSerialFallback,
    _decode_cfg,
    _encode_cfg,
    load_checkpoint,
    run_batch,
)
from repro.synth.unstructured import random_cfg
from tests.resilience.conftest import RecordingSleep


def good_cfg() -> CFG:
    return cfg_from_edges(
        [("start", "a"), ("start", "b"), ("a", "b"), ("b", "a"), ("a", "end"), ("b", "end")]
    )


def bad_cfg() -> CFG:
    cfg = cfg_from_edges([("start", "a"), ("a", "end")], validate=False)
    cfg.add_node("orphan")  # unreachable: fails Definition 1 in the engine
    return cfg


def crasher() -> CFG:
    raise RuntimeError("corpus item exploded")


def corpus():
    return [
        ("good.one", good_cfg),
        ("bad.orphan", bad_cfg),
        ("crash.load", crasher),
        ("good.two", good_cfg),
    ]


def strip(report):
    return [(r.key, r.status, r.paths, r.error) for r in report.results]


def test_encode_decode_roundtrip_preserves_structure():
    cfg = good_cfg()
    cfg.edges[0].label = "T"
    clone = _decode_cfg(_encode_cfg(cfg))
    assert clone.nodes == cfg.nodes
    assert clone.start == cfg.start and clone.end == cfg.end
    assert [(e.source, e.target, e.label) for e in clone.edges] == [
        (e.source, e.target, e.label) for e in cfg.edges
    ]


def test_parallel_matches_serial_in_order_and_status():
    serial = run_batch(corpus(), config=AnalysisConfig(retries=0))
    parallel = run_batch(corpus(), config=AnalysisConfig(retries=0, workers=2))
    assert strip(parallel) == strip(serial)
    assert [r.key for r in parallel.results] == [k for k, _ in corpus()]
    statuses = {r.key: r.status for r in parallel.results}
    assert statuses["good.one"] == "ok"
    assert statuses["bad.orphan"] == "failed"
    assert statuses["crash.load"] == "error"
    assert "RuntimeError" in {r.key: r for r in parallel.results}["crash.load"].error


def test_parallel_writes_and_resumes_checkpoint(tmp_path):
    path = str(tmp_path / "batch.jsonl")
    config = AnalysisConfig(retries=0, workers=2)
    first = run_batch(corpus(), config=config, checkpoint_path=path)
    assert len(load_checkpoint(path)) == len(first.results)
    second = run_batch(corpus(), config=config, checkpoint_path=path)
    assert all(r.resumed for r in second.results)
    assert [r.key for r in second.results] == [k for k, _ in corpus()]


def test_parallel_on_item_sees_every_fresh_result():
    seen = []
    run_batch(
        corpus(), config=AnalysisConfig(retries=0, workers=2), on_item=seen.append
    )
    assert sorted(r.key for r in seen) == sorted(k for k, _ in corpus())


def test_custom_sleep_forces_serial_path_despite_workers():
    # A crasher with retries>0 sleeps between attempts; the recorder only
    # observes those pauses when the serial path runs them in-process.
    # The downgrade is no longer silent: a BatchSerialFallback names why.
    recorder = RecordingSleep()
    with pytest.warns(BatchSerialFallback) as caught:
        report = run_batch(
            [("crash", crasher)],
            config=AnalysisConfig(retries=2, backoff=0.5, workers=4),
            sleep=recorder,
        )
    assert report.results[0].status == "error"
    assert recorder.calls == [0.5, 1.0]
    fallback = [w.message for w in caught if isinstance(w.message, BatchSerialFallback)]
    assert len(fallback) == 1
    assert fallback[0].workers == 4
    assert fallback[0].reasons == ("custom sleep callable",)


def diamond_cfg() -> CFG:
    return cfg_from_edges(
        [("start", "l"), ("start", "r"), ("l", "join"), ("r", "join"), ("join", "end")]
    )


def merge_corpus():
    """Structurally *distinct* good CFGs plus one engine failure.

    Distinct shapes matter: identical structures hit the in-process frozen
    session cache on a serial run (fewer freeze spans) but not across
    worker processes, which would make span-for-span parity unfair.
    """
    return [
        ("good.loop", good_cfg),
        ("good.diamond", diamond_cfg),
        ("bad.orphan", bad_cfg),
    ]


def _batch_trace(workers: int):
    """Run merge_corpus under a full observer; return (report, records, observer)."""
    observer = Observer()
    report = run_batch(
        merge_corpus(),
        config=AnalysisConfig(retries=0, workers=workers, observer=observer),
    )
    buffer = io.StringIO()
    observer.write_jsonl(buffer)
    return report, read_jsonl(buffer.getvalue().splitlines()), observer


def spans_named(records, name):
    return [r for r in records if r["type"] == "span" and r["name"] == name]


def test_observer_no_longer_forces_serial_and_merge_matches_serial():
    serial_report, serial_records, serial_obs = _batch_trace(workers=1)
    with warnings.catch_warnings():
        # An observer-carrying config must take the parallel path silently.
        warnings.simplefilter("error", BatchSerialFallback)
        parallel_report, parallel_records, parallel_obs = _batch_trace(workers=2)
    assert strip(parallel_report) == strip(serial_report)
    # The merged trace passes the schema + structural validator...
    assert validate_trace(parallel_records) == []
    # ...with one item span per corpus entry that reached the engine, same
    # as serial.  (Full span-multiset parity would be cache-dependent: cold
    # worker processes re-freeze structures a warm serial process reuses.)
    assert len(spans_named(parallel_records, "run_analysis")) == len(
        spans_named(serial_records, "run_analysis")
    ) == len(merge_corpus())
    # And the engine-ladder and batch counters merge to the same totals
    # the serial registry accumulates in-process.
    for family in ("engine.attempts", "engine.retries", "batch.items"):
        assert parallel_obs.metrics.counts_matching(
            family
        ) == serial_obs.metrics.counts_matching(family)


def test_parallel_worker_spans_stitch_under_the_batch_span():
    _, records, _ = _batch_trace(workers=2)
    spans = [r for r in records if r["type"] == "span"]
    batch_spans = [s for s in spans if s["name"] == "run_batch"]
    assert len(batch_spans) == 1
    assert batch_spans[0]["attrs"]["parallel"] is True
    roots = [s for s in spans if s["name"] == "run_analysis"]
    assert roots  # the engine ran in workers, yet its spans are here
    for root in roots:
        assert root["parent"] == batch_spans[0]["span"]
        assert root["attrs"]["item"] in {k for k, _ in merge_corpus()}
        assert isinstance(root["attrs"]["worker_pid"], int)
    # Worker shards really were recorded out-of-process.
    assert any(s["attrs"]["worker_pid"] != os.getpid() for s in roots)


def test_parallel_histograms_merge_counts_across_shards():
    _, _, observer = _batch_trace(workers=2)
    histograms = observer.metrics.snapshot()["histograms"]
    # All three items (the two good CFGs and the invalid one) reach
    # run_analysis, each timed inside its worker's shard.
    assert histograms["engine.run_seconds"]["count"] == len(merge_corpus())


def test_worker_killed_mid_item_still_reports_every_item():
    """SIGKILLing a pool worker breaks its future (and possibly the pool);
    the batch must not raise, and every item must still get a result --
    crashed ones as errors, the rest as usual."""

    def killer():
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            workers = multiprocessing.active_children()
            if workers:
                os.kill(workers[0].pid, signal.SIGKILL)
                return
            time.sleep(0.01)

    thread = threading.Thread(target=killer, daemon=True)
    thread.start()
    # Large-ish graphs so at least one item is still in flight when the
    # SIGKILL lands.
    items = [
        (f"item{i}", (lambda s=i: random_cfg(seed=s, num_nodes=400, extra_edges=200)))
        for i in range(6)
    ]
    report = run_batch(items, config=AnalysisConfig(workers=2, retries=0))
    thread.join(timeout=10.0)
    assert not thread.is_alive()
    assert [r.key for r in report.results] == [key for key, _ in items]
    assert all(r.status in ("ok", "degraded", "error") for r in report.results)


@pytest.mark.skipif((os.cpu_count() or 1) < 4, reason="needs real cores")
def test_parallel_is_faster_on_multicore():
    items = [(f"item.{i}", good_cfg) for i in range(16)]
    serial = run_batch(items, config=AnalysisConfig(retries=0))
    parallel = run_batch(items, config=AnalysisConfig(retries=0, workers=4))
    assert parallel.elapsed < serial.elapsed
