"""Parallel batch execution: parity with serial mode, checkpointing, fallback.

These tests exercise the real process pool (workers=2), so corpora are kept
tiny.  Behavioral parity -- same keys, same order, same statuses as the
serial path -- is the contract; wall-clock speedup is only asserted where
the host actually has cores to parallelize over.  How items are chunked
into futures is counted at ``ProcessPoolExecutor.submit``, never timed.
"""

from __future__ import annotations

import io
import multiprocessing
import os
import signal
import threading
import time
import warnings
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.cfg.builder import cfg_from_edges
from repro.cfg.graph import CFG
from repro.config import AnalysisConfig
from repro.obs.observer import Observer
from repro.obs.schema import validate_trace
from repro.obs.trace import read_jsonl
from repro.resilience import batch
from repro.resilience.batch import (
    CHUNK_EDGES,
    CHUNK_ITEMS,
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


@pytest.fixture
def futures(monkeypatch):
    """The keys each future of a parallel batch carried, in submission order."""
    shipped = []
    submit = ProcessPoolExecutor.submit

    def counting_submit(pool, fn, *args, **kwargs):
        assert fn is batch._worker_run_chunk
        shipped.append([work[0] for work in args[0]])
        return submit(pool, fn, *args, **kwargs)

    monkeypatch.setattr(ProcessPoolExecutor, "submit", counting_submit)
    return shipped


def large_cfg(seed: int) -> CFG:
    cfg = random_cfg(seed=seed, num_nodes=600, extra_edges=450)
    assert cfg.num_edges >= CHUNK_EDGES
    return cfg


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


def test_small_items_share_futures_and_keep_their_own_results(futures):
    items = [(f"small.{i}", good_cfg) for i in range(200)]
    report = run_batch(items, config=AnalysisConfig(retries=0, workers=2))
    assert len(futures) < len(items)
    assert all(len(keys) <= CHUNK_ITEMS for keys in futures)
    # Chunks go out in submission order, and results come back in it.
    assert [key for keys in futures for key in keys] == [k for k, _ in items]
    assert [r.key for r in report.results] == [k for k, _ in items]
    assert {r.status for r in report.results} == {"ok"}
    # Every item is timed on its own, not billed its chunk's time.
    elapsed = {r.key: r.elapsed for r in report.results}
    assert all(value > 0 for value in elapsed.values())
    for keys in futures:
        if len(keys) > 1:
            assert len({elapsed[key] for key in keys}) > 1, keys


def test_as_many_small_items_as_workers_ship_one_per_future(futures):
    items = [(f"small.{i}", good_cfg) for i in range(2)]
    report = run_batch(items, config=AnalysisConfig(retries=0, workers=2))
    assert futures == [["small.0"], ["small.1"]]
    assert [r.status for r in report.results] == ["ok", "ok"]


def test_large_items_ship_alone(futures):
    items = []
    for i in range(3):
        items.append((f"large.{i}", lambda s=i: large_cfg(s)))
        items.extend((f"small.{i}.{j}", good_cfg) for j in range(5))
    report = run_batch(items, config=AnalysisConfig(retries=0, workers=2))
    assert [r.key for r in report.results] == [k for k, _ in items]
    assert all(r.status in ("ok", "degraded") for r in report.results)
    carrying = [keys for keys in futures if any(k.startswith("large") for k in keys)]
    assert carrying == [["large.0"], ["large.1"], ["large.2"]]


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


def chunked_corpus():
    """merge_corpus twenty times over: enough items that futures carry chunks."""
    return [(f"{key}.{i}", thunk) for i in range(20) for key, thunk in merge_corpus()]


def _batch_trace(workers: int, make_corpus=merge_corpus):
    """Run a corpus under a full observer; return (report, records, observer)."""
    observer = Observer()
    report = run_batch(
        make_corpus(),
        config=AnalysisConfig(retries=0, workers=workers, observer=observer),
    )
    buffer = io.StringIO()
    observer.write_jsonl(buffer)
    return report, read_jsonl(buffer.getvalue().splitlines()), observer


def spans_named(records, name):
    return [r for r in records if r["type"] == "span" and r["name"] == name]


def test_observer_no_longer_forces_serial_and_merge_matches_serial():
    for make_corpus in (merge_corpus, chunked_corpus):
        serial_report, serial_records, serial_obs = _batch_trace(1, make_corpus)
        with warnings.catch_warnings():
            # An observer-carrying config must take the parallel path silently.
            warnings.simplefilter("error", BatchSerialFallback)
            parallel_report, parallel_records, parallel_obs = _batch_trace(
                2, make_corpus
            )
        assert strip(parallel_report) == strip(serial_report)
        # The merged trace passes the schema + structural validator...
        assert validate_trace(parallel_records) == []
        # ...with one item span per corpus entry that reached the engine,
        # same as serial.  (Full span-multiset parity would be cache-
        # dependent: cold worker processes re-freeze structures a warm
        # serial process reuses.)
        assert len(spans_named(parallel_records, "run_analysis")) == len(
            spans_named(serial_records, "run_analysis")
        ) == len(make_corpus())
        # And the engine-ladder and batch counters merge to the same totals
        # the serial registry accumulates in-process.
        for family in ("engine.attempts", "engine.retries", "batch.items"):
            assert parallel_obs.metrics.counts_matching(
                family
            ) == serial_obs.metrics.counts_matching(family)


def test_parallel_worker_spans_stitch_under_the_batch_span(futures):
    for make_corpus in (merge_corpus, chunked_corpus):
        futures.clear()
        _, records, _ = _batch_trace(2, make_corpus)
        spans = [r for r in records if r["type"] == "span"]
        batch_spans = [s for s in spans if s["name"] == "run_batch"]
        assert len(batch_spans) == 1
        assert batch_spans[0]["attrs"]["parallel"] is True
        roots = [s for s in spans if s["name"] == "run_analysis"]
        assert roots  # the engine ran in workers, yet its spans are here
        for root in roots:
            assert root["parent"] == batch_spans[0]["span"]
            assert isinstance(root["attrs"]["worker_pid"], int)
        # One shard per item, stamped with its own key, also when a future
        # carried a chunk of items.
        assert sorted(root["attrs"]["item"] for root in roots) == sorted(
            k for k, _ in make_corpus()
        )
        # Worker shards really were recorded out-of-process.
        assert any(s["attrs"]["worker_pid"] != os.getpid() for s in roots)
    assert any(len(keys) > 1 for keys in futures)


def test_parallel_histograms_merge_counts_across_shards():
    for make_corpus in (merge_corpus, chunked_corpus):
        _, _, observer = _batch_trace(2, make_corpus)
        histograms = observer.metrics.snapshot()["histograms"]
        # Every item (good CFGs and invalid ones alike) reaches
        # run_analysis, each timed inside its worker's shard.
        assert histograms["engine.run_seconds"]["count"] == len(make_corpus())


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
