"""SizedLRU / ShardedSessionCache semantics: the service's memory bound."""

import sys
import threading

import pytest

from repro.cfg.builder import cfg_from_edges
from repro.kernel.session import AnalysisSession
from repro.obs import observer as _obs
from repro.obs.observer import Observer
from repro.service.cache import ShardedSessionCache, SizedLRU, cfg_cost_bytes
from repro.synth.unstructured import random_cfg


def insert(lru, key, value, cost):
    """Insert through the cache's one way in."""
    return lru.get_or_create(key, lambda: (value, cost))


def diamond():
    return cfg_from_edges(
        [("start", "a"), ("a", "b", "T"), ("a", "c", "F"), ("b", "end"), ("c", "end")]
    )


# ----------------------------------------------------------------------
# SizedLRU
# ----------------------------------------------------------------------

def test_lru_orders_eviction_by_recency():
    lru = SizedLRU(30)
    insert(lru, "a", 1, 10)
    insert(lru, "b", 2, 10)
    insert(lru, "c", 3, 10)
    assert lru.get("a") == 1  # refresh "a" so "b" is now the LRU tail
    insert(lru, "d", 4, 10)
    assert "b" not in lru and "a" in lru
    assert lru.total_bytes == 30 and len(lru) == 3
    assert lru.evictions == 1


def test_get_or_create_hit_keeps_the_value_and_creates_nothing():
    lru = SizedLRU(100)
    assert insert(lru, "a", "small", 10) == "small"
    assert lru.get_or_create("a", pytest.fail) == "small"
    assert lru.total_bytes == 10
    assert lru.stats()["hits"] == 1 and lru.stats()["misses"] == 1


def test_get_or_create_inserts_nothing_when_create_raises():
    lru = SizedLRU(100)

    def broken():
        raise RuntimeError("build failed")

    with pytest.raises(RuntimeError):
        lru.get_or_create("a", broken)
    assert "a" not in lru and lru.total_bytes == 0
    assert insert(lru, "a", "built", 10) == "built"


def test_concurrent_first_lookups_create_once():
    lru = SizedLRU(100)
    calls = []
    started = threading.Event()
    release = threading.Event()

    def slow_create():
        calls.append(1)
        started.set()
        release.wait(timeout=10)
        return object(), 10

    results = []

    def lookup():
        results.append(lru.get_or_create("k", slow_create))

    first = threading.Thread(target=lookup)
    first.start()
    assert started.wait(timeout=10)
    second = threading.Thread(target=lookup)
    second.start()
    release.set()
    first.join(timeout=10)
    second.join(timeout=10)
    assert not first.is_alive() and not second.is_alive()
    assert len(calls) == 1
    assert len(results) == 2 and results[0] is results[1]


def test_single_over_budget_entry_is_kept_but_evicted_next():
    lru = SizedLRU(50)
    insert(lru, "huge", "x", 400)
    assert "huge" in lru  # admitted alone; bound overshoot is visible
    assert lru.total_bytes == 400
    insert(lru, "small", "y", 10)
    assert "huge" not in lru and "small" in lru
    assert lru.total_bytes == 10


def test_zero_budget_disables_caching_entirely():
    lru = SizedLRU(0)
    insert(lru, "a", 1, 10)
    assert "a" not in lru and len(lru) == 0
    assert lru.evictions == 1


def test_lru_clear_releases_bytes():
    lru = SizedLRU(100)
    insert(lru, "a", 1, 10)
    insert(lru, "b", 2, 20)
    assert lru.total_bytes == 30
    lru.clear()
    assert lru.total_bytes == 0 and len(lru) == 0


def test_lru_stats_track_hits_misses_evictions():
    lru = SizedLRU(20)
    insert(lru, "a", 1, 10)
    lru.get("a")
    lru.get("nope")
    insert(lru, "b", 2, 10)
    insert(lru, "c", 3, 10)
    # Each insert is a lookup that missed, besides the missed get.
    assert lru.stats() == {
        "entries": 2, "bytes": 20, "hits": 1, "misses": 4, "evictions": 1,
    }


def test_lru_rejects_negative_budget_and_cost():
    with pytest.raises(ValueError):
        SizedLRU(-1)
    lru = SizedLRU(10)
    with pytest.raises(ValueError):
        insert(lru, "a", 1, -5)
    assert "a" not in lru and lru.total_bytes == 0


def test_eviction_and_lookup_metrics_reach_the_ambient_observer():
    obs = Observer(trace=False, metrics=True)
    with _obs.observe(obs):
        lru = SizedLRU(10, name="test.lru")
        insert(lru, "a", 1, 10)
        lru.get("a")
        lru.get("missing")
        insert(lru, "b", 2, 10)  # evicts "a"
    m = obs.metrics
    assert m.count_of("cache.evict", cache="test.lru", reason="size") == 1
    assert m.count_of("cache.lookup", cache="test.lru", result="hit") == 1
    assert m.count_of("cache.lookup", cache="test.lru", result="miss") == 3


def test_lru_is_thread_safe_under_concurrent_churn():
    lru = SizedLRU(1000)
    errors = []

    def churn(base):
        try:
            for i in range(200):
                insert(lru, (base, i % 20), i, 17)
                lru.get((base, (i + 7) % 20))
        except Exception as error:  # pragma: no cover - failure path
            errors.append(error)

    threads = [threading.Thread(target=churn, args=(t,)) for t in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    assert lru.total_bytes <= max(lru.max_bytes, 17)


# ----------------------------------------------------------------------
# cost model
# ----------------------------------------------------------------------

def test_cost_estimates_are_monotone_in_graph_size():
    small = random_cfg(0, num_nodes=10, extra_edges=5)
    large = random_cfg(0, num_nodes=100, extra_edges=50)
    assert cfg_cost_bytes(small) < cfg_cost_bytes(large)


# ----------------------------------------------------------------------
# ShardedSessionCache
# ----------------------------------------------------------------------

def test_shards_split_the_budget_equally():
    cache = ShardedSessionCache(1000, max_clients=4)
    assert cache.per_client_bytes == 250
    shard = cache.shard("alice")
    assert shard.max_bytes == 250
    assert cache.shard("alice") is shard  # stable per client


def test_one_chatty_client_cannot_evict_another():
    cache = ShardedSessionCache(200, max_clients=2)
    insert(cache.shard("quiet"), "g", "artifact", 50)
    chatty = cache.shard("chatty")
    for i in range(50):
        insert(chatty, f"g{i}", i, 60)
    assert cache.shard("quiet").get("g") == "artifact"
    assert chatty.total_bytes <= 100 + 60  # bounded by its own slice


def test_excess_clients_evict_the_least_recent_shard():
    cache = ShardedSessionCache(300, max_clients=2)
    a = cache.shard("a")
    insert(a, "x", 1, 10)
    cache.shard("b")
    cache.shard("a")  # refresh "a" so "b" is the LRU client
    cache.shard("c")  # pushes "b" out
    stats = cache.stats()
    assert set(stats["shards"]) == {"a", "c"}
    assert cache.shard("a").get("x") == 1  # survivor kept its entries


def test_sharded_stats_aggregate_bytes_and_evictions():
    cache = ShardedSessionCache(400, max_clients=4)
    insert(cache.shard("a"), "x", 1, 30)
    insert(cache.shard("b"), "y", 2, 40)
    stats = cache.stats()
    assert stats["clients"] == 2
    assert stats["bytes"] == 70 == cache.total_bytes


def test_max_clients_must_be_positive():
    with pytest.raises(ValueError):
        ShardedSessionCache(100, max_clients=0)


def test_shards_share_one_label_and_gauges_report_cache_totals():
    obs = Observer(trace=False, metrics=True)
    with _obs.observe(obs):
        cache = ShardedSessionCache(300, max_clients=2)
        insert(cache.shard("a"), "x", 1, 30)
        cache.shard("a").get("x")
        insert(cache.shard("b"), "y", 2, 40)
        insert(cache.shard("b"), "z", 3, 50)
        m = obs.metrics
        assert m.gauge("cache.bytes", cache="service.sessions").value == 120
        assert m.gauge("cache.entries", cache="service.sessions").value == 3
        cache.shard("c")  # evicts client "a" and its 30 bytes
        assert m.gauge("cache.bytes", cache="service.sessions").value == 90
        assert m.gauge("cache.entries", cache="service.sessions").value == 2
    assert m.count_of("cache.lookup", cache="service.sessions", result="hit") == 1
    assert cache.total_bytes == 90
    names = {key for key in m.snapshot()["gauges"]}
    assert not any("[" in name for name in names)


def test_a_put_into_an_evicted_clients_shard_is_not_counted():
    cache = ShardedSessionCache(300, max_clients=1)
    held = cache.shard("a")
    cache.shard("b")  # evicts "a" while a request still holds its shard
    insert(held, "late", 1, 50)
    assert cache.total_bytes == 0 == cache.stats()["bytes"]


def test_sharded_totals_hold_under_concurrent_churn_and_client_eviction():
    """Totals and gauges equal the live shards' sum after racing threads.

    Seven clients share two shard slots, so clients are evicted while
    other threads still hold their shards and insert into them; those late
    entries must not be counted.
    """
    obs = Observer(trace=False, metrics=True)
    cache = ShardedSessionCache(400, max_clients=2)
    errors = []

    def churn(worker):
        try:
            for i in range(2000):
                shard = cache.shard(f"c{(worker + i) % 7}")
                insert(shard, i % 5, i, 7 + i % 13)
                shard.get((i + 1) % 5)
        except Exception as error:  # pragma: no cover - failure path
            errors.append(error)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with _obs.observe(obs):
            threads = [threading.Thread(target=churn, args=(w,)) for w in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
    finally:
        sys.setswitchinterval(previous)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    stats = cache.stats()
    entries = sum(shard["entries"] for shard in stats["shards"].values())
    gauge = obs.metrics.gauge
    assert cache.total_bytes == stats["bytes"]
    assert gauge("cache.bytes", cache="service.sessions").value == stats["bytes"]
    assert gauge("cache.entries", cache="service.sessions").value == entries


# ----------------------------------------------------------------------
# AnalysisSession: a plain memo
# ----------------------------------------------------------------------

def test_unbounded_session_reports_no_byte_fields():
    session = AnalysisSession(diamond())
    session.pst()
    info = session.cache_info()
    assert "bytes" not in info and "evictions" not in info
    assert info["size"] >= 2
