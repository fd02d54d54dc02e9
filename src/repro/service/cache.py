"""Size-accounted LRU caching for the analysis service and kernel layer.

The frozen-CSR registry and :class:`~repro.kernel.session.AnalysisSession`
memoization were designed for short-lived driver processes, where "dies
with the graph" (weak keys) is a sufficient bound.  A long-lived server
holds strong references to thousands of client graphs, so every cache on
the hot path must be *byte-bounded*: a :class:`SizedLRU` charges each entry
an explicit cost (for CFG-derived artifacts, the CSR array byte estimate of
:func:`frozen_cost_bytes`) and evicts least-recently-used entries until the
total fits, counting every eviction into the ambient
:class:`~repro.obs.metrics.MetricsRegistry` as ``cache.evict`` so cache
pressure is visible on ``/metrics`` next to the engine's retry counters.

:class:`ShardedSessionCache` layers per-client fairness on top: each client
gets its own LRU shard with an equal slice of the byte budget, and the
shard set itself is LRU-bounded, so one chatty client can neither evict
everyone else's sessions nor grow the shard map without bound.

Everything here is thread-safe (one lock per cache -- operations are a few
dict moves, never analysis work) and stdlib-only.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Dict, Iterator, Optional, Tuple

from repro.obs import observer as _obs

#: Per-int-entry cost of the frozen CSR arrays.  CPython small ints in a
#: list cost a pointer (8) plus a share of the int object; 16 bytes/entry
#: is the honest flat estimate for the dense arrays FrozenCFG keeps.
BYTES_PER_ENTRY = 16

#: Fixed per-snapshot overhead (the FrozenCFG object, its dicts' headers).
SNAPSHOT_OVERHEAD = 512


def frozen_cost_bytes(frozen) -> int:
    """Estimated resident bytes of one frozen CSR snapshot.

    Counts the dense integer arrays (three per direction plus the edge
    endpoint pair) and the ``index_of`` map.  An estimate, not an audit --
    what matters is that cost is *monotone in graph size* and consistent
    across entries, so a byte budget translates into a graph budget.
    """
    n, m = frozen.num_nodes, frozen.num_edges
    entries = (
        2 * m  # edge_src / edge_dst
        + 2 * (n + 1)  # succ_off / pred_off
        + 4 * m  # succ_edge / succ_dst / pred_edge / pred_src
        + len(frozen.self_loops)
        + 3 * n  # node_ids + index_of keys/values
    )
    return SNAPSHOT_OVERHEAD + BYTES_PER_ENTRY * entries


def cfg_cost_bytes(cfg) -> int:
    """The :func:`frozen_cost_bytes` estimate computed from a live CFG.

    Used where the snapshot may not exist yet (admission decisions, session
    artifact accounting): same formula, driven by the CFG's own counts.
    """
    n, m = cfg.num_nodes, cfg.num_edges
    return SNAPSHOT_OVERHEAD + BYTES_PER_ENTRY * (6 * m + 2 * (n + 1) + 3 * n)


class SizedLRU:
    """A byte-bounded, thread-safe LRU map with explicit per-entry costs.

    ``max_bytes=None`` disables eviction (the cache degenerates to a plain
    recency-ordered dict), so callers can thread an optional bound through
    without branching.  ``name`` labels the ``cache.evict`` /
    ``cache.bytes`` observability signals; ``on_evict(key, value)`` lets
    owners release resources (never called under the lock's critical
    section for user code re-entry safety -- evicted pairs are collected
    first, called after).
    """

    def __init__(
        self,
        max_bytes: Optional[int],
        name: str = "lru",
        on_evict: Optional[Callable[[Any, Any], None]] = None,
    ):
        if max_bytes is not None and max_bytes < 0:
            raise ValueError("max_bytes must be >= 0 (or None for unbounded)")
        self.max_bytes = max_bytes
        self.name = name
        self.on_evict = on_evict
        self.evictions = 0
        self.hits = 0
        self.misses = 0
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Any, Tuple[Any, int]]" = OrderedDict()
        self._total = 0

    # ------------------------------------------------------------------
    @property
    def total_bytes(self) -> int:
        return self._total

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Any) -> bool:
        with self._lock:
            return key in self._entries

    def get(self, key: Any, default: Any = None) -> Any:
        """The value for ``key`` (refreshing recency), or ``default``."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                self._count("cache.lookup", result="miss")
                return default
            self._entries.move_to_end(key)
            self.hits += 1
            self._count("cache.lookup", result="hit")
            return entry[0]

    def put(self, key: Any, value: Any, cost: int) -> None:
        """Insert (or replace) ``key`` at ``cost`` bytes, evicting LRU tail.

        An entry costlier than the whole budget is admitted alone -- the
        cache would otherwise thrash on it -- but immediately becomes the
        eviction candidate for the next insert, so the bound holds from the
        next insertion on (and ``total_bytes`` overshoot is visible to the
        owner, which is what the soak's memory assertion watches).
        """
        if cost < 0:
            raise ValueError("cost must be >= 0")
        evicted = []
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self._total -= old[1]
            self._entries[key] = (value, cost)
            self._total += cost
            if self.max_bytes is not None:
                while self._total > self.max_bytes and len(self._entries) > 1:
                    old_key, (old_value, old_cost) = self._entries.popitem(last=False)
                    self._total -= old_cost
                    self.evictions += 1
                    self._count("cache.evict", reason="size")
                    evicted.append((old_key, old_value))
                # A single entry over budget: keep it (see docstring) unless
                # the budget is zero, where caching is explicitly off.
                if self.max_bytes == 0 and self._entries:
                    old_key, (old_value, old_cost) = self._entries.popitem(last=False)
                    self._total -= old_cost
                    self.evictions += 1
                    self._count("cache.evict", reason="size")
                    evicted.append((old_key, old_value))
            self._gauge()
        if self.on_evict is not None:
            for old_key, old_value in evicted:
                try:
                    self.on_evict(old_key, old_value)
                except Exception:
                    pass  # eviction callbacks must never break the cache

    def pop(self, key: Any, default: Any = None) -> Any:
        with self._lock:
            entry = self._entries.pop(key, None)
            if entry is None:
                return default
            self._total -= entry[1]
            self._gauge()
            return entry[0]

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._total = 0
            self._gauge()

    def keys(self) -> Iterator[Any]:
        with self._lock:
            return iter(list(self._entries.keys()))

    def resize(self, max_bytes: Optional[int]) -> None:
        """Change the budget; shrinking evicts immediately."""
        evicted = []
        with self._lock:
            self.max_bytes = max_bytes
            if max_bytes is not None:
                while self._total > max_bytes and len(self._entries) > (
                    0 if max_bytes == 0 else 1
                ):
                    old_key, (old_value, old_cost) = self._entries.popitem(last=False)
                    self._total -= old_cost
                    self.evictions += 1
                    self._count("cache.evict", reason="resize")
                    evicted.append((old_key, old_value))
            self._gauge()
        if self.on_evict is not None:
            for old_key, old_value in evicted:
                try:
                    self.on_evict(old_key, old_value)
                except Exception:
                    pass

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "entries": len(self._entries),
                "bytes": self._total,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }

    # ------------------------------------------------------------------
    def _count(self, metric: str, **labels: str) -> None:
        # ``_obs`` can already be torn down when a weakref death callback
        # lands during interpreter shutdown -- stay silent, never raise.
        o = _obs._CURRENT if _obs is not None else None
        if o is not None:
            o.count(metric, cache=self.name, **labels)

    def _gauge(self) -> None:
        o = _obs._CURRENT if _obs is not None else None
        if o is not None:
            o.set_gauge("cache.bytes", self._total, cache=self.name)
            o.set_gauge("cache.entries", len(self._entries), cache=self.name)


class ShardedSessionCache:
    """Per-client LRU shards under one total byte budget.

    ``max_bytes`` divides equally over ``max_clients`` shards; the shard
    map itself is an LRU over client ids, so an abandoned client's whole
    shard is reclaimed when a new client arrives past the cap.  Values are
    whatever the service stores per CFG (an entry holding the CFG, its
    live edit session, and cached responses);
    this class only does the byte accounting and fairness.
    """

    def __init__(self, max_bytes: int, max_clients: int = 64):
        if max_clients < 1:
            raise ValueError("max_clients must be >= 1")
        self.max_bytes = max_bytes
        self.max_clients = max_clients
        self.per_client_bytes = max(1, max_bytes // max_clients)
        self._lock = threading.Lock()
        self._shards: "OrderedDict[str, SizedLRU]" = OrderedDict()

    def shard(self, client: str) -> SizedLRU:
        """The (created-on-demand) LRU shard for ``client``."""
        with self._lock:
            shard = self._shards.get(client)
            if shard is None:
                shard = SizedLRU(
                    self.per_client_bytes, name=f"service.sessions[{client}]"
                )
                self._shards[client] = shard
                while len(self._shards) > self.max_clients:
                    _, dead = self._shards.popitem(last=False)
                    dead.clear()
                    o = _obs._CURRENT
                    if o is not None:
                        o.count("cache.evict", cache="service.shards", reason="clients")
            else:
                self._shards.move_to_end(client)
            return shard

    @property
    def total_bytes(self) -> int:
        with self._lock:
            return sum(s.total_bytes for s in self._shards.values())

    def stats(self) -> Dict[str, object]:
        with self._lock:
            shards = {name: s.stats() for name, s in self._shards.items()}
        return {
            "clients": len(shards),
            "bytes": sum(s["bytes"] for s in shards.values()),
            "evictions": sum(s["evictions"] for s in shards.values()),
            "shards": shards,
        }
