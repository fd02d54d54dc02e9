"""Size-accounted LRU caching: the one bound on the service's memory.

A long-lived server keeps client graphs, and every graph carries its own
frozen CSR snapshot and shared analysis session (``cfg._frozen`` and
``cfg._session``), which are freed with it.  So bounding the graphs the
server keeps bounds all of its analysis memory, and this module is where
that happens: a :class:`SizedLRU` charges each entry an explicit cost (for
a cached graph, the CSR byte estimate of :func:`cfg_cost_bytes`) and evicts
least-recently-used entries until the total fits, counting every eviction
into the ambient :class:`~repro.obs.metrics.MetricsRegistry` as
``cache.evict`` so cache pressure is visible on ``/metrics`` next to the
engine's retry counters.

:class:`ShardedSessionCache` layers per-client fairness on top: each client
gets its own LRU shard with an equal slice of the byte budget, and the
shard set itself is LRU-bounded, so one chatty client can neither evict
everyone else's sessions nor grow the shard map without bound.  All shards
share one ``cache`` label, so the metric series stay fixed however many
clients the server has seen; per-client detail is on ``/statusz``.

Everything here is thread-safe and stdlib-only.  Each cache has one lock.
Lookups and evictions under it are a few dict moves; the only other work
there is a miss's ``create`` (for the service, building the client's
graph), which holds up that one shard and nothing else.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Dict, Optional, Tuple

from repro.obs import observer as _obs

#: Per-int-entry cost of the frozen CSR arrays.  CPython small ints in a
#: list cost a pointer (8) plus a share of the int object; 16 bytes/entry
#: is the honest flat estimate for the dense arrays FrozenCFG keeps.
BYTES_PER_ENTRY = 16

#: Fixed per-snapshot overhead (the FrozenCFG object, its dicts' headers).
SNAPSHOT_OVERHEAD = 512


def cfg_cost_bytes(cfg) -> int:
    """Estimated resident bytes of the frozen CSR snapshot of ``cfg``.

    Counts the dense integer arrays (three per direction plus the edge
    endpoint pair and the offsets) and the ``index_of`` map, from the
    graph's own counts, so it can be charged before the snapshot exists.
    An estimate, not an audit -- what matters is that cost is *monotone in
    graph size* and consistent across entries, so a byte budget translates
    into a graph budget.
    """
    n, m = cfg.num_nodes, cfg.num_edges
    return SNAPSHOT_OVERHEAD + BYTES_PER_ENTRY * (6 * m + 2 * (n + 1) + 3 * n)


class SizedLRU:
    """A byte-bounded, thread-safe LRU map with explicit per-entry costs.

    ``name`` labels the ``cache.lookup`` / ``cache.evict`` /
    ``cache.bytes`` / ``cache.entries`` observability signals.
    """

    def __init__(self, max_bytes: int, name: str = "lru"):
        if max_bytes < 0:
            raise ValueError("max_bytes must be >= 0")
        self.max_bytes = max_bytes
        self.name = name
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
            entry = self._lookup(key)
        return default if entry is None else entry[0]

    def get_or_create(self, key: Any, create: Callable[[], Tuple[Any, int]]) -> Any:
        """The value for ``key`` (refreshing recency), created on a miss.

        The one way in: on a miss, ``create()`` runs under this cache's
        lock and returns ``(value, cost)``; the value is inserted at
        ``cost`` bytes and the LRU tail evicted until the total fits.  So
        concurrent first lookups of one key share one value, created once,
        and a hit creates nothing.  If ``create`` raises, nothing is
        inserted.

        An entry costlier than the whole budget is admitted alone -- the
        cache would otherwise thrash on it -- but immediately becomes the
        eviction candidate for the next insert, so the bound holds from the
        next insertion on (and ``total_bytes`` overshoot is visible to the
        owner, which is what the soak's memory assertion watches).
        """
        with self._lock:
            entry = self._lookup(key)
            if entry is not None:
                return entry[0]
            value, cost = create()
            if cost < 0:
                raise ValueError("cost must be >= 0")
            self._entries[key] = (value, cost)
            self._total += cost
            # A single entry over budget stays (see docstring) unless the
            # budget is zero, where caching is explicitly off.
            floor = 0 if self.max_bytes == 0 else 1
            while self._total > self.max_bytes and len(self._entries) > floor:
                _, (_, old_cost) = self._entries.popitem(last=False)
                self._total -= old_cost
                self.evictions += 1
                self._count("cache.evict", reason="size")
            self._gauge()
            return value

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._total = 0
            self._gauge()

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
    def _lookup(self, key: Any) -> Optional[Tuple[Any, int]]:
        """``key``'s ``(value, cost)`` or None, counted; call under ``_lock``."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            self._count("cache.lookup", result="miss")
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        self._count("cache.lookup", result="hit")
        return entry

    def _count(self, metric: str, **labels: str) -> None:
        o = _obs._CURRENT
        if o is not None:
            o.count(metric, cache=self.name, **labels)

    def _gauge(self) -> None:
        o = _obs._CURRENT
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

    Every shard is labelled ``cache="service.sessions"``; lookups and
    evictions sum over shards, and ``cache.bytes`` / ``cache.entries``
    report the whole cache's totals.
    """

    name = "service.sessions"

    def __init__(self, max_bytes: int, max_clients: int = 64):
        if max_clients < 1:
            raise ValueError("max_clients must be >= 1")
        self.max_bytes = max_bytes
        self.max_clients = max_clients
        self.per_client_bytes = max(1, max_bytes // max_clients)
        self._lock = threading.Lock()
        self._shards: "OrderedDict[str, _Shard]" = OrderedDict()
        # Running totals over all shards, behind their own lock: each shard
        # reports under its own lock, so several can report at once.
        self._totals_lock = threading.Lock()
        self._bytes = 0
        self._entries = 0

    def shard(self, client: str) -> SizedLRU:
        """The (created-on-demand) LRU shard for ``client``."""
        retired = []
        with self._lock:
            shard = self._shards.get(client)
            if shard is None:
                shard = _Shard(self)
                self._shards[client] = shard
                while len(self._shards) > self.max_clients:
                    retired.append(self._shards.popitem(last=False)[1])
            else:
                self._shards.move_to_end(client)
        # Shard locks are taken outside ``_lock``: one may be held while a
        # miss builds a graph, and that must not stall every other client.
        for dead in retired:
            dead.retire()
            o = _obs._CURRENT
            if o is not None:
                o.count("cache.evict", cache="service.shards", reason="clients")
        return shard

    @property
    def total_bytes(self) -> int:
        return self._bytes

    def stats(self) -> Dict[str, object]:
        with self._lock:
            live = list(self._shards.items())
        shards = {name: s.stats() for name, s in live}
        return {
            "clients": len(shards),
            "bytes": sum(s["bytes"] for s in shards.values()),
            "evictions": sum(s["evictions"] for s in shards.values()),
            "shards": shards,
        }

    def _adjust(self, nbytes: int, entries: int) -> None:
        with self._totals_lock:
            self._bytes += nbytes
            self._entries += entries
            o = _obs._CURRENT
            if o is not None:
                o.set_gauge("cache.bytes", self._bytes, cache=self.name)
                o.set_gauge("cache.entries", self._entries, cache=self.name)


class _Shard(SizedLRU):
    """One client's slice of a :class:`ShardedSessionCache`.

    Its gauges go to the owner, which reports totals over all shards.
    """

    def __init__(self, owner: ShardedSessionCache):
        super().__init__(owner.per_client_bytes, name=owner.name)
        self._owner: Optional[ShardedSessionCache] = owner
        self._reported = (0, 0)

    def retire(self) -> None:
        """Empty the shard of an evicted client and stop reporting.

        A request thread may still hold the shard and insert into it; such
        entries live only as long as that reference and are not counted.
        """
        with self._lock:
            self._entries.clear()
            self._total = 0
            self._gauge()
            self._owner = None

    def _gauge(self) -> None:
        # Runs under this shard's lock after every change: hand the owner
        # the change since the last report.
        owner = self._owner
        if owner is not None:
            nbytes, entries = self._total, len(self._entries)
            owner._adjust(nbytes - self._reported[0], entries - self._reported[1])
            self._reported = (nbytes, entries)
