"""Process-wide sharing of frozen snapshots, with an optional byte bound.

Freezing is O(V + E) -- cheap, but not free when every public entry point
(`cycle_equivalence_of_cfg`, `lengauer_tarjan`, `control_regions`,
`solve_iterative`) needs the same snapshot of the same graph.  This module
keys one :class:`~repro.kernel.csr.FrozenCFG` per live CFG in a weak-key
map, re-freezing only when the CFG's mutation ``version`` moves.

Weak keys alone are not a memory bound: a long-lived server holds strong
references to every client graph, so the registry additionally tracks
recency and size through a :class:`~repro.service.cache.SizedLRU` (cost =
CSR array bytes).  The bound is off by default (``None`` -- the historical
behaviour for library use); :func:`configure` arms it process-wide, and
:func:`repro.resilience.engine.run_analysis` arms it per call when
``AnalysisConfig.max_cache_bytes`` is set.  Evicted snapshots are simply
re-frozen on next demand, so the bound is purely a memory/speed trade.

Only *structural* state is shared here.  Analysis results are never cached
globally -- public functions must recompute on every call so that fault
injection and the resilience engine's retry ladder observe fresh runs;
result memoization is the explicit opt-in job of
:class:`~repro.kernel.session.AnalysisSession`.
"""

from __future__ import annotations

import weakref
from collections import deque
from typing import Optional

from repro.cfg.graph import CFG
from repro.kernel.csr import FrozenCFG, freeze
from repro.obs import observer as _obs

_FROZEN: "weakref.WeakKeyDictionary[CFG, FrozenCFG]" = weakref.WeakKeyDictionary()

#: Recency/size accounting over the same snapshots, keyed by CFG weakref.
#: ``None`` until :func:`configure` arms a bound -- the accounting itself
#: is lazily constructed so unbounded library use pays nothing.
_LRU = None


def configure(max_bytes: Optional[int]) -> None:
    """Arm (or change, or with ``None`` disarm) the registry byte bound.

    Safe to call repeatedly -- the service calls it at startup and
    ``run_analysis`` re-applies a config's ``max_cache_bytes`` per call
    (idempotent when the bound is unchanged).  Shrinking evicts
    immediately; disarming keeps existing snapshots but stops accounting.
    """
    global _LRU
    if max_bytes is None:
        _LRU = None
        return
    from repro.service.cache import SizedLRU, frozen_cost_bytes

    _drain_dead_refs()
    if _LRU is None:
        lru = SizedLRU(max_bytes, name="kernel.registry", on_evict=_drop_snapshot)
        _LRU = lru
        # Seed the accounting with whatever the weak map already holds so
        # arming a bound mid-process still bounds pre-existing snapshots.
        for cfg, frozen in list(_FROZEN.items()):
            lru.put(_tracking_ref(cfg), None, frozen_cost_bytes(frozen))
    elif _LRU.max_bytes != max_bytes:
        _LRU.resize(max_bytes)


def max_cache_bytes() -> Optional[int]:
    """The currently armed registry bound (``None`` = unbounded)."""
    return _LRU.max_bytes if _LRU is not None else None


def _drop_snapshot(ref: "weakref.ref", _value) -> None:
    """LRU eviction callback: forget the snapshot (re-frozen on demand)."""
    cfg = ref()
    if cfg is not None:
        _FROZEN.pop(cfg, None)


#: Keys whose CFG died, awaiting removal from the LRU accounting.  The
#: weakref death callback runs *during garbage collection*, which can fire
#: inside any allocation -- including one made while the LRU's own lock is
#: held (``SizedLRU.put`` on this very thread).  Taking the lock from the
#: callback therefore self-deadlocks; instead the callback only appends to
#: this deque (``deque.append`` is atomic, no lock) and the next registry
#: operation drains it under normal, non-GC context.
_DEAD_REFS: "deque[weakref.ref]" = deque()


def _drain_dead_refs() -> None:
    """Retire accounting entries for CFGs that died since the last call."""
    lru = _LRU
    while _DEAD_REFS:
        ref = _DEAD_REFS.popleft()
        if lru is not None:
            lru.pop(ref)


def _tracking_ref(cfg: CFG) -> "weakref.ref":
    """A weakref LRU key whose death callback retires its accounting entry.

    The value stored against it is ``None`` -- the LRU must never hold the
    CFG strongly, or snapshots would stop dying with their graphs.  Refs to
    the same live CFG compare equal, so repeat calls address one entry.
    The callback must stay lock-free (see :data:`_DEAD_REFS`).
    """
    return weakref.ref(cfg, _DEAD_REFS.append)


def registry_stats() -> dict:
    """Entries/bytes/evictions of the accounting layer (zeros if unarmed)."""
    if _LRU is None:
        return {"entries": len(_FROZEN), "bytes": 0, "evictions": 0, "bounded": False}
    _drain_dead_refs()
    stats = _LRU.stats()
    stats["bounded"] = True
    return stats


def shared_frozen(cfg: CFG) -> FrozenCFG:
    """The current snapshot of ``cfg``, freezing (or re-freezing) on demand.

    Returns a cached :class:`~repro.kernel.csr.FrozenCFG` when one exists
    for the CFG's current ``version``; otherwise freezes anew and caches.
    The cache holds the CFG weakly, so snapshots die with their graphs --
    and, when a bound is armed via :func:`configure`, least-recently-used
    snapshots are dropped once the estimated CSR bytes exceed it.
    """
    frozen = _FROZEN.get(cfg)
    o = _obs._CURRENT
    lru = _LRU
    if frozen is None or frozen.version != cfg.version:
        if o is not None:
            o.count("frozen.cache", result="miss")
            with o.span("freeze", n_nodes=cfg.num_nodes, n_edges=cfg.num_edges):
                frozen = freeze(cfg)
        else:
            frozen = freeze(cfg)
        _FROZEN[cfg] = frozen
        if lru is not None:
            from repro.service.cache import frozen_cost_bytes

            _drain_dead_refs()
            lru.put(_tracking_ref(cfg), None, frozen_cost_bytes(frozen))
    else:
        if o is not None:
            o.count("frozen.cache", result="hit")
        if lru is not None:
            _drain_dead_refs()
            lru.get(weakref.ref(cfg))  # refresh recency
    return frozen
