"""Explicit, opt-in memoization of derived analysis artifacts.

The public entry points (``cycle_equivalence_of_cfg``, ``build_pst``,
``lengauer_tarjan``, ``control_regions``) deliberately recompute on every
call -- the resilience engine's retry ladder and the fault-injection tests
depend on each call being a fresh run, so the engine calls them directly
and keeps no session.  An :class:`AnalysisSession` is the opposite
contract: one object per CFG that computes each artifact *once* and hands
the same result back to every consumer, for callers (the CLI,
:mod:`repro.analysis.report`, the benchmark harness) that ask for the
same PST or dominator tree many times over.

Every artifact is stamped with the CFG's mutation ``version`` at compute
time and re-checked per lookup, so mutating the graph between calls
transparently discards stale artifacts -- per key, not whole-cache, which
lets a delta-aware maintainer (:class:`~repro.incremental.session.EditSession`)
re-seed just the artifacts it maintained via :meth:`AnalysisSession.put_artifact`
while everything else lazily recomputes.  :meth:`AnalysisSession.invalidate`
drops artifacts explicitly -- all of them, or a named subset -- to release
superseded ones early.

The memo is a plain dict, unbounded by design: it holds at most one of
each artifact of one graph, and every artifact is O(V + E) in that graph.
It is bounded by bounding the graphs -- whoever keeps graphs alive (the
service's session shards) keeps their sessions alive, nothing else does.

``session_for`` hands out the one session of a live CFG, stored on the
graph itself so that it dies with the graph.  It is the only session a
graph has: an :class:`~repro.incremental.session.EditSession` maintains
its PST and cycle equivalence there, so every caller that asks
``session_for(cfg).pst()`` after an edit gets the spliced tree.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.cfg.graph import CFG, NodeId
from repro.kernel.csr import FrozenCFG
from repro.kernel.registry import shared_frozen
from repro.obs import observer as _obs


class AnalysisSession:
    """Per-CFG cache of derived analysis artifacts.

    Each artifact is stored with the CFG ``version`` it was computed (or
    :meth:`put_artifact`-seeded) under; a lookup that finds a stale stamp
    counts it in ``stale``, reports a miss, and recomputes just that
    artifact against a fresh snapshot.

    The ambient observer receives a ``session.cache`` counter per lookup,
    labelled with the artifact and hit/miss, so cache effectiveness shows
    up in one metrics snapshot next to the engine's retry counters.
    """

    __slots__ = ("cfg", "_cache", "hits", "misses", "stale", "__weakref__")

    def __init__(self, cfg: CFG):
        self.cfg = cfg
        #: ``key -> (version, value)`` -- the stamp decides per-key staleness.
        self._cache: Dict[str, Any] = {}
        self.hits = 0
        self.misses = 0
        self.stale = 0

    # ------------------------------------------------------------------
    # cache plumbing
    # ------------------------------------------------------------------
    @property
    def frozen(self) -> FrozenCFG:
        """The current CSR snapshot (re-frozen if the CFG mutated)."""
        return shared_frozen(self.cfg)

    def invalidate(self, keys: Optional[List[str]] = None) -> None:
        """Drop cached artifacts: all of them, or just the named ``keys``.

        Selective invalidation is the delta-aware path: an incremental
        maintainer that re-seeded ``pst``/``equiv`` via :meth:`put_artifact`
        drops only the artifacts it could not maintain (e.g. ``dom``) and
        keeps the rest warm.  Unknown keys are ignored.
        """
        if keys is None:
            self._cache.clear()
            return
        for key in keys:
            self._cache.pop(key, None)

    def put_artifact(self, key: str, value: Any) -> None:
        """Seed ``key`` with an externally maintained ``value``.

        The value is stamped with the CFG's *current* version, so the next
        lookup treats it as fresh.  The caller vouches that ``value`` equals
        what the corresponding getter would compute from scratch -- the
        incremental layer's differential verification exists to keep that
        promise honest.
        """
        self._cache[key] = (self.cfg.version, value)

    def cache_info(self) -> Dict[str, int]:
        """Hit/miss/stale counters and the number of artifacts held."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "size": len(self._cache),
            "stale": self.stale,
        }

    def _memo(self, key: str, compute: Callable[[], Any]) -> Any:
        o = _obs._CURRENT
        version = self.cfg.version
        entry = self._cache.get(key)
        if entry is not None:
            if entry[0] == version:
                self.hits += 1
                if o is not None:
                    o.count("session.cache", artifact=key, result="hit")
                return entry[1]
            self.stale += 1
        self.misses += 1
        if o is not None:
            o.count("session.cache", artifact=key, result="miss")
        value = compute()
        self._cache[key] = (version, value)
        return value

    # ------------------------------------------------------------------
    # artifacts
    # ------------------------------------------------------------------
    def cycle_equivalence(self):
        """Cycle equivalence of the augmented graph (Figure 4 kernel)."""
        from repro.core.cycle_equiv import cycle_equivalence_of_cfg

        return self._memo("equiv", lambda: cycle_equivalence_of_cfg(self.cfg))

    def pst(self):
        """The Program Structure Tree (computing cycle equivalence first)."""
        from repro.core.pst import build_pst

        return self._memo(
            "pst", lambda: build_pst(self.cfg, equiv=self.cycle_equivalence())
        )

    def sese_regions(self):
        """Canonical SESE regions, in PST discovery order."""
        return self.pst().canonical_regions()

    def dominators(self) -> Dict[NodeId, NodeId]:
        """Immediate dominators (Lengauer-Tarjan kernel, root = start)."""
        from repro.dominance.lengauer_tarjan import lengauer_tarjan

        return self._memo("dom", lambda: lengauer_tarjan(self.cfg))

    def postdominators(self) -> Dict[NodeId, NodeId]:
        """Immediate postdominators (the same kernel on reversed CSR rows).

        Runs :func:`repro.kernel.dominance.kernel_lengauer_tarjan` with
        ``reverse=True`` over the existing snapshot, so no reversed CFG is
        ever materialized.
        """
        from repro.cfg.validate import require_root
        from repro.kernel.dominance import kernel_lengauer_tarjan

        def compute() -> Dict[NodeId, NodeId]:
            root = require_root(self.cfg, self.cfg.end, "postdominators")
            frozen = self.frozen
            idom = kernel_lengauer_tarjan(frozen, frozen.index_of[root], reverse=True)
            node_ids = frozen.node_ids
            return {
                node_ids[i]: node_ids[idom[i]]
                for i in range(frozen.num_nodes)
                if idom[i] != -1
            }

        return self._memo("pdom", compute)

    def control_regions(self) -> List[List[NodeId]]:
        """Control regions (§5), read off the memoized cycle equivalence.

        The kernel uses those classes only while they describe the current
        snapshot; a spliced equivalence carries none, and the kernel runs
        its own pass.
        """
        from repro.controldep.regions_fast import control_regions

        return self._memo(
            "cr", lambda: control_regions(self.cfg, equiv=self.cycle_equivalence())
        )


def session_for(cfg: CFG) -> AnalysisSession:
    """The one session of ``cfg`` (created on first use).

    The session is kept on the graph (``cfg._session``): session and
    graph reference each other, so neither outlives the other once the
    caller drops the graph.
    """
    session = cfg._session
    if session is None:
        session = cfg._session = AnalysisSession(cfg)
    return session
