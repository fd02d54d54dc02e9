"""The edit-session API: validated CFG deltas with maintained analyses.

:class:`EditSession` is the top-level entry point of the incremental
layer::

    from repro import EditSession, build_cfg

    session = EditSession(cfg)
    session.add_edge("b", "d")            # convenience spelling
    session.apply(RemoveEdge("a", "c"))   # explicit delta
    pst = session.pst                     # maintained, not recomputed
    session.undo()                        # exact rollback, analyses follow

Per accepted delta the session locates the smallest canonical SESE region
enclosing the touched nodes in the cached PST, recomputes cycle
equivalence and the PST subtree regionally, and splices the result in
(:mod:`repro.incremental.splice`).  The maintained ``pst``/``equiv``
artifacts live in the graph's own
:class:`~repro.kernel.session.AnalysisSession` (``session_for(cfg)``), so
every caller reading that session after an edit gets the spliced tree,
while dominators and friends go stale per-key and lazily recompute.
Anything the splice path cannot absorb -- the edit escapes to the root, a
defensive invariant trips, an injected fault fires -- degrades to a
verified full recompute; it never raises.
Invalid deltas (statically malformed, or leaving the graph in violation
of Definition 1) raise :class:`~repro.incremental.delta.DeltaValidationError`
with the graph rolled back exactly.

``verify_incremental_rate`` samples accepted deltas for differential
verification against recompute-from-scratch (the production arm of the
``incremental/edit-stream`` fuzz oracle); a mismatch adopts the scratch
result and increments ``stats.verify_mismatches``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.cfg.graph import CFG, NodeId
from repro.cfg.validate import check_cfg, validate_cfg
from repro.config import DEFAULT_CONFIG, AnalysisConfig
from repro.core.cycle_equiv import cycle_equivalence_of_cfg
from repro.core.pst import build_pst
from repro.incremental.compare import diff_artifacts
from repro.incremental.delta import (
    AddEdge,
    AddNode,
    AppliedDelta,
    DeltaValidationError,
    RemoveEdge,
    RemoveNode,
    apply_delta_to_cfg,
    delta_from_json,
    undo_applied,
)
from repro.incremental.splice import locate_region, splice_region
from repro.kernel.session import session_for
from repro.obs import observer as _obs

#: Artifacts the splice path does not maintain, dropped eagerly after a
#: structural edit (per-key stamps would catch them lazily anyway, but
#: dropping releases the memory of superseded dominator maps etc.).
_DERIVED = ("dom", "pdom", "cr")


@dataclass
class EditStats:
    """Counters describing how the session has handled its deltas."""

    deltas_applied: int = 0
    rejected: int = 0
    splices: int = 0
    full_recomputes: int = 0
    region_escapes: int = 0
    oversize_regions: int = 0
    splice_fallbacks: int = 0
    verify_checks: int = 0
    verify_mismatches: int = 0
    undos: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self.__dataclass_fields__}


class EditSession:
    """Atomic, validated edits over one CFG with maintained analyses.

    ``config`` is the standard :class:`~repro.config.AnalysisConfig`; the
    session reads ``verify_incremental_rate`` and installs ``observer``
    ambiently around every :meth:`apply` and :meth:`undo`.  The maintained
    artifacts are stored in ``session_for(cfg)``, the graph's one
    :class:`~repro.kernel.session.AnalysisSession`.
    """

    def __init__(self, cfg: CFG, config: Optional[AnalysisConfig] = None):
        self.config = config if config is not None else DEFAULT_CONFIG
        self.cfg = cfg
        validate_cfg(cfg)
        self.session = session_for(cfg)
        self.stats = EditStats()
        self.equiv = None
        self.pst = None
        self.last_verify_detail: Optional[str] = None
        self._log: List[AppliedDelta] = []
        self._dataflow: List[Any] = []
        self._next_class_id = 0
        self._next_region_id = 0
        self._verify_rng = random.Random(0xED17)
        self._full(validate=False)

    # ------------------------------------------------------------------
    # the edit surface
    # ------------------------------------------------------------------
    def apply(self, delta) -> AppliedDelta:
        """Apply one delta atomically, maintaining every cached analysis.

        Raises :class:`DeltaValidationError` -- with the graph and all
        analyses restored exactly -- when the delta is malformed or its
        result violates Definition 1.
        """
        with _obs.observe(self.config.observer):
            try:
                if isinstance(delta, dict):
                    delta = delta_from_json(delta)
                applied = apply_delta_to_cfg(self.cfg, delta)
            except DeltaValidationError:
                # Statically rejected: nothing was mutated, just count it.
                self.stats.rejected += 1
                raise
            try:
                self._maintain(applied)
            except DeltaValidationError:
                undo_applied(self.cfg, applied)
                # The maintained artifacts still describe the restored graph;
                # restamp them so the rejection costs nothing downstream.
                self.session.put_artifact("equiv", self.equiv)
                self.session.put_artifact("pst", self.pst)
                self.stats.rejected += 1
                raise
        self.stats.deltas_applied += 1
        self._log.append(applied)
        return applied

    def undo(self) -> Any:
        """Reverse the most recent applied delta; analyses follow along.

        Returns the delta that was undone.  The inverse edit goes through
        the same maintenance path as a forward delta (it cannot be
        rejected: the restored graph was valid by construction).
        """
        if not self._log:
            raise DeltaValidationError("nothing to undo")
        applied = self._log.pop()
        undo_applied(self.cfg, applied)
        self.stats.undos += 1
        with _obs.observe(self.config.observer):
            self._maintain(applied.inverse_view())
        return applied.delta

    def add_edge(self, source: NodeId, target: NodeId, label=None) -> AppliedDelta:
        return self.apply(AddEdge(source, target, label))

    def remove_edge(self, source: NodeId, target: NodeId, eid=None) -> AppliedDelta:
        return self.apply(RemoveEdge(source, target, eid))

    def add_node(self, node: NodeId, preds, succs) -> AppliedDelta:
        return self.apply(AddNode(node, tuple(preds), tuple(succs)))

    def remove_node(self, node: NodeId) -> AppliedDelta:
        return self.apply(RemoveNode(node))

    @property
    def applied_deltas(self) -> int:
        return len(self._log)

    # ------------------------------------------------------------------
    # analyses (delegated to the graph's AnalysisSession)
    # ------------------------------------------------------------------
    def dominators(self):
        return self.session.dominators()

    def postdominators(self):
        return self.session.postdominators()

    def control_regions(self):
        return self.session.control_regions()

    def sese_regions(self):
        return self.pst.canonical_regions()

    def attach_dataflow(self, problem):
        """Attach an incrementally maintained dataflow engine.

        Returns a :class:`~repro.dataflow.incremental.IncrementalDataflow`
        the session keeps current across structural edits (regional
        re-summarization after a splice, full rebuild otherwise).
        """
        from repro.dataflow.incremental import IncrementalDataflow

        engine = IncrementalDataflow(self.cfg, problem, pst=self.pst)
        self._dataflow.append(engine)
        return engine

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def _maintain(self, applied: AppliedDelta) -> None:
        region = locate_region(self.pst, applied.touched_nodes)
        if region is None:
            self.stats.region_escapes += 1
            self._recompute()
            return
        # A splice costs a constant factor more per node than the scratch
        # pipeline (regional copy, subtree conversion, canonical surgery),
        # so once the enclosing region covers a large fraction of the graph
        # a full recompute is strictly cheaper.  Degrade deliberately; the
        # region.size() probe is a pure traversal, bounded by full-recompute
        # cost itself.
        if region.size() > max(32, self.cfg.num_nodes // 4):
            self.stats.oversize_regions += 1
            self._recompute()
            return
        try:
            outcome = splice_region(
                self.pst,
                self.equiv,
                region,
                applied.added_nodes,
                applied.removed_nodes,
                self._alloc_class_id,
                self._alloc_region_id,
            )
        except DeltaValidationError:
            raise
        except Exception:
            # RegionEscape, a tripped invariant, an injected fault: the
            # verified-fallback ladder -- degrade, never raise.
            self.stats.splice_fallbacks += 1
            self._recompute()
            return
        self.stats.splices += 1
        class_of = self.equiv.class_of
        for edge in applied.removed_edges:
            class_of.pop(edge, None)
        self.session.put_artifact("equiv", self.equiv)
        self.session.put_artifact("pst", self.pst)
        self.session.invalidate(keys=list(_DERIVED))
        for engine in self._dataflow:
            try:
                engine.structural_update(
                    outcome.new_regions,
                    outcome.removed_region_ids,
                    outcome.parent,
                    removed_nodes=applied.removed_nodes,
                )
            except Exception:
                engine.rebuild(self.pst)
        self._maybe_verify()

    def _recompute(self) -> None:
        """The full-recompute rung of the fallback ladder."""
        self._full(validate=True)
        self.stats.full_recomputes += 1
        self._rebuild_dataflow()

    def _full(self, validate: bool) -> None:
        """Recompute everything from scratch (bootstrap and fallback path)."""
        if validate:
            problems = check_cfg(self.cfg)
            if problems:
                raise DeltaValidationError(
                    "delta leaves the graph invalid: " + "; ".join(problems),
                    problems=problems,
                )
        equiv = cycle_equivalence_of_cfg(self.cfg, validate=False)
        self._adopt(equiv, build_pst(self.cfg, equiv))

    def _adopt(self, equiv, pst) -> None:
        """Make scratch-computed ``equiv``/``pst`` the maintained artifacts."""
        class_of = equiv.class_of  # materialize before any later mutation
        self.equiv = equiv
        self.pst = pst
        self._next_class_id = max(class_of.values(), default=0) + 1
        self._next_region_id = (
            max((r.region_id for r in pst.canonical_regions()), default=0) + 1
        )
        self.session.invalidate()
        self.session.put_artifact("equiv", equiv)
        self.session.put_artifact("pst", pst)

    def _rebuild_dataflow(self) -> None:
        for engine in self._dataflow:
            engine.rebuild(self.pst)

    def _alloc_class_id(self) -> int:
        value = self._next_class_id
        self._next_class_id += 1
        return value

    def _alloc_region_id(self) -> int:
        value = self._next_region_id
        self._next_region_id += 1
        return value

    def _maybe_verify(self) -> None:
        rate = self.config.verify_incremental_rate
        if rate <= 0.0 or self._verify_rng.random() >= rate:
            return
        self.stats.verify_checks += 1
        scratch_equiv = cycle_equivalence_of_cfg(self.cfg, validate=False)
        scratch_pst = build_pst(self.cfg, scratch_equiv)
        detail = diff_artifacts(
            self.equiv.class_of, self.pst, scratch_equiv.class_of, scratch_pst
        )
        if detail is None:
            return
        # Adopt the scratch truth; count, never raise.
        self.stats.verify_mismatches += 1
        self.last_verify_detail = detail
        self._adopt(scratch_equiv, scratch_pst)
        self._rebuild_dataflow()


def apply_delta(session: EditSession, delta) -> AppliedDelta:
    """Apply one delta (an object or its JSON wire form) to a session.

    The functional spelling of :meth:`EditSession.apply`, promoted to the
    top-level ``repro`` namespace alongside :class:`EditSession`.
    """
    return session.apply(delta)
