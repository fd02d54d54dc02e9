"""Incremental dataflow re-analysis over the PST (§6.3's suggestion).

The paper closes §6.3 observing that the PST "might lead to fast
incremental algorithms for analysis problems since the PST can be used to
isolate regions of the graph where information must be recomputed."  This
module realizes that idea for gen/kill problems on a *fixed CFG*: when the
transfer functions of a few blocks change (statements edited in place), the
engine

1. **bottom-up** re-summarizes only the regions on the PST path from each
   edited block to the root, stopping early as soon as a region's summary
   comes out unchanged (edits that do not alter a region's external
   behaviour never disturb its ancestors), and
2. **top-down** re-solves only the maximal dirty regions with their cached
   entry values, descending into a child only when the child is dirty or
   its entry value changed.

Both phases reuse the machinery of :mod:`repro.dataflow.elimination`.
The engine reports which blocks' values changed and keeps counters
(`last_summaries_recomputed`, `last_regions_resolved`) that the tests use
to confirm recomputation really is localized.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.cfg.graph import CFG, NodeId
from repro.core.pst import ProgramStructureTree, build_pst
from repro.core.sese import SESERegion
from repro.dataflow.elimination import _CollapsedProblem, _probe
from repro.dataflow.framework import BACKWARD, GenKillProblem, Solution
from repro.dataflow.iterative import solve_iterative

_Summary = Tuple[FrozenSet, FrozenSet]


class IncrementalDataflow:
    """Incrementally maintained gen/kill solution over a fixed CFG."""

    def __init__(self, cfg: CFG, problem: GenKillProblem, pst: Optional[ProgramStructureTree] = None):
        self.cfg = cfg
        self.problem = problem
        self.pst = build_pst(cfg) if pst is None else pst
        self._backward = problem.direction == BACKWARD
        self._summaries: Dict[int, _Summary] = {}
        self._entries: Dict[int, FrozenSet] = {}
        self.before: Dict[NodeId, FrozenSet] = {}
        self.after: Dict[NodeId, FrozenSet] = {}
        self.last_summaries_recomputed = 0
        self.last_regions_resolved = 0
        self._full_solve()

    # ------------------------------------------------------------------
    def solution(self) -> Solution:
        return Solution(dict(self.before), dict(self.after))

    def update(
        self,
        changed_blocks: Iterable[NodeId],
        problem: Optional[GenKillProblem] = None,
    ) -> Set[NodeId]:
        """Re-solve after the transfer functions of ``changed_blocks`` changed.

        ``problem`` may supply a rebuilt problem object (same universe!)
        when the old one caches gen/kill sets.  Returns the set of blocks
        whose ``before`` or ``after`` value changed.
        """
        if problem is not None:
            if problem.universe() != self.problem.universe():
                raise ValueError(
                    "incremental update requires an unchanged fact universe; "
                    "rebuild the IncrementalDataflow engine instead"
                )
            self.problem = problem
        self.last_summaries_recomputed = 0
        self.last_regions_resolved = 0

        dirty: Set[int] = set()
        dirty_regions: Dict[int, SESERegion] = {}
        for block in changed_blocks:
            region = self.pst.region_of(block)
            dirty.add(region.region_id)
            dirty_regions[region.region_id] = region

        # ---- phase 1: bottom-up resummarization with early stopping ----
        worklist: List[SESERegion] = sorted(
            dirty_regions.values(), key=lambda r: -r.depth
        )
        seen: Set[int] = {r.region_id for r in worklist}
        while worklist:
            region = worklist.pop(0)
            if region.is_root:
                continue
            new_summary = self._summarize(region)
            self.last_summaries_recomputed += 1
            if new_summary == self._summaries[region.region_id]:
                continue  # externally invisible edit: ancestors untouched
            self._summaries[region.region_id] = new_summary
            parent = region.parent
            assert parent is not None
            dirty.add(parent.region_id)
            dirty_regions[parent.region_id] = parent
            if parent.region_id not in seen:
                seen.add(parent.region_id)
                # keep the list depth-sorted (parents are shallower)
                worklist.append(parent)
                worklist.sort(key=lambda r: -r.depth)

        # ---- phase 2: top-down re-solve of maximal dirty regions --------
        changed: Set[NodeId] = set()
        maximal = [
            region
            for region in dirty_regions.values()
            if not self._has_dirty_ancestor(region, dirty)
        ]
        for region in maximal:
            entry = (
                self.problem.boundary()
                if region.is_root
                else self._entries[region.region_id]
            )
            self._resolve(region, entry, dirty, changed)
        return changed

    # ------------------------------------------------------------------
    def _full_solve(self) -> None:
        for region in sorted(self.pst.regions(), key=lambda r: -r.depth):
            if not region.is_root:
                self._summaries[region.region_id] = self._summarize(region)
        self._entries[self.pst.root.region_id] = self.problem.boundary()
        self._resolve(self.pst.root, self.problem.boundary(), dirty=None, changed=set())

    def _summarize(self, region: SESERegion) -> _Summary:
        sub, _ = self.pst.collapsed_cfg(region)
        child_summaries = {
            self.pst.child_summary_id(child): self._summaries[child.region_id]
            for child in region.children
        }
        universe = self.problem.universe()
        return (
            _probe(sub, self.problem, child_summaries, frozenset(), self._backward),
            _probe(sub, self.problem, child_summaries, universe, self._backward),
        )

    def _has_dirty_ancestor(self, region: SESERegion, dirty: Set[int]) -> bool:
        parent = region.parent
        while parent is not None:
            if parent.region_id in dirty:
                return True
            parent = parent.parent
        return False

    def _resolve(
        self,
        region: SESERegion,
        entry: FrozenSet,
        dirty: Optional[Set[int]],
        changed: Set[NodeId],
    ) -> None:
        """Solve one region; recurse where necessary.

        ``dirty=None`` means the initial full solve (descend everywhere).
        """
        self.last_regions_resolved += 1
        self._entries[region.region_id] = entry
        sub, _ = self.pst.collapsed_cfg(region)
        child_summaries = {
            self.pst.child_summary_id(child): self._summaries[child.region_id]
            for child in region.children
        }
        local = _CollapsedProblem(self.problem, child_summaries, entry)
        solution = solve_iterative(sub, local)
        for node in region.own_nodes:
            new_before = solution.before[node]
            new_after = solution.after[node]
            if self.before.get(node) != new_before or self.after.get(node) != new_after:
                changed.add(node)
            self.before[node] = new_before
            self.after[node] = new_after
        for child in region.children:
            summary_node = self.pst.child_summary_id(child)
            child_entry = (
                solution.before[summary_node]
                if not self._backward
                else solution.after[summary_node]
            )
            must_descend = (
                dirty is None
                or child.region_id in dirty
                or child_entry != self._entries.get(child.region_id)
            )
            if must_descend:
                self._resolve(child, child_entry, dirty, changed)
            else:
                self._entries[child.region_id] = child_entry
