"""Regional recomputation and PST subtree splicing (§6.3).

The paper's empirical claim (Figs 5/6) is that PSTs are broad and shallow,
so most edits touch one small canonical region.  This module exploits it:
given a cached PST and an edit whose touched nodes all lie inside one
canonical SESE region ``R = (a, b)``, :func:`splice_region` re-runs the
full cycle-equivalence + PST pipeline on a *regional* CFG and splices the
result back into the cached tree, leaving everything outside ``R``
untouched.

Why this is sound (the argument the edit-stream fuzz oracle re-checks
case by case):

* An edit interior to ``R`` adds no boundary crossings, so ``(a, b)``
  remains a SESE pair: every path into the interior still enters via
  ``a``, every path out still exits via ``b``.
* Cycle equivalence of edges *outside* ``R`` depends on the exterior
  structure plus the mere existence of an interior ``a``-to-``b`` path
  (any cycle through ``R`` is an interior traversal glued to an exterior
  return path, and which exterior edges it contains does not depend on
  the traversal chosen).  Interior edits change neither, so exterior
  classes -- including whether ``a`` is equivalent to any exterior edge
  -- are preserved.  If the edit severs every interior path the regional
  graph fails validation and the delta is rejected.
* An interior edge can only be equivalent to ``a`` itself (when every
  interior ``a``-to-``b`` path crosses it -- a chain separator) or to
  other interior edges: equivalence with an exterior edge would force
  every interior traversal through it, which is the separator case.
* Hence the global partition after the edit = exterior classes unchanged
  + the boundary class possibly gaining/losing interior separators + a
  fresh interior partition; and the canonical pairing turns ``R`` into
  the chain ``(a, d1), (d1, d2) .. (dk, b)``.

The regional CFG ``Rg`` has synthetic ``$entry$``/``$exit$`` nodes
standing for the cut boundary edges; its PST root owns exactly those two
sentinels and its root children are exactly the chain that replaces ``R``.
Anything that violates these expectations raises :class:`RegionEscape`,
which the caller (:class:`~repro.incremental.session.EditSession`) treats
as "fall back to full recompute" -- never an error.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.cfg.graph import CFG, Edge, NodeId
from repro.cfg.validate import check_cfg
from repro.core.cycle_equiv import CycleEquivalence, cycle_equivalence_of_cfg
from repro.core.pst import REGION_ENTRY, REGION_EXIT, ProgramStructureTree, build_pst
from repro.core.sese import SESERegion
from repro.incremental.delta import DeltaValidationError

# Fault-injection hook (repro.resilience.faults installs/clears a plan here;
# see site "incremental/skip-splice").  Always None in production.
_FAULTS = None


class RegionEscape(Exception):
    """The edit cannot be absorbed by a regional recompute.

    Raised when an edit's effects are not provably confined to one
    canonical region (boundary-crossing edges, sentinel collisions, a
    regional PST with unexpected shape, or an injected fault).  The caller
    degrades to full recompute; this exception never reaches users.
    """


def nca_region(a: SESERegion, b: SESERegion) -> SESERegion:
    """Nearest common ancestor of two PST regions (by parent/depth walk)."""
    while a is not b:
        if a.depth >= b.depth:
            assert a.parent is not None
            a = a.parent
        else:
            assert b.parent is not None
            b = b.parent
    return a


def locate_region(
    pst: ProgramStructureTree, touched: Sequence[NodeId]
) -> Optional[SESERegion]:
    """Smallest canonical region containing every touched node, or ``None``.

    Nodes absent from the PST (just added by the delta) carry no anchor of
    their own -- their neighbors, also in ``touched``, anchor them.  Returns
    ``None`` when the smallest enclosing region is the root pseudo-region
    (the edit touches top-level structure; only a full recompute is safe).
    """
    anchor: Optional[SESERegion] = None
    for node in touched:
        region = pst.region_of_node.get(node)
        if region is None:
            continue
        anchor = region if anchor is None else nca_region(anchor, region)
        if anchor.is_root:
            return None
    if anchor is None or anchor.is_root:
        return None
    return anchor


def _regional_cfg(
    pst: ProgramStructureTree,
    region: SESERegion,
    added_nodes: Sequence[NodeId],
) -> Tuple[CFG, Dict[Edge, Edge]]:
    """Build ``Rg`` for ``region``'s (post-edit) interior.

    Returns ``(rg, edge_map)`` where ``edge_map`` maps each edge
    of ``rg`` to the original edge it stands for (the synthetic boundary
    edges map to ``region.entry``/``region.exit``).  The in/out boundary
    scans are defensive: the caller guarantees the edit was interior, so a
    trip means the cached tree disagrees with the graph -- escape and let
    the full recompute resolve it.
    """
    g = pst.cfg
    entry, exit_ = region.entry, region.exit
    assert entry is not None and exit_ is not None
    ordered: List[NodeId] = [n for n in region.nodes() if g.has_node(n)]
    seen = set(ordered)
    for node in added_nodes:
        if node not in seen:
            ordered.append(node)
            seen.add(node)
    interior = seen
    if REGION_ENTRY in interior or REGION_EXIT in interior:
        raise RegionEscape("interior node collides with a boundary sentinel")
    if entry.target not in interior or exit_.source not in interior:
        raise RegionEscape("region boundary nodes are not interior")
    if entry.source in interior or exit_.target in interior:
        raise RegionEscape("region boundary edges do not cross the interior cut")

    rg = CFG(start=REGION_ENTRY, end=REGION_EXIT, name=f"{g.name}.inc{region.region_id}")
    for node in ordered:
        rg.add_node(node)
    edge_map: Dict[Edge, Edge] = {}
    edge_map[rg.add_edge(REGION_ENTRY, entry.target, entry.label)] = entry
    for node in ordered:
        for edge in g.iter_out_edges(node):
            if edge is exit_:
                edge_map[rg.add_edge(edge.source, REGION_EXIT, edge.label)] = exit_
            elif edge.target in interior:
                edge_map[rg.add_edge(edge.source, edge.target, edge.label)] = edge
            else:
                raise RegionEscape(
                    f"edge {edge.source!r}->{edge.target!r} leaves the region"
                )
        for edge in g.iter_in_edges(node):
            if edge is not entry and edge.source not in interior:
                raise RegionEscape(
                    f"edge {edge.source!r}->{edge.target!r} enters the region"
                )
    return rg, edge_map


def splice_region(
    pst: ProgramStructureTree,
    equiv: CycleEquivalence,
    region: SESERegion,
    added_nodes: Sequence[NodeId],
    removed_nodes: Sequence[NodeId],
    alloc_class_id: Callable[[], int],
    alloc_region_id: Callable[[], int],
) -> None:
    """Recompute ``region``'s subtree from its post-edit interior and splice.

    Mutates ``pst`` (tree structure, node/edge indices, caches) and
    ``equiv.class_of`` (interior edges get their new classes; the boundary
    class keeps its old id) in place.  All conversion work happens *before*
    the first mutation, so a raised :class:`RegionEscape` or
    :class:`DeltaValidationError` leaves both untouched.

    ``removed_nodes`` must already be gone from ``pst.cfg`` (the delta layer
    applied the mutation first); they are dropped from the node index here.
    """
    faults = _FAULTS
    if faults is not None and faults.should_fire("incremental/skip-splice"):
        raise RegionEscape("injected fault: incremental/skip-splice")

    parent = region.parent
    if parent is None:
        raise RegionEscape("cannot splice the root pseudo-region")

    rg, edge_map = _regional_cfg(pst, region, added_nodes)
    problems = check_cfg(rg)
    if problems:
        raise DeltaValidationError(
            f"delta leaves region {region.describe()} invalid: "
            + "; ".join(problems),
            problems=problems,
        )
    rg_equiv = cycle_equivalence_of_cfg(rg, validate=False)
    rg_pst = build_pst(rg, rg_equiv)
    if set(rg_pst.root.own_nodes) != {REGION_ENTRY, REGION_EXIT}:
        raise RegionEscape("regional PST root owns more than the sentinels")
    if not rg_pst.root.children:
        raise RegionEscape("regional PST has no chain to splice")

    # ------------------------------------------------------------------
    # conversion (no mutation yet): regional regions/classes -> global
    # ------------------------------------------------------------------
    rg_class_of = rg_equiv.class_of
    entry_edge = region.entry
    assert entry_edge is not None
    boundary_class = rg_class_of[next(iter(rg.iter_out_edges(REGION_ENTRY)))]
    old_entry_class = equiv.class_of[entry_edge]
    class_map: Dict[int, int] = {boundary_class: old_entry_class}

    def to_global_class(cls: int) -> int:
        mapped = class_map.get(cls)
        if mapped is None:
            mapped = class_map[cls] = alloc_class_id()
        return mapped

    new_regions: List[SESERegion] = []
    chain: List[SESERegion] = []
    # Iterative preorder conversion (regional trees can nest deeply).
    stack: List[Tuple[SESERegion, Optional[SESERegion]]] = [
        (child, None) for child in reversed(rg_pst.root.children)
    ]
    while stack:
        src, dst_parent = stack.pop()
        assert src.entry is not None and src.exit is not None
        converted = SESERegion(
            entry=edge_map[src.entry],
            exit=edge_map[src.exit],
            class_id=to_global_class(rg_class_of[src.entry]),
            region_id=alloc_region_id(),
        )
        converted.own_nodes = list(src.own_nodes)
        if dst_parent is None:
            converted.parent = parent
            converted.depth = parent.depth + 1
            chain.append(converted)
        else:
            converted.parent = dst_parent
            converted.depth = dst_parent.depth + 1
            dst_parent.children.append(converted)
        new_regions.append(converted)
        for child in reversed(src.children):
            stack.append((child, converted))

    edge_class_updates = {
        edge_map[rg_edge]: to_global_class(cls)
        for rg_edge, cls in rg_class_of.items()
    }

    # ------------------------------------------------------------------
    # splice (pure mutation; cannot fail)
    # ------------------------------------------------------------------
    old_regions = [region] + region.descendants()
    index = next(i for i, c in enumerate(parent.children) if c is region)
    parent.children[index : index + 1] = chain

    class_of = equiv.class_of
    for edge, cls in edge_class_updates.items():
        class_of[edge] = cls
    equiv.positional = None  # stale positional view, rebuilt on full recompute

    for old in old_regions:
        pst.entry_region.pop(old.entry, None)
        pst.exit_region.pop(old.exit, None)
        for node in old.own_nodes:
            pst.region_of_node.pop(node, None)
    for node in removed_nodes:
        pst.region_of_node.pop(node, None)
    for fresh in new_regions:
        pst.entry_region[fresh.entry] = fresh
        pst.exit_region[fresh.exit] = fresh
        for node in fresh.own_nodes:
            pst.region_of_node[node] = fresh

    # O(1) instead of a full-list patch: every non-root region is
    # canonical, so the tree is the authority and the flat list can be
    # rebuilt lazily (ProgramStructureTree.canonical_regions).
    pst._canonical = None
    pst._layout = None
    pst._collapsed_cache.clear()
