"""Array-based canonical SESE regions and PST construction.

Ports the two passes that :func:`repro.core.pst.build_pst` runs after cycle
equivalence to the CSR snapshot:

1. a directed DFS over the successor rows yielding every edge index in
   visit order, from which adjacent same-class pairs become the canonical
   regions (§3.6, Definition 5);
2. a second DFS emitting the tree-edge down/up events inline, driving the
   same region stack discipline as the reference to assign nesting,
   containment, and depth.

The output is a regular :class:`~repro.core.pst.ProgramStructureTree` over
regular :class:`~repro.core.sese.SESERegion` objects -- only the traversal
bookkeeping is flattened, so results are interchangeable with (and
identical to) the reference builder's.
"""

from __future__ import annotations

from typing import List, Optional

from repro.kernel.csr import FrozenCFG


def kernel_build_pst(frozen: FrozenCFG, classes: List[int]):
    """Build the PST from a snapshot and positional cycle-equivalence ids.

    ``classes[e]`` is the class of edge index ``e`` (as returned by
    :func:`repro.kernel.cycle_equiv.kernel_cycle_equivalence`).  Performs
    the same two passes as the reference builder; raises the same
    ``AssertionError`` on stack-discipline violations, which the resilience
    engine relies on to detect corrupted equivalence input.
    """
    # Imported here: repro.core.pst imports this module's package for the
    # cycle-equivalence kernel, so a top-level import would be circular.
    from repro.core.pst import ProgramStructureTree
    from repro.core.sese import SESERegion

    cfg = frozen.cfg
    edges = cfg.edges
    m = frozen.num_edges
    node_ids = frozen.node_ids
    succ_off = frozen.succ_off
    succ_edge = frozen.succ_edge
    edge_dst = frozen.edge_dst
    start = frozen.start

    # --- pass 1: one DFS fuses region discovery with event recording ------
    # Canonical regions are adjacent same-class pairs in edge visit order
    # (every edge, tree or not); the stack replay below only cares about
    # tree edges, recorded as an event stream (e >= 0 descends tree edge e,
    # ~e backtracks over it) so pass 2 never re-walks the adjacency.
    entry_at: List[Optional[SESERegion]] = [None] * m
    exit_at: List[Optional[SESERegion]] = [None] * m
    canonical: List[SESERegion] = []
    n_classes = max(classes) + 1 if classes else 0
    last_in_class = [-1] * n_classes
    events: List[int] = []
    seen = bytearray(frozen.num_nodes)
    if start >= 0:
        seen[start] = 1
        # frames: [node, next adjacency slot, row end, edge descended via]
        stack = [[start, succ_off[start], succ_off[start + 1], -1]]
    else:
        stack = []
    while stack:
        frame = stack[-1]
        ptr = frame[1]
        end_ptr = frame[2]
        advanced = False
        while ptr < end_ptr:
            e = succ_edge[ptr]
            ptr += 1
            cls = classes[e]
            prev = last_in_class[cls]
            if prev != -1:
                region = SESERegion(
                    edges[prev], edges[e], class_id=cls, region_id=len(canonical)
                )
                canonical.append(region)
                entry_at[prev] = region
                exit_at[e] = region
            last_in_class[cls] = e
            t = edge_dst[e]
            if not seen[t]:
                seen[t] = 1
                events.append(e)
                frame[1] = ptr
                stack.append([t, succ_off[t], succ_off[t + 1], e])
                advanced = True
                break
        if not advanced:
            stack.pop()
            via = frame[3]
            if via != -1:
                events.append(~via)

    # --- pass 2: replay tree-edge down/up events over the region stack ----
    root_region = SESERegion(entry=None, exit=None, region_id=-1)
    root_region.own_nodes.append(cfg.start)
    rstack: List[SESERegion] = [root_region]
    pushed_at: List[Optional[SESERegion]] = [None] * m
    popped_at: List[Optional[SESERegion]] = [None] * m

    top = root_region
    for ev in events:
        if ev >= 0:
            # "down" over tree edge ev
            closing = exit_at[ev]
            if closing is not None:
                if top is not closing:
                    raise AssertionError(
                        f"PST stack discipline violated closing {closing!r}; "
                        f"top is {top!r}"
                    )
                rstack.pop()
                top = rstack[-1]
                popped_at[ev] = closing
            opening = entry_at[ev]
            if opening is not None:
                opening.parent = top
                top.children.append(opening)
                rstack.append(opening)
                top = opening
                pushed_at[ev] = opening
            top.own_nodes.append(node_ids[edge_dst[ev]])
        else:
            # "up": backtracking over a tree edge undoes its events
            via = ~ev
            opened = pushed_at[via]
            if opened is not None:
                pushed_at[via] = None
                if top is not opened:
                    raise AssertionError(
                        "PST stack discipline violated on backtrack"
                    )
                rstack.pop()
                top = rstack[-1]
            closed = popped_at[via]
            if closed is not None:
                popped_at[via] = None
                rstack.append(closed)
                top = closed

    if len(rstack) != 1 or rstack[0] is not root_region:
        raise AssertionError("PST stack not fully unwound after DFS")

    depth_stack = [(0, root_region)]
    while depth_stack:
        depth, region = depth_stack.pop()
        region.depth = depth
        for child in reversed(region.children):
            depth_stack.append((depth + 1, child))
    return ProgramStructureTree(cfg, root_region, canonical)
