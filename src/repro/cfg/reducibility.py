"""Reducibility testing by T1/T2 interval collapse (Hecht & Ullman).

A flowgraph is *reducible* iff it collapses to a single node under repeated
application of:

* **T1** -- remove a self-loop, and
* **T2** -- merge a node with its unique predecessor.

Theorem 10 of the paper states that every SESE region of a reducible CFG is
itself reducible; the property tests exercise that claim through this module.

The implementation works on a compressed simple-graph form (parallel edges
collapse to one) because parallel edges are irrelevant to reducibility, and
uses a worklist so that typical graphs collapse in near-linear time.
"""

from __future__ import annotations

from typing import Dict, Optional, Set

from repro.cfg.graph import CFG, NodeId


def is_reducible(cfg: CFG, entry: Optional[NodeId] = None) -> bool:
    """True iff ``cfg`` (viewed from ``entry``, default start) is reducible."""
    entry = cfg.start if entry is None else entry

    # Build simple-graph adjacency restricted to nodes reachable from entry.
    succs: Dict[NodeId, Set[NodeId]] = {}
    preds: Dict[NodeId, Set[NodeId]] = {}
    stack = [entry]
    seen: Set[NodeId] = {entry}
    while stack:
        node = stack.pop()
        succs.setdefault(node, set())
        preds.setdefault(node, set())
        for nxt in cfg.successors(node):
            succs.setdefault(nxt, set())
            preds.setdefault(nxt, set())
            succs[node].add(nxt)
            preds[nxt].add(node)
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)

    worklist = list(succs.keys())
    alive = set(succs.keys())
    while worklist:
        node = worklist.pop()
        if node not in alive:
            continue
        # T1: self-loop removal.
        if node in succs[node]:
            succs[node].discard(node)
            preds[node].discard(node)
            worklist.append(node)
            continue
        # T2: merge node into its unique predecessor.
        if node != entry and len(preds[node]) == 1:
            (parent,) = preds[node]
            for nxt in succs[node]:
                preds[nxt].discard(node)
                if nxt != node:
                    succs[parent].add(nxt)
                    preds[nxt].add(parent)
            succs[parent].discard(node)
            alive.discard(node)
            del succs[node]
            del preds[node]
            worklist.append(parent)
            # The parent's successors gained edges; revisit them.
            worklist.extend(succs[parent])
    return len(alive) == 1

