"""Validation of the CFG invariants from Definition 1 of the paper.

A valid CFG has distinguished ``start`` and ``end`` nodes, ``start`` has no
predecessors, ``end`` has no successors, and every node occurs on some path
from ``start`` to ``end``.  The cycle-equivalence algorithm *requires* these
invariants (they make ``G + (end -> start)`` strongly connected), so the
library checks them eagerly and reports precise diagnostics.

**Degenerate inputs raise exactly one exception type.**  Every analysis
entry point in the library reports a degenerate or malformed graph -- a
single-node graph, ``start == end``, a node that cannot reach ``end``, an
unset or missing start node -- by raising
:class:`~repro.cfg.graph.InvalidCFGError` (a ``ValueError``), never a raw
``KeyError`` or ``AssertionError``.  Definition-1 consumers (SESE regions,
the PST, control regions, control dependence) validate the full invariants;
rooted-graph algorithms (the dominator computations) deliberately accept
any graph with a reachable root and use :func:`require_root` to funnel the
missing-root case into the same type.  ``tests/fuzz/test_degenerate.py``
pins this contract for every entry point.
"""

from __future__ import annotations

from typing import List, Optional

from repro.cfg.graph import CFG, InvalidCFGError, NodeId


def check_cfg(cfg: CFG) -> List[str]:
    """Return a list of human-readable violations (empty list means valid)."""
    problems: List[str] = []
    if cfg.start is None:
        problems.append("start node is not set")
    elif not cfg.has_node(cfg.start):
        problems.append(f"start node {cfg.start!r} is not in the graph")
    if cfg.end is None:
        problems.append("end node is not set")
    elif not cfg.has_node(cfg.end):
        problems.append(f"end node {cfg.end!r} is not in the graph")
    if problems:
        return problems

    if cfg.start == cfg.end:
        problems.append("start and end must be distinct nodes")
    if cfg.in_degree(cfg.start) > 0:
        problems.append(f"start node {cfg.start!r} has predecessors")
    if cfg.out_degree(cfg.end) > 0:
        problems.append(f"end node {cfg.end!r} has successors")

    # Reachability over the shared CSR snapshot (bytearray marks instead of
    # NodeId hash sets); node_ids is insertion order, so diagnostics come
    # out in the same order as the object-path traversals did.
    from repro.kernel.registry import shared_frozen

    frozen = shared_frozen(cfg)
    from_start = _reach(frozen.num_nodes, frozen.succ_off, frozen.succ_dst, frozen.start)
    to_end = _reach(frozen.num_nodes, frozen.pred_off, frozen.pred_src, frozen.end)
    if 0 in from_start or 0 in to_end:
        for i, node in enumerate(frozen.node_ids):
            if not from_start[i]:
                problems.append(f"node {node!r} is unreachable from start")
            elif not to_end[i]:
                problems.append(f"node {node!r} cannot reach end")
    return problems


def _reach(n: int, off: List[int], dst: List[int], root: int) -> bytearray:
    """Nodes reachable from ``root`` following the given CSR rows."""
    seen = bytearray(n)
    seen[root] = 1
    stack = [root]
    pop = stack.pop
    push = stack.append
    while stack:
        node = pop()
        for t in dst[off[node] : off[node + 1]]:
            if not seen[t]:
                seen[t] = 1
                push(t)
    return seen


def validate_cfg(cfg: CFG) -> CFG:
    """Raise :class:`InvalidCFGError` if ``cfg`` violates Definition 1.

    Each CSR snapshot is checked once: a graph that passes has its current
    snapshot marked ``validated``, and validating it again before it
    changes returns at once (the resilience engine's input check reads
    the same mark).  An invalid graph is never marked.
    """
    from repro.kernel.registry import shared_frozen

    frozen = shared_frozen(cfg)
    if frozen.validated:
        return cfg
    problems = check_cfg(cfg)
    if problems:
        raise InvalidCFGError(
            f"invalid CFG {cfg.name!r}: " + "; ".join(problems)
        )
    frozen.validated = True
    return cfg


def is_valid_cfg(cfg: CFG) -> bool:
    """True iff ``cfg`` satisfies Definition 1."""
    return not check_cfg(cfg)


def require_root(cfg: CFG, root: Optional[NodeId], purpose: str) -> NodeId:
    """The root for a rooted-graph algorithm, or :class:`InvalidCFGError`.

    Algorithms that work on *any* rooted flowgraph (the dominator
    computations) accept degenerate CFGs -- a single node, ``start == end``,
    nodes that cannot reach ``end`` -- because dominance only needs a root.
    What they cannot tolerate is a missing root; this funnels that case into
    the library's single exception type instead of a raw ``KeyError``.
    """
    if root is None:
        raise InvalidCFGError(
            f"{purpose} requires a root node, but none was given and the "
            "CFG's start node is not set"
        )
    if not cfg.has_node(root):
        raise InvalidCFGError(f"{purpose} root {root!r} is not a node of the graph")
    return root
