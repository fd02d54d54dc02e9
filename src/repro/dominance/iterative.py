"""Iterative immediate dominators (Cooper, Harvey & Kennedy, 2001).

``A Simple, Fast Dominance Algorithm``: a data-flow fixpoint over reverse
postorder using the "intersect by walking up postorder numbers" trick.  For
the shallow graphs typical of programs it converges in a couple of passes.

The returned mapping uses the convention ``idom[root] == root``; only nodes
reachable from the root appear.

Dominance is defined on any rooted flowgraph, so degenerate CFGs (a single
node, ``start == end``, nodes that cannot reach ``end``) are accepted; a
missing or unset root raises :class:`~repro.cfg.graph.InvalidCFGError`
(see :mod:`repro.cfg.validate`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

from repro.cfg.graph import CFG, NodeId
from repro.cfg.traversal import reverse_postorder
from repro.cfg.validate import require_root
from repro.obs import observer as _obs
from repro.resilience.guards import Ticker

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.kernel.dominance import EdgeDominance


def immediate_dominators(
    cfg: CFG, root: Optional[NodeId] = None, ticker: Optional[Ticker] = None
) -> Dict[NodeId, NodeId]:
    """Immediate dominators of all nodes reachable from ``root``.

    ``root`` defaults to ``cfg.start``.  ``idom[root] == root``.  ``ticker``
    is charged one step per node per fixpoint sweep (billed in bulk at the
    top of each sweep, so the per-node loop stays guard-free), bounding the
    worst-case O(V) sweeps irreducible graphs can need.

    Runs the array kernel
    (:func:`repro.kernel.dominance.kernel_immediate_dominators`) over the
    shared frozen snapshot; :func:`immediate_dominators_reference` is the
    retained object-graph implementation the fuzz oracles compare against.
    """
    root = require_root(cfg, cfg.start if root is None else root, "dominator computation")
    return _obs.dispatch(
        "immediate_dominators", "kernel", cfg, _immediate_dominators_kernel, cfg, root, ticker
    )


def _immediate_dominators_kernel(
    cfg: CFG, root: NodeId, ticker: Optional[Ticker]
) -> Dict[NodeId, NodeId]:
    from repro.kernel.dominance import kernel_immediate_dominators
    from repro.kernel.registry import shared_frozen

    frozen = shared_frozen(cfg)
    return kernel_immediate_dominators(frozen, frozen.index_of[root], ticker)


def iterative_dominator_indices(
    cfg: CFG, ticker: Optional[Ticker] = None, reverse: bool = False
) -> List[int]:
    """The iterative kernel's idom array over the shared snapshot.

    Forward from ``start``, or with ``reverse=True`` over the reversed rows
    from ``end`` (postdominators); indexed by node index, ``-1`` off the
    tree.  One ``immediate_dominators`` dispatch, charging ``ticker`` as
    :func:`immediate_dominators` does.
    """
    from repro.kernel.dominance import kernel_iterative_dominators
    from repro.kernel.registry import shared_frozen

    frozen = shared_frozen(cfg)
    root = frozen.end if reverse else frozen.start
    return _obs.dispatch(
        "immediate_dominators", "kernel", cfg,
        kernel_iterative_dominators, frozen, root, ticker, reverse,
    )


def edge_dominance(cfg: CFG, ticker: Optional[Ticker] = None) -> "EdgeDominance":
    """Edge dominance and postdominance queries for ``cfg``.

    Runs the iterative kernel twice (:func:`iterative_dominator_indices`,
    forward and reversed) and answers Definition 2's edge questions from
    those two node trees (:class:`~repro.kernel.dominance.EdgeDominance`),
    with no edge-split copy of the graph.  ``cfg`` must satisfy
    Definition 1.
    """
    from repro.kernel.dominance import EdgeDominance
    from repro.kernel.registry import shared_frozen

    return EdgeDominance(
        shared_frozen(cfg),
        iterative_dominator_indices(cfg, ticker),
        iterative_dominator_indices(cfg, ticker, reverse=True),
    )


def immediate_dominators_reference(
    cfg: CFG, root: Optional[NodeId] = None, ticker: Optional[Ticker] = None
) -> Dict[NodeId, NodeId]:
    """Object-graph reference for :func:`immediate_dominators` (same contract)."""
    root = require_root(cfg, cfg.start if root is None else root, "dominator computation")
    return _obs.dispatch(
        "immediate_dominators", "reference", cfg, _immediate_dominators, cfg, root, ticker
    )


def _immediate_dominators(
    cfg: CFG, root: NodeId, ticker: Optional[Ticker]
) -> Dict[NodeId, NodeId]:
    tick = None if ticker is None else ticker.tick
    order = reverse_postorder(cfg, root)
    postorder_num = {node: len(order) - 1 - i for i, node in enumerate(order)}
    reachable = set(order)

    idom: Dict[NodeId, NodeId] = {root: root}

    def intersect(a: NodeId, b: NodeId) -> NodeId:
        while a != b:
            while postorder_num[a] < postorder_num[b]:
                a = idom[a]
            while postorder_num[b] < postorder_num[a]:
                b = idom[b]
        return a

    changed = True
    while changed:
        changed = False
        if tick is not None:
            tick(len(order))  # the sweep we are about to run
        for node in order:
            if node == root:
                continue
            new_idom: Optional[NodeId] = None
            for in_edge in cfg.iter_in_edges(node):
                pred = in_edge.source
                if pred not in reachable or pred not in idom:
                    continue
                new_idom = pred if new_idom is None else intersect(pred, new_idom)
            if new_idom is None:
                continue  # no processed predecessor yet (can't happen after pass 1)
            if idom.get(node) != new_idom:
                idom[node] = new_idom
                changed = True
    return idom


def dominates(idom: Dict[NodeId, NodeId], a: NodeId, b: NodeId) -> bool:
    """True iff ``a`` dominates ``b`` under the given idom mapping.

    Walks the dominator-tree path from ``b`` to the root; O(depth).  For
    repeated queries prefer :class:`repro.dominance.tree.DominatorTree`.
    """
    node = b
    while True:
        if node == a:
            return True
        parent = idom.get(node)
        if parent is None or parent == node:
            return False
        node = parent
