"""The Lengauer-Tarjan immediate-dominator algorithm ([LT79]).

This is the "simple" variant with path compression (O(E log V)); it is the
algorithm the paper uses as its performance yardstick ("our empirical results
show that [cycle equivalence] runs faster than Lengauer and Tarjan's
algorithm for finding dominators").  The benchmark harness
``benchmarks/bench_perf_cyclequiv_vs_lt.py`` reproduces that comparison.

The implementation is fully iterative (DFS and path compression both use
explicit stacks) so it handles the deep worst-case graphs in the benchmark
suite, and it tolerates multigraphs (parallel edges simply contribute
duplicate predecessor entries, which is harmless).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.cfg.graph import CFG, NodeId
from repro.cfg.validate import require_root
from repro.kernel.dominance import kernel_lengauer_tarjan
from repro.kernel.registry import shared_frozen
from repro.obs import observer as _obs
from repro.resilience.guards import Ticker

# Fault-injection hook (repro.resilience.faults installs/clears a plan here;
# see site "lengauer-tarjan/semi-skew").  Always None in production.
_FAULTS = None


def lengauer_tarjan(
    cfg: CFG, root: Optional[NodeId] = None, ticker: Optional[Ticker] = None
) -> Dict[NodeId, NodeId]:
    """Immediate dominators of nodes reachable from ``root``.

    Same contract as :func:`repro.dominance.iterative.immediate_dominators`:
    ``idom[root] == root``, unreachable nodes omitted; degenerate CFGs are
    accepted but a missing root raises
    :class:`~repro.cfg.graph.InvalidCFGError`.  ``ticker`` is charged one
    step per node per phase (DFS numbering -- billed double, standing in for
    the reachability probe the array kernel no longer needs -- and
    semidominators), billed in one bulk ``tick`` at each phase boundary.

    Runs the array kernel
    (:func:`repro.kernel.dominance.kernel_lengauer_tarjan`) over the shared
    frozen snapshot; :func:`lengauer_tarjan_reference` is the retained
    object-graph implementation the fuzz oracles compare against.
    """
    root = require_root(cfg, cfg.start if root is None else root, "Lengauer-Tarjan")
    return _obs.dispatch(
        "lengauer_tarjan", "kernel", cfg, _lengauer_tarjan, cfg, root, ticker
    )


def _lengauer_tarjan(
    cfg: CFG, root: NodeId, ticker: Optional[Ticker]
) -> Dict[NodeId, NodeId]:
    frozen = shared_frozen(cfg)
    idom = kernel_lengauer_tarjan(frozen, frozen.index_of[root], ticker)
    node_ids = frozen.node_ids
    return {
        node_ids[i]: node_ids[idom[i]]
        for i in range(frozen.num_nodes)
        if idom[i] != -1
    }


def lengauer_tarjan_reference(
    cfg: CFG, root: Optional[NodeId] = None, ticker: Optional[Ticker] = None
) -> Dict[NodeId, NodeId]:
    """Object-graph reference for :func:`lengauer_tarjan` (same contract).

    Billing differs only in shape: a separate reachability probe precedes
    the DFS numbering, charged in the same ``tick(2n)``.
    """
    root = require_root(cfg, cfg.start if root is None else root, "Lengauer-Tarjan")
    return _obs.dispatch(
        "lengauer_tarjan", "reference", cfg, _lengauer_tarjan_reference, cfg, root, ticker
    )


def _lengauer_tarjan_reference(
    cfg: CFG, root: NodeId, ticker: Optional[Ticker]
) -> Dict[NodeId, NodeId]:
    tick = None if ticker is None else ticker.tick

    # --- step 1: DFS numbering (1-based; 0 is a sentinel) -----------------
    num: Dict[NodeId, int] = {}
    n = 0
    # First pass just counts reachable nodes so arrays can be preallocated.
    probe: List[NodeId] = [root]
    reached = {root}
    while probe:
        node = probe.pop()
        n += 1
        for out_edge in cfg.iter_out_edges(node):
            nxt = out_edge.target
            if nxt not in reached:
                reached.add(nxt)
                probe.append(nxt)
    if tick is not None:
        tick(2 * n)  # the probe just done, plus the DFS numbering to come

    vertex: List[Optional[NodeId]] = [None] * (n + 1)
    parent = [0] * (n + 1)
    dfs_stack: List[tuple] = [(root, 0)]
    counter = 0
    while dfs_stack:
        node, par = dfs_stack.pop()
        if node in num:
            continue
        counter += 1
        num[node] = counter
        vertex[counter] = node
        parent[counter] = par
        for edge in reversed(cfg.iter_out_edges(node)):
            if edge.target not in num:
                dfs_stack.append((edge.target, counter))

    # --- forest for EVAL/LINK with path compression -----------------------
    semi = list(range(n + 1))
    ancestor = [0] * (n + 1)
    label = list(range(n + 1))
    idom_num = [0] * (n + 1)
    buckets: List[List[int]] = [[] for _ in range(n + 1)]

    def compress(v: int) -> None:
        path: List[int] = []
        while ancestor[ancestor[v]] != 0:
            path.append(v)
            v = ancestor[v]
        for u in reversed(path):
            anc = ancestor[u]
            if semi[label[anc]] < semi[label[u]]:
                label[u] = label[anc]
            ancestor[u] = ancestor[anc]

    def evaluate(v: int) -> int:
        if ancestor[v] == 0:
            return v
        compress(v)
        return label[v]

    # --- steps 2 & 3: semidominators and implicit idoms -------------------
    if tick is not None and n > 1:
        tick(n - 1)  # the semidominator sweep about to run
    for w in range(n, 1, -1):
        node = vertex[w]
        for in_edge in cfg.iter_in_edges(node):
            v = num.get(in_edge.source)
            if v is None:
                continue  # unreachable predecessor
            u = evaluate(v)
            if semi[u] < semi[w]:
                semi[w] = semi[u]
        if _FAULTS is not None and semi[w] > 1 and _FAULTS.should_fire(
            "lengauer-tarjan/semi-skew"
        ):
            semi[w] -= 1  # injected fault: off-by-one semidominator
        buckets[semi[w]].append(w)
        ancestor[w] = parent[w]
        p = parent[w]
        for v in buckets[p]:
            u = evaluate(v)
            idom_num[v] = u if semi[u] < semi[v] else p
        buckets[p] = []

    # --- step 4: explicit idoms -------------------------------------------
    for w in range(2, n + 1):
        if idom_num[w] != semi[w]:
            idom_num[w] = idom_num[idom_num[w]]
    idom_num[1] = 1

    return {vertex[w]: vertex[idom_num[w]] for w in range(1, n + 1)}
