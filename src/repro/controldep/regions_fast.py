"""Control regions in O(E) time (§5, Theorems 7 & 8).

Theorem 7: nodes ``a`` and ``b`` of a CFG have the same control-dependence
set iff they are *node cycle equivalent* in ``S = G + (end -> start)``.

Theorem 8: node cycle equivalence in a strongly connected graph reduces to
*edge* cycle equivalence of representative edges in the node-expanded graph
``T(S)``, where every node ``n`` becomes ``n_i -> n_o`` and every edge
``n -> m`` becomes ``n_o -> m_i``.

Composing the two with the Figure 4 algorithm yields control regions in
linear time -- previous algorithms were O(EN) (CFS90) or restricted to
reducible graphs (Ball).  The paper notes that ``T(S)`` need not be built.
The kernel builds only the part that matters: a node with one in-edge or
one out-edge in ``S`` lies on exactly that edge's cycles, so only nodes
with several of each are split (``S'``, see
:func:`~repro.kernel.cycle_equiv.kernel_control_region_classes`).  When no
node needs a split (every lowered procedure and most real graphs),
``S' = S``, and given the cycle equivalence the PST was built from, the
node classes are read off it with no second Figure 4 pass.

Whether this beats dominator computation depends on that path
(``benchmarks/results/p2_control_regions.txt``, three runs at 4,783
nodes on a 2-CPU host): the standalone call, which runs its own Figure 4
pass, took 11.9-15.0 ms against 8.8-13.0 ms for Lengauer-Tarjan, about
as fast, not faster; given the PST's classes it took 3.0-4.8 ms, 0.23 to
0.55 of Lengauer-Tarjan.  Either way it is 14-19x faster than the CFS90
refinement at that size.  :func:`control_regions_reference` keeps the
full ``T(S)`` as the oracle.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.cfg.graph import CFG, Edge, InvalidCFGError, NodeId
from repro.cfg.validate import validate_cfg
from repro.core.cycle_equiv import CycleEquivalence, cycle_equivalence_scc
from repro.kernel.cycle_equiv import kernel_control_region_classes
from repro.kernel.registry import shared_frozen
from repro.obs import observer as _obs
from repro.resilience.guards import Ticker


def node_expand(graph: CFG) -> Tuple[CFG, Dict[NodeId, Edge]]:
    """The node-expansion transformation T (Definition 9).

    Returns ``(expanded, representative)`` where ``representative[n]`` is the
    edge ``n_i -> n_o`` standing for node ``n``.
    """
    expanded = CFG(name=f"{graph.name}.T")
    representative: Dict[NodeId, Edge] = {}
    for node in graph.nodes:
        representative[node] = expanded.add_edge(("i", node), ("o", node))
    for edge in graph.edges:
        expanded.add_edge(("o", edge.source), ("i", edge.target), edge.label)
    return expanded, representative


def node_cycle_equivalence(graph: CFG, root: Optional[NodeId] = None) -> Dict[NodeId, int]:
    """Node cycle-equivalence classes of a strongly connected graph.

    Implemented per Theorem 8: edge cycle equivalence of representative
    edges in the node-expanded graph.
    """
    expanded, representative = node_expand(graph)
    root = graph.nodes[0] if root is None else root
    equiv = cycle_equivalence_scc(expanded, root=("i", root))
    return {node: equiv.class_of[rep] for node, rep in representative.items()}


def control_regions(
    cfg: CFG,
    validate: bool = True,
    ticker: Optional[Ticker] = None,
    equiv: Optional[CycleEquivalence] = None,
) -> List[List[NodeId]]:
    """Control regions of ``cfg`` in O(E) time (the paper's algorithm).

    Nodes in the same returned group have identical control-dependence sets.
    Groups and their members are sorted for deterministic comparison with
    :func:`repro.controldep.fow.control_regions_by_definition`.

    Runs the array kernel
    (:func:`repro.kernel.cycle_equiv.kernel_control_region_classes`), which
    splits only the nodes with several in-edges and several out-edges and
    never builds ``T(S)``.  ``equiv`` may carry the cycle equivalence of
    ``S`` already computed for this graph (the PST's); it is used only when
    its ``positional`` classes and ``return_class`` were computed on the
    current snapshot (its ``version`` is the graph's), and then a graph
    with no node to split needs no Figure 4 pass at all.
    :func:`control_regions_reference` is the retained object-graph path
    over ``T(S)``.
    """
    return _obs.dispatch(
        "control_regions", "kernel", cfg, _control_regions, cfg, validate, ticker, equiv
    )


def _control_regions(
    cfg: CFG,
    validate: bool,
    ticker: Optional[Ticker],
    equiv: Optional[CycleEquivalence],
) -> List[List[NodeId]]:
    if validate:
        validate_cfg(cfg)
    frozen = shared_frozen(cfg)
    if cfg.start is None or cfg.end is None:
        raise InvalidCFGError("CFG must have start and end nodes set")
    if equiv is not None and equiv.version == frozen.version:
        classes = kernel_control_region_classes(
            frozen, ticker, equiv.positional, equiv.return_class
        )
    else:
        classes = kernel_control_region_classes(frozen, ticker)
    buckets: Dict[int, List[NodeId]] = {}
    node_ids = frozen.node_ids
    for i, cls in enumerate(classes):
        buckets.setdefault(cls, []).append(node_ids[i])
    regions = [sorted(nodes, key=repr) for nodes in buckets.values()]
    regions.sort(key=repr)
    return regions


def control_regions_reference(cfg: CFG, validate: bool = True) -> List[List[NodeId]]:
    """Object-graph reference for :func:`control_regions` (same contract).

    Materializes the augmented graph and its node expansion ``T(S)``
    explicitly; kept as the oracle the kernel path is fuzzed against.
    """
    return _obs.dispatch(
        "control_regions", "reference", cfg, _control_regions_reference, cfg, validate
    )


def _control_regions_reference(cfg: CFG, validate: bool) -> List[List[NodeId]]:
    if validate:
        validate_cfg(cfg)
    augmented, _ = cfg.with_return_edge()
    classes = node_cycle_equivalence(augmented, root=cfg.start)
    buckets: Dict[int, List[NodeId]] = {}
    for node, cls in classes.items():
        buckets.setdefault(cls, []).append(node)
    regions = [sorted(nodes, key=repr) for nodes in buckets.values()]
    regions.sort(key=repr)
    return regions
