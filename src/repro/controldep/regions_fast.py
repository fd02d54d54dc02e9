"""Control regions in O(E) time (§5, Theorems 7 & 8).

Theorem 7: nodes ``a`` and ``b`` of a CFG have the same control-dependence
set iff they are *node cycle equivalent* in ``S = G + (end -> start)``.

Theorem 8: node cycle equivalence in a strongly connected graph reduces to
*edge* cycle equivalence of representative edges in the node-expanded graph
``T(S)``, where every node ``n`` becomes ``n_i -> n_o`` and every edge
``n -> m`` becomes ``n_o -> m_i``.

Composing the two with the Figure 4 algorithm yields control regions in
linear time -- previous algorithms were O(EN) (CFS90) or restricted to
reducible graphs (Ball).  The paper notes an implementation that avoids
materializing ``T(S)``; we build it explicitly for clarity (it is linear in
size: ``2N`` nodes and ``N + E`` edges).  The computation stays linear, but
here it does not undercut dominator computation: at 4,783 nodes
(``benchmarks/results/p2_control_regions.txt``) it takes 23.4 ms, 8.4x
faster than the CFS90 refinement and 2.7x slower than Lengauer-Tarjan.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.cfg.graph import CFG, Edge, InvalidCFGError, NodeId
from repro.cfg.validate import validate_cfg
from repro.core.cycle_equiv import cycle_equivalence_scc
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
    cfg: CFG, validate: bool = True, ticker: Optional[Ticker] = None
) -> List[List[NodeId]]:
    """Control regions of ``cfg`` in O(E) time (the paper's algorithm).

    Nodes in the same returned group have identical control-dependence sets.
    Groups and their members are sorted for deterministic comparison with
    :func:`repro.controldep.fow.control_regions_by_definition`.

    Runs the array kernel
    (:func:`repro.kernel.cycle_equiv.kernel_control_region_classes`), which
    builds the node expansion directly in CSR form -- the implementation the
    paper alludes to that never materializes ``T(S)`` as a graph.
    :func:`control_regions_reference` is the retained object-graph path.
    """
    return _obs.dispatch(
        "control_regions", "kernel", cfg, _control_regions, cfg, validate, ticker
    )


def _control_regions(
    cfg: CFG, validate: bool, ticker: Optional[Ticker]
) -> List[List[NodeId]]:
    frozen = shared_frozen(cfg)
    if validate and not frozen.validated:
        validate_cfg(cfg)
        frozen.validated = True
    if cfg.start is None or cfg.end is None:
        raise InvalidCFGError("CFG must have start and end nodes set")
    classes = kernel_control_region_classes(frozen, ticker=ticker)
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
