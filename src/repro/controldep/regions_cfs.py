"""The Cytron-Ferrante-Sarkar O(EN) control-region baseline ([CFS90]).

CFS90 computes control-dependence equivalence classes by *partition
refinement*: all nodes start in one class, and for every control dependence
``(c, l)`` the partition is split by the set of nodes dependent on ``(c, l)``.
Worst case O(N) work per control dependence and O(E) dependences gives
O(EN); the paper's contribution is replacing this with the O(E)
cycle-equivalence reduction.

This baseline exists for three purposes: as a third independent
implementation of the same partition (cross-checked in the test suite), as
the resilience engine's slow control-regions rung, and as the comparison
point of ``benchmarks/bench_perf_control_regions.py``.
"""

from __future__ import annotations

from typing import Dict, List

from repro.cfg.graph import CFG, NodeId
from repro.cfg.validate import validate_cfg
from repro.controldep.fow import dependents_of_edge, dependents_of_return_edge
from repro.dominance.tree import postdominator_tree


def control_regions_cfs(cfg: CFG) -> List[List[NodeId]]:
    """Control regions by partition refinement (CFS90 style).

    Like the other algorithms, this works on the augmented graph: the
    ``end -> start`` edge's dependence set (the always-executed nodes)
    participates in the refinement.  Degenerate graphs raise
    :class:`~repro.cfg.graph.InvalidCFGError`, matching the other two
    control-region implementations.
    """
    validate_cfg(cfg)
    pdtree = postdominator_tree(cfg)

    # partition: class id per node, classes as node lists
    class_of: Dict[NodeId, int] = {node: 0 for node in cfg.nodes}
    members: Dict[int, List[NodeId]] = {0: list(cfg.nodes)}
    next_class = 1

    dependence_sets = [set(dependents_of_edge(cfg, pdtree, edge)) for edge in cfg.edges]
    dependence_sets.append(set(dependents_of_return_edge(cfg, pdtree)))
    for dependents in dependence_sets:
        if not dependents:
            continue
        # Split every class into (inside, outside) w.r.t. this dependence.
        touched: Dict[int, List[NodeId]] = {}
        for node in dependents:
            touched.setdefault(class_of[node], []).append(node)
        for cls, inside in touched.items():
            if len(inside) == len(members[cls]):
                continue  # class entirely inside; no split
            # Move the inside nodes to a fresh class.
            inside_set = set(inside)
            members[cls] = [n for n in members[cls] if n not in inside_set]
            members[next_class] = inside
            for node in inside:
                class_of[node] = next_class
            next_class += 1

    regions = [sorted(nodes, key=repr) for nodes in members.values() if nodes]
    regions.sort(key=repr)
    return regions
