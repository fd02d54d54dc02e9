"""Control-flow-graph substrate.

This package provides the multigraph CFG representation used throughout the
library, together with construction helpers, traversals, validation,
T1/T2 reducibility testing, region subgraph extraction, and DOT export.

The representation follows Definition 1 of the paper: a CFG is a directed
multigraph with distinguished ``start`` and ``end`` nodes such that every node
lies on some path from ``start`` to ``end``.
"""

from repro.cfg.graph import CFG, Edge, InvalidCFGError
from repro.cfg.builder import CFGBuilder, cfg_from_edges
from repro.cfg.traversal import (
    dfs_preorder,
    dfs_postorder,
    dfs_edges,
    reverse_postorder,
    reachable_from,
    reaches,
)
from repro.cfg.validate import validate_cfg, check_cfg
from repro.cfg.reducibility import is_reducible
from repro.cfg.subgraph import region_subgraph
from repro.cfg.dot import cfg_to_dot

__all__ = [
    "CFG",
    "Edge",
    "InvalidCFGError",
    "CFGBuilder",
    "cfg_from_edges",
    "dfs_preorder",
    "dfs_postorder",
    "dfs_edges",
    "reverse_postorder",
    "reachable_from",
    "reaches",
    "validate_cfg",
    "check_cfg",
    "is_reducible",
    "region_subgraph",
    "cfg_to_dot",
]
