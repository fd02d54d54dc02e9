"""Frozen CSR snapshots of control-flow graphs.

A :class:`FrozenCFG` maps the object multigraph onto flat integer arrays:

* nodes are densely numbered ``0 .. n-1`` in the CFG's insertion order
  (``node_ids[i]`` recovers the original id, ``index_of`` the inverse);
* edges are numbered ``0 .. m-1`` *positionally* -- edge index ``e``
  corresponds to ``cfg.edges[e]``.  Positions, not ``eid``\\ s, because a
  graph that had edges removed has id gaps, and every consumer (the slow
  references included) already identifies edges positionally;
* ``succ_off``/``succ_edge`` form a CSR row per node over out-edge indices
  in adjacency insertion order, so kernel DFS orders match the object
  traversals; ``pred_off``/``pred_edge`` are the same for in-edges and
  double as the reverse graph (no ``cfg.reversed()`` copy needed).

Snapshots are immutable and carry the CFG's mutation ``version`` so
staleness is detectable (:meth:`FrozenCFG.is_stale`); parallel edges and
self-loops survive the encoding unchanged (two parallel edges are two
distinct edge indices with equal endpoints).
"""

from __future__ import annotations

import weakref
from typing import Dict, List, Optional, Tuple

from repro.cfg.graph import CFG, Edge, NodeId


class FrozenCFG:
    """An immutable int-indexed CSR view of a :class:`~repro.cfg.graph.CFG`.

    Construct via :func:`freeze`.  All arrays are plain Python lists of
    ints, which the interpreted kernels index faster than object graphs
    (no Edge attribute loads, no NodeId hashing in inner loops).
    """

    __slots__ = (
        "_cfg_ref",
        "version",
        "num_nodes",
        "num_edges",
        "node_ids",
        "index_of",
        "start",
        "end",
        "edge_src",
        "edge_dst",
        "succ_off",
        "succ_edge",
        "succ_dst",
        "pred_off",
        "pred_edge",
        "pred_src",
        "self_loops",
        "validated",
        "undirected",
        "__weakref__",
    )

    def __init__(
        self,
        cfg: CFG,
        version: int,
        node_ids: List[NodeId],
        index_of: Dict[NodeId, int],
        start: int,
        end: int,
        edge_src: List[int],
        edge_dst: List[int],
        succ_off: List[int],
        succ_edge: List[int],
        succ_dst: List[int],
        pred_off: List[int],
        pred_edge: List[int],
        pred_src: List[int],
        self_loops: List[int],
    ):
        # Weak, not strong: the graph keeps its shared snapshot
        # (``cfg._frozen``), and a strong back-reference would make the pair
        # a cycle that only the cyclic collector frees.  Held weakly,
        # reference counting frees the graph and its snapshot together.
        # Every consumer that walks back to the object graph holds the CFG.
        self._cfg_ref = weakref.ref(cfg)
        self.version = version
        self.num_nodes = len(node_ids)
        self.num_edges = len(edge_src)
        self.node_ids = node_ids
        self.index_of = index_of
        self.start = start
        self.end = end
        self.edge_src = edge_src
        self.edge_dst = edge_dst
        self.succ_off = succ_off
        self.succ_edge = succ_edge
        self.succ_dst = succ_dst
        self.pred_off = pred_off
        self.pred_edge = pred_edge
        self.pred_src = pred_src
        self.self_loops = self_loops
        # Set (never cleared) once Definition 1 validation has passed for
        # this snapshot, so repeat analyses of an unchanged CFG skip the
        # O(V + E) reachability probes.  Purely a cache: a new version
        # means a new snapshot, which starts unvalidated.
        self.validated = False
        # Undirected-multigraph CSR views, built lazily by the cycle-
        # equivalence kernel and keyed by the virtual-edge tuple.  Like the
        # snapshot itself these are structural and read-only.
        self.undirected: Dict[tuple, tuple] = {}

    @property
    def cfg(self) -> CFG:
        """The source CFG (held weakly; raises once the graph is dead)."""
        cfg = self._cfg_ref()
        if cfg is None:
            raise ReferenceError(
                "the CFG behind this FrozenCFG has been garbage collected"
            )
        return cfg

    def is_stale(self) -> bool:
        """True iff the source CFG has been mutated since the freeze."""
        return self.cfg.version != self.version

    def edges(self) -> List[Edge]:
        """The source CFG's edge list; index ``e`` is edge index ``e``."""
        return self.cfg.edges

    def out_edge_indices(self, node: int) -> List[int]:
        """Edge indices leaving node index ``node`` (adjacency order)."""
        return self.succ_edge[self.succ_off[node]:self.succ_off[node + 1]]

    def in_edge_indices(self, node: int) -> List[int]:
        """Edge indices entering node index ``node`` (adjacency order)."""
        return self.pred_edge[self.pred_off[node]:self.pred_off[node + 1]]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        stale = " STALE" if self.is_stale() else ""
        return (
            f"FrozenCFG({self.cfg.name!r}, |V|={self.num_nodes}, "
            f"|E|={self.num_edges}{stale})"
        )


def freeze(cfg: CFG) -> FrozenCFG:
    """Snapshot ``cfg`` into a :class:`FrozenCFG` in O(V + E).

    The snapshot is purely structural: it never runs Definition 1
    validation (degenerate graphs freeze fine) and captures nothing about
    labels -- consumers that need labels go back through ``cfg.edges``
    positionally.
    """
    version = cfg.version
    node_ids: List[NodeId] = cfg.nodes
    index_of: Dict[NodeId, int] = {node: i for i, node in enumerate(node_ids)}
    n = len(node_ids)
    edges = cfg.edges
    m = len(edges)

    edge_src: List[int] = [0] * m
    edge_dst: List[int] = [0] * m
    out_deg = [0] * n
    in_deg = [0] * n
    self_loops: List[int] = []
    for e, edge in enumerate(edges):
        s = index_of[edge.source]
        t = index_of[edge.target]
        edge_src[e] = s
        edge_dst[e] = t
        out_deg[s] += 1
        in_deg[t] += 1
        if s == t:
            self_loops.append(e)

    succ_off = [0] * (n + 1)
    pred_off = [0] * (n + 1)
    for i in range(n):
        succ_off[i + 1] = succ_off[i] + out_deg[i]
        pred_off[i + 1] = pred_off[i] + in_deg[i]

    succ_edge = [0] * m
    pred_edge = [0] * m
    succ_fill = succ_off[:n]
    pred_fill = pred_off[:n]
    # Edge order within a row must be adjacency insertion order.  Iterating
    # cfg.edges gives exactly that: add_edge appends to both the global edge
    # list and the per-node adjacency lists in the same call.
    for e in range(m):
        s = edge_src[e]
        t = edge_dst[e]
        succ_edge[succ_fill[s]] = e
        succ_fill[s] += 1
        pred_edge[pred_fill[t]] = e
        pred_fill[t] += 1
    # Flat neighbor arrays in the same row order, so kernels can walk
    # successors/predecessors with a single index per step.
    succ_dst = [edge_dst[e] for e in succ_edge]
    pred_src = [edge_src[e] for e in pred_edge]

    start = index_of[cfg.start] if cfg.start is not None and cfg.start in index_of else -1
    end = index_of[cfg.end] if cfg.end is not None and cfg.end in index_of else -1
    return FrozenCFG(
        cfg,
        version,
        node_ids,
        index_of,
        start,
        end,
        edge_src,
        edge_dst,
        succ_off,
        succ_edge,
        succ_dst,
        pred_off,
        pred_edge,
        pred_src,
        self_loops,
    )
