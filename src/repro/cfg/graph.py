"""Core control-flow-graph data structures.

A :class:`CFG` is a directed *multigraph*: parallel edges and self-loops are
legal and occur naturally in block-level CFGs (e.g. a conditional whose two
arms both branch to the same block produces parallel edges; a single-block
loop produces a self-loop).  Because of this, edges are first-class objects
with identity (:class:`Edge`), not bare pairs.

Nodes are arbitrary hashable values (typically strings or ints).  The two
distinguished nodes ``start`` and ``end`` follow Definition 1 of the paper:
``start`` has no predecessors, ``end`` has no successors, and every node lies
on some path from ``start`` to ``end``.  These invariants are *checked* by
:func:`repro.cfg.validate.validate_cfg`, not silently enforced, so partially
built graphs can exist during construction.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, Iterable, Iterator, List, Optional, Tuple

from repro.errors import ReproError

NodeId = Hashable


class InvalidCFGError(ReproError, ValueError):
    """Raised when a graph violates the CFG invariants of Definition 1.

    Part of the :mod:`repro.errors` taxonomy (rooted at
    :class:`~repro.errors.ReproError`); the ``ValueError`` base is kept for
    backward compatibility with callers that predate the taxonomy.
    """


class Edge:
    """A directed control-flow edge with identity.

    Two edges with the same endpoints are distinct objects; equality and
    hashing are by identity (``eid``), which is what makes parallel edges
    representable.  ``label`` is an optional annotation (e.g. the branch
    direction ``"T"``/``"F"`` of a conditional), used by control-dependence
    computations and DOT export.
    """

    __slots__ = ("eid", "source", "target", "label")

    def __init__(self, eid: int, source: NodeId, target: NodeId, label: Optional[str] = None):
        self.eid = eid
        self.source = source
        self.target = target
        self.label = label

    @property
    def is_self_loop(self) -> bool:
        return self.source == self.target

    @property
    def pair(self) -> Tuple[NodeId, NodeId]:
        """The (source, target) endpoints as a tuple."""
        return (self.source, self.target)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        lbl = f", label={self.label!r}" if self.label is not None else ""
        return f"Edge(#{self.eid} {self.source!r}->{self.target!r}{lbl})"

    # Equality and hashing are identity-based (the default), which is both
    # the intended semantics (parallel edges are distinct) and much faster
    # than a Python-level __hash__ in the dict-heavy algorithms.

    def __lt__(self, other: "Edge") -> bool:
        return self.eid < other.eid


class CFG:
    """A directed control-flow multigraph with distinguished start/end nodes.

    The graph keeps insertion-ordered adjacency lists so that traversals are
    deterministic, which the PST construction relies on (two DFS passes must
    visit edges in the same order).
    """

    def __init__(self, start: Optional[NodeId] = None, end: Optional[NodeId] = None, name: str = "cfg"):
        self.name = name
        self.start = start
        self.end = end
        self._succs: Dict[NodeId, List[Edge]] = {}
        self._preds: Dict[NodeId, List[Edge]] = {}
        self._edges: List[Edge] = []
        self._next_eid = 0
        self._version = 0
        # The graph's shared AnalysisSession (repro.kernel.session_for).
        # Kept here, not in a registry keyed by the graph, so the pair is
        # one reference cycle that the collector frees with the graph.
        self._session = None
        if start is not None:
            self.add_node(start)
        if end is not None and end != start:
            self.add_node(end)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_node(self, node: NodeId) -> NodeId:
        """Add ``node`` if not present; returns the node id."""
        if node not in self._succs:
            self._succs[node] = []
            self._preds[node] = []
            self._version += 1
        return node

    def add_edge(self, source: NodeId, target: NodeId, label: Optional[str] = None) -> Edge:
        """Add a new directed edge; parallel edges and self-loops allowed."""
        self.add_node(source)
        self.add_node(target)
        edge = Edge(self._next_eid, source, target, label)
        self._next_eid += 1
        self._edges.append(edge)
        self._succs[source].append(edge)
        self._preds[target].append(edge)
        self._version += 1
        return edge

    def remove_edge(self, edge: Edge) -> None:
        """Remove ``edge`` from the graph.  O(degree)."""
        self._succs[edge.source].remove(edge)
        self._preds[edge.target].remove(edge)
        self._edges.remove(edge)
        self._version += 1

    def remove_node(self, node: NodeId) -> None:
        """Remove ``node`` and all incident edges."""
        for edge in list(self._succs[node]):
            self.remove_edge(edge)
        for edge in list(self._preds[node]):
            if edge in self._edges:  # self-loops already removed above
                self.remove_edge(edge)
        del self._succs[node]
        del self._preds[node]
        self._version += 1

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def nodes(self) -> List[NodeId]:
        return list(self._succs.keys())

    @property
    def edges(self) -> List[Edge]:
        return list(self._edges)

    @property
    def num_nodes(self) -> int:
        return len(self._succs)

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    def has_node(self, node: NodeId) -> bool:
        return node in self._succs

    def out_edges(self, node: NodeId) -> List[Edge]:
        return list(self._succs[node])

    def in_edges(self, node: NodeId) -> List[Edge]:
        return list(self._preds[node])

    def iter_out_edges(self, node: NodeId) -> Iterable[Edge]:
        """The out-edge list of ``node`` without the defensive copy.

        The returned sequence is the live adjacency list: callers must not
        mutate the graph while iterating it.  Inner loops of the analyses
        use this instead of :meth:`out_edges` to avoid an O(degree)
        allocation per visit.
        """
        return self._succs[node]

    def iter_in_edges(self, node: NodeId) -> Iterable[Edge]:
        """The in-edge list of ``node`` without the defensive copy (live)."""
        return self._preds[node]

    def successors(self, node: NodeId) -> List[NodeId]:
        return [e.target for e in self._succs[node]]

    def predecessors(self, node: NodeId) -> List[NodeId]:
        return [e.source for e in self._preds[node]]

    @property
    def version(self) -> int:
        """A counter bumped on every mutation.

        Snapshots (:class:`repro.kernel.csr.FrozenCFG`) record it to detect
        staleness: a frozen view is valid iff the graph's version still
        equals the one captured at freeze time.
        """
        return self._version

    def out_degree(self, node: NodeId) -> int:
        return len(self._succs[node])

    def in_degree(self, node: NodeId) -> int:
        return len(self._preds[node])

    def find_edges(self, source: NodeId, target: NodeId) -> List[Edge]:
        """All edges from ``source`` to ``target`` (may be several)."""
        return [e for e in self._succs.get(source, []) if e.target == target]

    def edge(self, source: NodeId, target: NodeId) -> Edge:
        """The unique edge from ``source`` to ``target``.

        Raises :class:`KeyError` if there is no such edge or it is ambiguous.
        """
        found = self.find_edges(source, target)
        if len(found) != 1:
            raise KeyError(f"expected exactly one edge {source!r}->{target!r}, found {len(found)}")
        return found[0]

    def __contains__(self, node: NodeId) -> bool:
        return node in self._succs

    def __iter__(self) -> Iterator[NodeId]:
        return iter(self._succs)

    def __len__(self) -> int:
        return len(self._succs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CFG({self.name!r}, |V|={self.num_nodes}, |E|={self.num_edges})"

    # ------------------------------------------------------------------
    # derived graphs
    # ------------------------------------------------------------------
    def copy(self, name: Optional[str] = None) -> "CFG":
        """A structural copy; new Edge objects, same node ids and edge order."""
        out = CFG(name=name or self.name)
        out.start = self.start
        out.end = self.end
        for node in self._succs:
            out.add_node(node)
        for edge in self._edges:
            out.add_edge(edge.source, edge.target, edge.label)
        return out

    def reversed(self, name: Optional[str] = None) -> "CFG":
        """The reverse CFG: every edge flipped, start and end exchanged.

        Used for postdominance: postdominators of G are dominators of
        ``G.reversed()``.
        """
        out = CFG(name=name or f"{self.name}.rev")
        out.start = self.end
        out.end = self.start
        for node in self._succs:
            out.add_node(node)
        for edge in self._edges:
            out.add_edge(edge.target, edge.source, edge.label)
        return out

    def edge_split(self, name: Optional[str] = None) -> Tuple["CFG", Dict[Edge, NodeId]]:
        """Split every edge by a fresh node; return (graph, edge -> split node).

        Used to lift node-dominance queries to *edge* dominance: edge ``a``
        dominates edge ``b`` in G iff the split node of ``a`` dominates the
        split node of ``b`` in the edge-split graph.
        """
        out = CFG(name=name or f"{self.name}.split")
        out.start = self.start
        out.end = self.end
        for node in self._succs:
            out.add_node(node)
        mapping: Dict[Edge, NodeId] = {}
        for edge in self._edges:
            mid = ("edge", edge.eid)
            mapping[edge] = mid
            out.add_edge(edge.source, mid, edge.label)
            out.add_edge(mid, edge.target)
        return out, mapping

    def with_return_edge(self) -> Tuple["CFG", Edge]:
        """A copy of G with the cycle-equivalence augmentation edge.

        Returns ``(S, back)`` where ``S = G + (end -> start)`` and ``back`` is
        the added edge.  Per Theorem 2, edges a and b of G enclose a SESE
        region iff they are cycle equivalent in S.
        """
        if self.start is None or self.end is None:
            raise InvalidCFGError("CFG must have start and end nodes set")
        out = self.copy(name=f"{self.name}+ret")
        back = out.add_edge(self.end, self.start, label="$return$")
        return out, back


def edge_pairs(edges: Iterable[Edge]) -> List[Tuple[Any, Any]]:
    """Convenience: the (source, target) pairs of an edge collection."""
    return [e.pair for e in edges]
