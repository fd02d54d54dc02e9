"""Atomic, validated CFG edit deltas with exact undo.

A :class:`Delta` is a declarative description of one structural edit --
add/remove an edge, add a node with its connecting edges, remove a node
with everything incident -- that :func:`apply_delta_to_cfg` turns into an
all-or-nothing mutation of a live :class:`~repro.cfg.graph.CFG`:

* **static validation first**: a delta that references unknown nodes,
  gives ``end`` a successor, gives ``start`` a predecessor, or names a
  missing/ambiguous edge raises :class:`DeltaValidationError` *before any
  mutation*;
* **an undo log second**: every primitive mutation records its exact
  inverse (including list positions), so :func:`undo_applied` restores the
  graph byte-for-byte -- same ``Edge`` objects, same adjacency order, same
  ``_edges`` order -- which matters because DFS determinism (and therefore
  PST construction) depends on insertion order.

Deltas whose *result* violates Definition 1 (e.g. removing the only path
through a node) pass this layer -- the damage is only visible globally --
and are rejected with a rollback by the maintenance layer on top
(:class:`~repro.incremental.session.EditSession`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.cfg.graph import CFG, Edge, InvalidCFGError, NodeId


class DeltaValidationError(InvalidCFGError):
    """A delta was rejected: malformed, or its result violates Definition 1.

    Subclasses :class:`~repro.cfg.graph.InvalidCFGError`, so it inherits
    the library's structured exit code and existing ``except`` clauses.
    ``problems`` carries the individual violations when the rejection came
    from a full-graph validity check.
    """

    def __init__(self, message: str, problems: Optional[List[str]] = None):
        super().__init__(message)
        self.problems: List[str] = list(problems or [])


# ----------------------------------------------------------------------
# delta types
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class AddEdge:
    """Add one edge between two *existing* nodes (parallel edges legal)."""

    source: NodeId
    target: NodeId
    label: Optional[str] = None
    op = "add_edge"

    def to_json(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"op": self.op, "source": self.source, "target": self.target}
        if self.label is not None:
            out["label"] = self.label
        return out


@dataclass(frozen=True)
class RemoveEdge:
    """Remove one edge; ``eid`` disambiguates parallel edges."""

    source: NodeId
    target: NodeId
    eid: Optional[int] = None
    op = "remove_edge"

    def to_json(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"op": self.op, "source": self.source, "target": self.target}
        if self.eid is not None:
            out["eid"] = self.eid
        return out


@dataclass(frozen=True)
class AddNode:
    """Add a new node plus its connecting edges in one atomic step.

    ``preds``/``succs`` name existing nodes; at least one of each is
    required so the new node lies on a start-to-end path (Definition 1) --
    which makes an ``AddNode`` the only delta that can never invalidate a
    valid graph.
    """

    node: NodeId
    preds: Tuple[NodeId, ...] = ()
    succs: Tuple[NodeId, ...] = ()
    op = "add_node"

    def __post_init__(self) -> None:
        # Normalize any iterable so deltas stay hashable/comparable.
        object.__setattr__(self, "preds", tuple(self.preds))
        object.__setattr__(self, "succs", tuple(self.succs))

    def to_json(self) -> Dict[str, Any]:
        return {
            "op": self.op,
            "node": self.node,
            "preds": list(self.preds),
            "succs": list(self.succs),
        }


@dataclass(frozen=True)
class RemoveNode:
    """Remove a node and every incident edge (never ``start``/``end``)."""

    node: NodeId
    op = "remove_node"

    def to_json(self) -> Dict[str, Any]:
        return {"op": self.op, "node": self.node}


#: Every concrete delta type, keyed by its wire-format ``op``.
DELTA_TYPES = {cls.op: cls for cls in (AddEdge, RemoveEdge, AddNode, RemoveNode)}


def _node_id(value: Any, field_name: str) -> NodeId:
    """``value`` if it can name a node on the wire: a string or an integer."""
    # bool is an int subclass, but JSON true/false names no node.
    if isinstance(value, bool) or not isinstance(value, (str, int)):
        raise DeltaValidationError(
            f"{field_name} must be a string or integer node id, got {value!r}"
        )
    return value


def _node_ids(value: Any, field_name: str) -> Tuple[NodeId, ...]:
    if not isinstance(value, list):
        raise DeltaValidationError(
            f"{field_name} must be a list of node ids, got {type(value).__name__}"
        )
    return tuple(_node_id(item, field_name) for item in value)


def delta_from_json(spec: Any):
    """Decode one delta from its wire format (see each type's ``to_json``).

    Node ids must be strings or integers and ``preds``/``succs`` lists;
    anything else is a :class:`DeltaValidationError`, never a ``TypeError``
    from hashing a list or dict id deeper down.
    """
    if not isinstance(spec, dict):
        raise DeltaValidationError(f"delta must be an object, got {type(spec).__name__}")
    op = spec.get("op")
    if op not in DELTA_TYPES:
        known = ", ".join(sorted(DELTA_TYPES))
        raise DeltaValidationError(f"unknown delta op {op!r} (expected one of: {known})")
    try:
        if op == "add_edge":
            return AddEdge(
                _node_id(spec["source"], "source"),
                _node_id(spec["target"], "target"),
                spec.get("label"),
            )
        if op == "remove_edge":
            eid = spec.get("eid")
            if eid is not None and not isinstance(eid, int):
                raise DeltaValidationError("remove_edge eid must be an integer")
            return RemoveEdge(
                _node_id(spec["source"], "source"),
                _node_id(spec["target"], "target"),
                eid,
            )
        if op == "add_node":
            return AddNode(
                _node_id(spec["node"], "node"),
                _node_ids(spec.get("preds", []), "preds"),
                _node_ids(spec.get("succs", []), "succs"),
            )
        return RemoveNode(_node_id(spec["node"], "node"))
    except KeyError as missing:
        raise DeltaValidationError(f"delta op {op!r} is missing key {missing.args[0]!r}") from None


# ----------------------------------------------------------------------
# application with an exact undo log
# ----------------------------------------------------------------------

@dataclass
class AppliedDelta:
    """One applied delta plus everything needed to reverse or re-analyze it.

    ``undo_ops`` is the primitive-inverse log (replayed in reverse by
    :func:`undo_applied`).  ``touched_nodes`` are the nodes whose incident
    structure changed -- the anchors the incremental maintainer uses to
    locate the smallest enclosing SESE region.
    """

    delta: Any
    undo_ops: List[tuple] = field(default_factory=list)
    touched_nodes: Tuple[NodeId, ...] = ()
    added_edges: Tuple[Edge, ...] = ()
    removed_edges: Tuple[Edge, ...] = ()
    added_nodes: Tuple[NodeId, ...] = ()
    removed_nodes: Tuple[NodeId, ...] = ()

    def inverse_view(self) -> "AppliedDelta":
        """The applied record as seen *after* an undo (adds/removes swapped).

        The maintenance layer re-analyzes an undo exactly like a forward
        delta; only the added/removed bookkeeping flips.
        """
        return AppliedDelta(
            delta=self.delta,
            undo_ops=[],
            touched_nodes=self.touched_nodes,
            added_edges=self.removed_edges,
            removed_edges=self.added_edges,
            added_nodes=self.removed_nodes,
            removed_nodes=self.added_nodes,
        )


def _edge_list_index(edges: List[Edge], edge: Edge) -> int:
    """Index of ``edge`` in ``edges``, exploiting the eid-sorted invariant.

    ``CFG._edges`` is appended with monotonically increasing eids, removals
    preserve order, and undo re-inserts at the recorded index -- so the
    list stays sorted by eid and a binary search finds the position in
    O(log E).  Falls back to a linear scan if the invariant ever breaks
    (e.g. a hand-built graph), trading speed for correctness.
    """
    lo, hi = 0, len(edges)
    eid = edge.eid
    while lo < hi:
        mid = (lo + hi) // 2
        if edges[mid].eid < eid:
            lo = mid + 1
        else:
            hi = mid
    if lo < len(edges) and edges[lo] is edge:
        return lo
    return edges.index(edge)


def _record_add_edge(cfg: CFG, ops: List[tuple], source: NodeId, target: NodeId, label) -> Edge:
    edge = cfg.add_edge(source, target, label)
    ops.append(("pop_edge", edge))
    return edge


def _record_remove_edge(cfg: CFG, ops: List[tuple], edge: Edge) -> None:
    e_idx = _edge_list_index(cfg._edges, edge)
    s_list = cfg._succs[edge.source]
    p_list = cfg._preds[edge.target]
    s_idx = s_list.index(edge)
    p_idx = p_list.index(edge)
    del cfg._edges[e_idx]
    del s_list[s_idx]
    del p_list[p_idx]
    cfg._version += 1
    ops.append(("insert_edge", edge, e_idx, s_idx, p_idx))


def _require_node(cfg: CFG, node: NodeId, role: str) -> None:
    if not cfg.has_node(node):
        raise DeltaValidationError(
            f"{role} {node!r} is not a node of the graph "
            "(use an add_node delta to introduce new nodes)"
        )


def apply_delta_to_cfg(cfg: CFG, delta) -> AppliedDelta:
    """Validate ``delta`` statically, then mutate ``cfg``, logging inverses.

    Raises :class:`DeltaValidationError` with the graph untouched when the
    delta is statically ill-formed.  Whole-graph validity of the *result*
    is the caller's concern (it needs regional or full analysis anyway).
    """
    ops: List[tuple] = []
    if isinstance(delta, AddEdge):
        _require_node(cfg, delta.source, "edge source")
        _require_node(cfg, delta.target, "edge target")
        if delta.source == cfg.end:
            raise DeltaValidationError("end must have no successors (Definition 1)")
        if delta.target == cfg.start:
            raise DeltaValidationError("start must have no predecessors (Definition 1)")
        edge = _record_add_edge(cfg, ops, delta.source, delta.target, delta.label)
        return AppliedDelta(
            delta=delta,
            undo_ops=ops,
            touched_nodes=(delta.source, delta.target),
            added_edges=(edge,),
        )

    if isinstance(delta, RemoveEdge):
        _require_node(cfg, delta.source, "edge source")
        candidates = cfg.find_edges(delta.source, delta.target)
        if delta.eid is not None:
            candidates = [e for e in candidates if e.eid == delta.eid]
        if not candidates:
            raise DeltaValidationError(
                f"no edge {delta.source!r}->{delta.target!r}"
                + (f" with eid {delta.eid}" if delta.eid is not None else "")
            )
        if len(candidates) > 1:
            eids = sorted(e.eid for e in candidates)
            raise DeltaValidationError(
                f"{len(candidates)} parallel edges {delta.source!r}->{delta.target!r} "
                f"(eids {eids}); pass eid to disambiguate"
            )
        edge = candidates[0]
        _record_remove_edge(cfg, ops, edge)
        return AppliedDelta(
            delta=delta,
            undo_ops=ops,
            touched_nodes=(delta.source, delta.target),
            removed_edges=(edge,),
        )

    if isinstance(delta, AddNode):
        if cfg.has_node(delta.node):
            raise DeltaValidationError(f"node {delta.node!r} already exists")
        if not delta.preds or not delta.succs:
            raise DeltaValidationError(
                "a new node needs at least one predecessor and one successor "
                "so it lies on a start-to-end path (Definition 1)"
            )
        for pred in delta.preds:
            _require_node(cfg, pred, "predecessor")
            if pred == cfg.end:
                raise DeltaValidationError("end must have no successors (Definition 1)")
        for succ in delta.succs:
            _require_node(cfg, succ, "successor")
            if succ == cfg.start:
                raise DeltaValidationError("start must have no predecessors (Definition 1)")
        cfg.add_node(delta.node)
        ops.append(("del_node", delta.node))
        added = []
        for pred in delta.preds:
            added.append(_record_add_edge(cfg, ops, pred, delta.node, None))
        for succ in delta.succs:
            added.append(_record_add_edge(cfg, ops, delta.node, succ, None))
        return AppliedDelta(
            delta=delta,
            undo_ops=ops,
            touched_nodes=(delta.node,) + delta.preds + delta.succs,
            added_edges=tuple(added),
            added_nodes=(delta.node,),
        )

    if isinstance(delta, RemoveNode):
        _require_node(cfg, delta.node, "node")
        if delta.node == cfg.start or delta.node == cfg.end:
            raise DeltaValidationError("cannot remove the start or end node")
        incident: List[Edge] = list(cfg.iter_in_edges(delta.node))
        for edge in cfg.iter_out_edges(delta.node):
            if not edge.is_self_loop:  # self-loops already in the in-edge list
                incident.append(edge)
        neighbors: List[NodeId] = []
        for edge in incident:
            other = edge.source if edge.target == delta.node else edge.target
            if other != delta.node and other not in neighbors:
                neighbors.append(other)
        for edge in incident:
            _record_remove_edge(cfg, ops, edge)
        del cfg._succs[delta.node]
        del cfg._preds[delta.node]
        cfg._version += 1
        ops.append(("add_node", delta.node))
        return AppliedDelta(
            delta=delta,
            undo_ops=ops,
            touched_nodes=(delta.node,) + tuple(neighbors),
            removed_edges=tuple(incident),
            removed_nodes=(delta.node,),
        )

    raise DeltaValidationError(f"unknown delta type {type(delta).__name__}")


def undo_applied(cfg: CFG, applied: AppliedDelta) -> None:
    """Replay the inverse log in reverse, restoring the exact prior graph.

    The same ``Edge`` objects return to the same positions in ``_edges``
    and the adjacency lists (only the node-dict insertion position of a
    restored node is not preserved -- semantically irrelevant).  Must be
    called in LIFO discipline relative to other mutations.
    """
    for op in reversed(applied.undo_ops):
        kind = op[0]
        if kind == "pop_edge":
            edge = op[1]
            for lst in (cfg._edges, cfg._succs[edge.source], cfg._preds[edge.target]):
                if lst and lst[-1] is edge:
                    lst.pop()
                else:
                    lst.remove(edge)
        elif kind == "insert_edge":
            _, edge, e_idx, s_idx, p_idx = op
            cfg._edges.insert(e_idx, edge)
            cfg._succs[edge.source].insert(s_idx, edge)
            cfg._preds[edge.target].insert(p_idx, edge)
        elif kind == "add_node":
            node = op[1]
            cfg._succs[node] = []
            cfg._preds[node] = []
        elif kind == "del_node":
            node = op[1]
            del cfg._succs[node]
            del cfg._preds[node]
        else:  # pragma: no cover - log corruption
            raise AssertionError(f"unknown undo op {kind!r}")
    cfg._version += 1
