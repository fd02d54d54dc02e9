"""The linear-time cycle-equivalence algorithm (Figure 4 of the paper).

Two edges of a strongly connected graph are *cycle equivalent* iff every
cycle contains both or neither (Definition 4).  The algorithm chain is:

1. Theorem 2 reduces SESE-region discovery in a CFG ``G`` to cycle
   equivalence in ``S = G + (end -> start)``.
2. Theorem 3 shows cycle equivalence in a strongly connected ``S`` equals
   cycle equivalence in the *undirected multigraph* ``U`` obtained by
   dropping edge directions.
3. In ``U``, an undirected DFS classifies edges into tree edges and
   backedges; Theorems 4 and 5 characterize equivalence through *bracket
   sets*, and §3.4/§3.5 give the compact ``<topmost bracket, set size>``
   naming realized with the :class:`~repro.core.bracketlist.BracketList`
   ADT, yielding an O(E) algorithm.

Implementation notes beyond the paper's pseudocode:

* **Self-loops** are cycle equivalent only to themselves (the one-edge cycle
  contains nothing else).  They are excluded from the DFS and assigned
  singleton classes up front; they also never act as brackets.
* **Capping backedges to the current node**: the pseudocode creates a capping
  backedge whenever ``hi2 < hi0``.  When a node ``n`` has no backedge to an
  ancestor (``hi0 = infinity``) and its second-highest-reaching child subtree
  reaches exactly ``n`` (``hi2 == dfsnum(n)``), the literal rule would create
  a degenerate self-loop capping bracket that is never deleted.  Since a
  branch whose brackets all end at ``n`` leaves no brackets above ``n``,
  no cap is needed; we therefore additionally require ``hi2 < dfsnum(n)``.
  (The companion oracle tests in ``tests/core/test_cycle_equiv*.py`` validate
  this against brute-force cycle enumeration.)
* The DFS and the processing loop are iterative, so graphs with tens of
  thousands of nodes (the worst-case benchmarks) do not hit the recursion
  limit.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from repro.cfg.graph import CFG, Edge, InvalidCFGError, NodeId
from repro.cfg.validate import validate_cfg
from repro.core.bracketlist import Bracket, BracketList
from repro.kernel.cycle_equiv import kernel_cycle_equivalence
from repro.kernel.registry import shared_frozen
from repro.obs import observer as _obs
from repro.resilience.guards import Ticker

INFINITY = float("inf")

# Fault-injection hook (repro.resilience.faults installs/clears a plan here;
# see site "cycle-equiv/skip-cap").  Always None in production.
_FAULTS = None


class _UndirectedEdge:
    """An edge of the undirected multigraph U, wrapping a directed edge.

    After the DFS it is either a *tree edge* (``parent_of`` set to the deeper
    endpoint) or a *backedge* (``origin``/``dest`` set: origin is the
    descendant endpoint, dest the ancestor endpoint).
    """

    __slots__ = ("directed", "u", "v", "processed", "is_tree", "origin", "dest", "bracket", "class_id")

    def __init__(self, directed: Optional[Edge], u: Optional[NodeId] = None, v: Optional[NodeId] = None):
        self.directed = directed
        if directed is not None:
            u, v = directed.source, directed.target
        self.u: NodeId = u
        self.v: NodeId = v
        self.processed = False
        self.is_tree = False
        self.origin: Optional[NodeId] = None
        self.dest: Optional[NodeId] = None
        self.bracket: Optional[Bracket] = None
        self.class_id: Optional[int] = None

    def other(self, node: NodeId) -> NodeId:
        return self.v if node == self.u else self.u

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "tree" if self.is_tree else "back"
        return f"<uedge {self.u!r}--{self.v!r} {kind}>"


class CycleEquivalence:
    """Result of a cycle-equivalence computation over a directed graph.

    ``class_of`` maps every directed edge (including any augmentation edge)
    to an integer class id.  Edges with equal ids are cycle equivalent.

    ``positional`` optionally carries the same ids as a flat list indexed by
    edge *position* in the source graph's ``edges`` list (set when the
    result came from the CSR kernel); consumers that walk edges by index
    (e.g. :func:`repro.core.pst.build_pst`) use it to skip dict lookups.
    With it come ``return_class``, the class of the virtual ``end ->
    start`` edge, and ``version``, the graph version of the snapshot both
    were computed on, so a consumer can tell whether they still describe
    the graph (:func:`repro.controldep.regions_fast.control_regions` reads
    node classes off them).  All three are ``None`` otherwise, and
    :func:`repro.incremental.splice.splice_region` resets them when it
    patches ``class_of``.

    When constructed from the kernel, the ``class_of`` dict is materialized
    lazily from ``positional`` and the edge list on first access, so
    positional-only consumers never pay for it.
    """

    def __init__(
        self,
        class_of: Optional[Dict[Edge, int]],
        positional: Optional[List[int]] = None,
        lazy_edges: Optional[List[Edge]] = None,
        return_class: Optional[int] = None,
        version: Optional[int] = None,
    ):
        self._class_of = class_of
        self.positional = positional
        self._lazy_edges = lazy_edges
        self.return_class = return_class
        self.version = version

    @property
    def class_of(self) -> Dict[Edge, int]:
        mapping = self._class_of
        if mapping is None:
            assert self._lazy_edges is not None and self.positional is not None
            mapping = self._class_of = dict(zip(self._lazy_edges, self.positional))
        return mapping

    def classes(self) -> Dict[int, List[Edge]]:
        """Class id -> edges, each list in ascending edge-id order."""
        out: Dict[int, List[Edge]] = {}
        for edge, cls in self.class_of.items():
            out.setdefault(cls, []).append(edge)
        for edges in out.values():
            edges.sort()
        return out

    def equivalent(self, a: Edge, b: Edge) -> bool:
        """True iff ``a`` and ``b`` are cycle equivalent."""
        return self.class_of[a] == self.class_of[b]

    def __getitem__(self, edge: Edge) -> int:
        return self.class_of[edge]

    def __len__(self) -> int:
        return len(self.class_of)


def cycle_equivalence_scc(
    graph: CFG,
    root: Optional[NodeId] = None,
    virtual_edges: Tuple[Tuple[NodeId, NodeId], ...] = (),
    ticker: Optional[Ticker] = None,
) -> CycleEquivalence:
    """Edge cycle-equivalence classes of a strongly connected graph.

    ``graph`` must be strongly connected (equivalently for our purposes: its
    undirected form is connected and bridgeless); an
    :class:`~repro.cfg.graph.InvalidCFGError` is raised when the DFS
    discovers a violation.  ``root`` picks the DFS root (default: the first
    node).

    ``virtual_edges`` are extra ``(u, v)`` pairs treated as edges of the
    graph without materializing them (used for the ``end -> start``
    augmentation so callers need not copy the CFG); their classes are not
    reported in the result.

    ``ticker`` is an optional :class:`~repro.resilience.guards.Ticker`
    charged one step per node and per undirected edge ahead of the DFS, and
    one step per node ahead of the main loop -- both phases are O(V + E),
    so each is billed in one bulk ``tick`` at its boundary rather than
    paying a checkpoint per iteration on the hot path.
    """
    if graph.num_nodes == 0:
        return CycleEquivalence({})
    root = graph.nodes[0] if root is None else root
    tick = None if ticker is None else ticker.tick

    counter = _ClassCounter()
    class_of: Dict[Edge, int] = {}

    # ------------------------------------------------------------------
    # Build the undirected multigraph.  Self-loops are singleton classes.
    # ------------------------------------------------------------------
    uedges: List[_UndirectedEdge] = []
    adjacency: Dict[NodeId, List[_UndirectedEdge]] = {node: [] for node in graph.nodes}
    for edge in graph.edges:
        if edge.is_self_loop:
            class_of[edge] = counter.next()
            continue
        ue = _UndirectedEdge(edge)
        uedges.append(ue)
        adjacency[ue.u].append(ue)
        adjacency[ue.v].append(ue)
    for u, v in virtual_edges:
        if u == v:
            continue  # a virtual self-loop cannot affect any class
        ue = _UndirectedEdge(None, u, v)
        adjacency[u].append(ue)
        adjacency[v].append(ue)

    # ------------------------------------------------------------------
    # Undirected DFS: numbering, tree edges, backedge orientation.  All
    # per-node state is kept in arrays indexed by DFS number -- node ids are
    # only hashed once, at discovery.
    # ------------------------------------------------------------------
    capacity = graph.num_nodes
    dfsnum: Dict[NodeId, int] = {root: 0}
    node_at: List[NodeId] = [root]
    parent_edge: List[Optional[_UndirectedEdge]] = [None] * capacity
    children: List[List[Tuple[int, _UndirectedEdge]]] = [[] for _ in range(capacity)]
    up_backedges: List[List[_UndirectedEdge]] = [[] for _ in range(capacity)]
    down_backedges: List[List[_UndirectedEdge]] = [[] for _ in range(capacity)]

    if tick is not None:
        tick(capacity + len(uedges))  # the DFS about to run is O(V + E)
    o = _obs._CURRENT
    dfs_span = o.span("cycle_equiv.dfs") if o is not None else None
    stack: List[Tuple[NodeId, int, Iterator[_UndirectedEdge]]] = [
        (root, 0, iter(adjacency[root]))
    ]
    while stack:
        node, num, it = stack[-1]
        advanced = False
        for ue in it:
            if ue.processed:
                continue
            ue.processed = True
            other = ue.other(node)
            other_num = dfsnum.get(other)
            if other_num is None:
                ue.is_tree = True
                other_num = len(node_at)
                dfsnum[other] = other_num
                node_at.append(other)
                parent_edge[other_num] = ue
                children[num].append((other_num, ue))
                stack.append((other, other_num, iter(adjacency[other])))
                advanced = True
                break
            # Non-tree edge: in an undirected DFS it must connect `node` to a
            # proper ancestor (cross edges cannot exist).
            if other_num >= num:
                raise AssertionError(
                    "undirected DFS produced a non-ancestor non-tree edge; "
                    "this indicates corrupted adjacency state"
                )
            ue.origin, ue.dest = num, other_num
            ue.bracket = Bracket(payload=ue)
            up_backedges[num].append(ue)
            down_backedges[other_num].append(ue)
        if not advanced:
            stack.pop()
    if dfs_span is not None:
        dfs_span.finish()
    if ticker is not None and ticker.profile is not None:
        ticker.mark("dfs")

    if len(dfsnum) != graph.num_nodes:
        missing = [n for n in graph.nodes if n not in dfsnum][:5]
        raise InvalidCFGError(
            f"graph is not connected: nodes {missing!r} unreachable from {root!r} "
            "in the undirected multigraph (cycle equivalence requires a "
            "strongly connected input)"
        )

    # ------------------------------------------------------------------
    # Figure 4 main loop: reverse depth-first (descending dfsnum) order.
    # ------------------------------------------------------------------
    hi: List[float] = [INFINITY] * capacity
    blist_of: List[Optional[BracketList]] = [None] * capacity
    capping_at: List[List[Bracket]] = [[] for _ in range(capacity)]

    if tick is not None:
        tick(len(node_at))  # the reverse depth-first sweep about to run
    bracket_span = o.span("cycle_equiv.brackets") if o is not None else None
    for num in range(len(node_at) - 1, -1, -1):
        node = node_at[num]

        # hi0: highest (smallest dfsnum) destination of a backedge from node.
        hi0: float = INFINITY
        for ue in up_backedges[num]:
            if ue.dest < hi0:
                hi0 = ue.dest
        # hi1: highest reach among children; hi2: second-highest.
        hi1: float = INFINITY
        hi2: float = INFINITY
        for child_num, _ in children[num]:
            child_hi = hi[child_num]
            if child_hi < hi1:
                hi2 = hi1
                hi1 = child_hi
            elif child_hi < hi2:
                hi2 = child_hi
        hi[num] = hi0 if hi0 < hi1 else hi1

        # Merge children's bracket lists (arbitrary order is fine, §3.4).
        blist = BracketList()
        for child_num, _ in children[num]:
            blist.concat(blist_of[child_num])
            blist_of[child_num] = None

        # Delete capping backedges ending here.
        for cap in capping_at[num]:
            blist.delete(cap)
        # Delete real backedges ending here; orphaned ones get fresh classes.
        for ue in down_backedges[num]:
            bracket = ue.bracket
            blist.delete(bracket)
            if bracket.class_id is None:
                bracket.class_id = counter.next()
            ue.class_id = bracket.class_id
        # Push backedges originating here.
        for ue in up_backedges[num]:
            blist.push(ue.bracket)
        # Capping backedge: needed iff a *second* child subtree reaches a
        # proper ancestor of node, higher than node's own backedges reach.
        if hi2 < hi0 and hi2 < num:
            if _FAULTS is not None and _FAULTS.should_fire("cycle-equiv/skip-cap"):
                pass  # injected fault: silently skip the capping bracket
            else:
                dest_num = int(hi2)
                cap = Bracket(payload=(node, node_at[dest_num]), is_capping=True)
                capping_at[dest_num].append(cap)
                blist.push(cap)

        blist_of[num] = blist

        # Name the equivalence class of the tree edge into node.
        if num != 0:
            tree_edge = parent_edge[num]
            if blist.size == 0:
                raise InvalidCFGError(
                    f"tree edge into {node!r} has no brackets: the undirected "
                    "multigraph has a bridge, so the input is not strongly "
                    "connected"
                )
            b = blist.top()
            if b.recent_size != blist.size:
                b.recent_size = blist.size
                b.recent_class = counter.next()
            tree_edge.class_id = b.recent_class
            # Theorem 4: a backedge that is the *only* bracket of a tree edge
            # is cycle equivalent to it.
            if b.recent_size == 1 and not b.is_capping:
                b.class_id = tree_edge.class_id

    if bracket_span is not None:
        bracket_span.finish()
    if ticker is not None and ticker.profile is not None:
        ticker.mark("brackets")

    naming_span = o.span("cycle_equiv.naming") if o is not None else None
    for ue in uedges:
        assert ue.class_id is not None, f"unlabelled edge {ue!r}"
        class_of[ue.directed] = ue.class_id
    if naming_span is not None:
        naming_span.finish()
    if ticker is not None and ticker.profile is not None:
        ticker.mark("naming")
    return CycleEquivalence(class_of)


def cycle_equivalence(
    cfg: CFG, validate: bool = True, ticker: Optional[Ticker] = None
) -> Tuple[CycleEquivalence, Edge]:
    """Cycle equivalence on ``S = cfg + (end -> start)`` (Theorem 2 setup).

    Returns ``(equiv, return_edge)``.  ``equiv.class_of`` covers all edges of
    the augmented graph; ``return_edge`` is the added ``end -> start`` edge
    (callers usually want to ignore its class when forming SESE regions).
    Edges of the augmented copy correspond positionally to ``cfg.edges``; use
    :func:`cycle_equivalence_of_cfg` to get classes keyed by the original
    edges directly.
    """
    if validate:
        validate_cfg(cfg)
    augmented, return_edge = cfg.with_return_edge()
    equiv = cycle_equivalence_scc(augmented, root=cfg.start, ticker=ticker)
    return equiv, return_edge


def cycle_equivalence_of_cfg(
    cfg: CFG, validate: bool = True, ticker: Optional[Ticker] = None
) -> CycleEquivalence:
    """Cycle-equivalence classes keyed by the edges of ``cfg`` itself.

    The ``end -> start`` augmentation is applied virtually (no graph copy);
    its class is not in ``class_of`` but is ``return_class``.  Runs the
    array kernel
    (:func:`repro.kernel.cycle_equiv.kernel_cycle_equivalence`) over the
    shared frozen snapshot; class ids are identical to the object-graph
    reference (:func:`cycle_equivalence_of_cfg_reference`) because both
    follow the same DFS and the same new-class order.
    """
    return _obs.dispatch(
        "cycle_equiv", "kernel", cfg, _cycle_equivalence_of_cfg, cfg, validate, ticker
    )


def _cycle_equivalence_of_cfg(
    cfg: CFG, validate: bool, ticker: Optional[Ticker]
) -> CycleEquivalence:
    if validate:
        validate_cfg(cfg)
    frozen = shared_frozen(cfg)
    if cfg.start is None or cfg.end is None:
        raise InvalidCFGError("CFG must have start and end nodes set")
    classes = kernel_cycle_equivalence(
        frozen,
        root=frozen.start,
        virtual_edges=((frozen.end, frozen.start),),
        ticker=ticker,
    )
    return_class = classes.pop()  # the virtual end -> start edge's
    return CycleEquivalence(
        None,
        positional=classes,
        lazy_edges=cfg.edges,
        return_class=return_class,
        version=frozen.version,
    )


def cycle_equivalence_of_cfg_reference(
    cfg: CFG, validate: bool = True, ticker: Optional[Ticker] = None
) -> CycleEquivalence:
    """Object-graph reference for :func:`cycle_equivalence_of_cfg`.

    Same contract, computed by :func:`cycle_equivalence_scc` directly over
    the object multigraph.  Kept as the oracle the fuzz campaign and the
    kernel unit tests compare the CSR kernel against.
    """
    if validate:
        validate_cfg(cfg)
    if cfg.start is None or cfg.end is None:
        raise InvalidCFGError("CFG must have start and end nodes set")
    return _obs.dispatch(
        "cycle_equiv",
        "reference",
        cfg,
        cycle_equivalence_scc,
        cfg,
        cfg.start,
        ((cfg.end, cfg.start),),
        ticker,
    )


class _ClassCounter:
    """The ``new-class()`` procedure: fresh integers from zero."""

    __slots__ = ("_next",)

    def __init__(self) -> None:
        self._next = 0

    def next(self) -> int:
        value = self._next
        self._next += 1
        return value
