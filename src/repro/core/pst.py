"""The Program Structure Tree (§2.2, §3.6).

Nodes of the PST are canonical SESE regions; edges represent immediate
nesting.  A pseudo-region (the *root*) stands for the whole procedure so the
top-level canonical regions have a parent.

Construction walks the directed DFS tree of the CFG maintaining a stack of
open regions:

* crossing a region's **entry edge** (always a tree edge -- the entry edge
  dominates its target, so it is the edge that discovers it) pushes the
  region;
* crossing a region's **exit edge** *as a tree edge* pops it (the DFS then
  explores nodes beyond the region);
* **backtracking** over a tree edge undoes whatever that edge did, so the
  stack always reflects the regions containing the current tree path's tip.

With this discipline the innermost region containing a node is simply the
top of the stack when the node is discovered, and a region's parent is the
top of the stack when the region is pushed (Theorem 1 guarantees proper
nesting).  The runtime asserts the stack discipline rather than assuming it.

The module also provides ``collapsed_cfg``: the view of one region as a CFG
of its own, with immediately nested regions collapsed to summary nodes --
the basis of every divide-and-conquer application in §6.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from repro.cfg.graph import CFG, Edge, NodeId
from repro.core.cycle_equiv import CycleEquivalence, cycle_equivalence_of_cfg
from repro.core.sese import SESERegion, canonical_sese_regions
from repro.kernel.pst import kernel_build_pst
from repro.kernel.registry import shared_frozen
from repro.obs import observer as _obs

REGION_ENTRY = "$entry$"
REGION_EXIT = "$exit$"


class ProgramStructureTree:
    """The PST of a CFG: canonical SESE regions organized by nesting."""

    def __init__(self, cfg: CFG, root: SESERegion, canonical: List[SESERegion]):
        self.cfg = cfg
        self.root = root
        self._canonical: Optional[List[SESERegion]] = canonical
        self.region_of_node: Dict[NodeId, SESERegion] = {}
        self.entry_region: Dict[Edge, SESERegion] = {r.entry: r for r in canonical}
        self.exit_region: Dict[Edge, SESERegion] = {r.exit: r for r in canonical}
        for region in [root] + canonical:
            for node in region.own_nodes:
                self.region_of_node[node] = region
        self._layout: Optional[PSTLayout] = None
        self._collapsed_cache: Dict[int, Tuple[CFG, Dict[Edge, Edge]]] = {}

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def regions(self) -> List[SESERegion]:
        """All regions including the root, in preorder."""
        return [self.root] + self.root.descendants()

    def canonical_regions(self) -> List[SESERegion]:
        """All canonical SESE regions (the root pseudo-region excluded)."""
        if self._canonical is None:
            # An incremental splice invalidates the list rather than
            # patching it; every non-root region is canonical, so the
            # tree itself is the authority.
            self._canonical = self.root.descendants()
        return list(self._canonical)

    def region_of(self, node: NodeId) -> SESERegion:
        """The innermost region containing ``node``."""
        return self.region_of_node[node]

    def edge_level(self, edge: Edge) -> SESERegion:
        """The innermost region an edge belongs to.

        Boundary edges (a region's entry or exit) belong to the region's
        *parent*; all other edges belong to the innermost region of their
        endpoints (which agree for non-boundary edges).
        """
        region = self.entry_region.get(edge) or self.exit_region.get(edge)
        if region is not None:
            assert region.parent is not None
            return region.parent
        return self.region_of_node[edge.source]

    def contains(self, region: SESERegion, node: NodeId) -> bool:
        """True iff ``node`` lies inside ``region`` (possibly nested)."""
        r: Optional[SESERegion] = self.region_of_node[node]
        while r is not None:
            if r is region:
                return True
            r = r.parent
        return False

    def depth_of(self, region: SESERegion) -> int:
        return region.depth

    def max_depth(self) -> int:
        """Deepest canonical-region nesting depth (root is depth 0)."""
        return max((r.depth for r in self.canonical_regions()), default=0)

    def child_summary_id(self, child: SESERegion) -> NodeId:
        """The summary-node id used for ``child`` in collapsed views."""
        return ("region", child.region_id)

    # ------------------------------------------------------------------
    # collapsed views (divide and conquer substrate)
    # ------------------------------------------------------------------
    def layout(self) -> "PSTLayout":
        """The tree flattened into preorder-indexed lists (see
        :class:`PSTLayout`), built in one pass over the regions and one over
        the CFG's edges and cached until the tree changes."""
        if self._layout is None:
            self._layout = PSTLayout(self)
        return self._layout

    def level_edges(self, region: SESERegion) -> List[Edge]:
        """Edges whose innermost level is ``region`` (see :meth:`edge_level`),
        in CFG edge order."""
        layout = self.layout()
        return [edge for edge, _, _ in layout.level[layout.position[region]]]

    def collapsed_cfg(self, region: SESERegion) -> Tuple[CFG, Dict[Edge, Edge]]:
        """``region`` as a standalone CFG with children collapsed.

        Returns ``(sub, edge_map)``:

        * nodes of ``sub``: the region's own nodes, one summary node
          ``("region", child_id)`` per immediate child, and -- for canonical
          regions -- synthetic :data:`REGION_ENTRY` / :data:`REGION_EXIT`
          standing for the entry and exit edges (the root region keeps the
          original ``start``/``end``);
        * ``edge_map`` maps each original edge at this region's level
          (including the region's own entry/exit) to its image in ``sub``.

        Results are cached per region (total work over all regions is O(E));
        callers must treat the returned graph as read-only.
        """
        cached = self._collapsed_cache.get(region.region_id)
        if cached is not None:
            return cached
        collapse_to: Dict[NodeId, NodeId] = {}
        for child in region.children:
            summary = self.child_summary_id(child)
            for node in child.nodes():
                collapse_to[node] = summary

        if region.is_root:
            sub = CFG(start=self.cfg.start, end=self.cfg.end, name=f"{self.cfg.name}.root")
        else:
            sub = CFG(start=REGION_ENTRY, end=REGION_EXIT, name=f"{self.cfg.name}.R{region.region_id}")
        for node in region.own_nodes:
            sub.add_node(node)
        for child in region.children:
            sub.add_node(self.child_summary_id(child))

        def image(node: NodeId) -> NodeId:
            return collapse_to.get(node, node)

        edge_map: Dict[Edge, Edge] = {}
        if not region.is_root:
            assert region.entry is not None and region.exit is not None
            edge_map[region.entry] = sub.add_edge(
                REGION_ENTRY, image(region.entry.target), region.entry.label
            )
        for edge in self.level_edges(region):
            if not region.is_root and (edge is region.entry or edge is region.exit):
                continue
            entry_child = self.entry_region.get(edge)
            exit_child = self.exit_region.get(edge)
            source = self.child_summary_id(exit_child) if exit_child else image(edge.source)
            target = self.child_summary_id(entry_child) if entry_child else image(edge.target)
            edge_map[edge] = sub.add_edge(source, target, edge.label)
        if not region.is_root:
            assert region.exit is not None
            exit_child = self.exit_region.get(region.exit)
            # region.exit's exit_region is `region` itself; its *source-side*
            # collapse is handled by image() unless it is also the exit of a
            # child -- impossible, since an edge exits at most one canonical
            # region.  So the source is simply the image of the real source.
            edge_map[region.exit] = sub.add_edge(
                image(region.exit.source), REGION_EXIT, region.exit.label
            )
        self._collapsed_cache[region.region_id] = (sub, edge_map)
        return sub, edge_map

    def __len__(self) -> int:
        """Number of canonical regions."""
        return len(self.canonical_regions())


class PSTLayout:
    """A :class:`ProgramStructureTree` flattened into lists indexed by each
    region's position in preorder (the root is position 0).

    * ``regions[i]`` is the region at position ``i``, ``position`` the
      inverse, and ``parent[i]`` the position of its parent (-1 for the
      root);
    * ``region_at`` maps each node to the position of its innermost region;
    * ``nodes`` holds every node once, each region's own nodes followed by
      its children's subtrees, so region ``i`` holds ``nodes[lo[i]:hi[i]]``
      and owns ``nodes[lo[i]:own_hi[i]]``;
    * ``level[i]`` lists the edges at region ``i``'s level
      (:meth:`ProgramStructureTree.edge_level`) as ``(edge, entered,
      exited)``, the positions of the child regions the edge enters and
      exits (-1 for none);
    * ``exit_next[i]`` is the position of the region that region ``i``'s
      exit edge enters (-1 for none, and for the root).
    """

    __slots__ = (
        "regions", "position", "parent", "region_at", "nodes", "lo", "own_hi",
        "hi", "level", "exit_next",
    )

    def __init__(self, pst: ProgramStructureTree):
        regions = pst.regions()
        count = len(regions)
        position = {region: i for i, region in enumerate(regions)}
        parent = [-1] * count
        lo = [0] * count
        own_hi = [0] * count
        region_at: Dict[NodeId, int] = {}
        nodes: List[NodeId] = []
        for i, region in enumerate(regions):
            if i:
                parent[i] = position[region.parent]
            lo[i] = len(nodes)
            nodes.extend(region.own_nodes)
            own_hi[i] = len(nodes)
            region_at.update(dict.fromkeys(region.own_nodes, i))
        # A region's subtree follows it in preorder, so its interior ends
        # where its last child's does.
        hi = own_hi[:]
        for i in range(count - 1, -1, -1):
            children = regions[i].children
            if children:
                hi[i] = hi[position[children[-1]]]

        entry_region = pst.entry_region
        exit_region = pst.exit_region
        level: List[List[Tuple[Edge, int, int]]] = [[] for _ in range(count)]
        for edge in pst.cfg.edges:
            into = entry_region.get(edge)
            out = exit_region.get(edge)
            entered = -1 if into is None else position[into]
            exited = -1 if out is None else position[out]
            if entered >= 0:
                at = parent[entered]
            elif exited >= 0:
                at = parent[exited]
            else:
                at = region_at[edge.source]
            level[at].append((edge, entered, exited))
        exit_next = [-1] * count
        for i in range(1, count):
            into = entry_region.get(regions[i].exit)
            if into is not None:
                exit_next[i] = position[into]

        self.regions = regions
        self.position = position
        self.parent = parent
        self.region_at = region_at
        self.nodes = nodes
        self.lo = lo
        self.own_hi = own_hi
        self.hi = hi
        self.level = level
        self.exit_next = exit_next


def build_pst(
    cfg: CFG, equiv: Optional[CycleEquivalence] = None, ticker=None
) -> ProgramStructureTree:
    """Build the PST of ``cfg`` in O(E) time.

    Computes cycle equivalence (unless ``equiv`` is supplied), derives the
    canonical SESE regions, then assigns nesting and node containment with a
    single tree-walk of the CFG's DFS tree.  ``ticker`` (a
    :class:`~repro.resilience.guards.Ticker`) guards the cycle-equivalence
    phase, which dominates the running time.

    The region derivation and tree walk run on the CSR kernel
    (:func:`repro.kernel.pst.kernel_build_pst`);
    :func:`build_pst_reference` is the retained object-graph builder, with
    identical output.
    """
    return _obs.dispatch("build_pst", "kernel", cfg, _build_pst, cfg, equiv, ticker)


def _build_pst(
    cfg: CFG, equiv: Optional[CycleEquivalence], ticker
) -> ProgramStructureTree:
    if equiv is None:
        equiv = cycle_equivalence_of_cfg(cfg, ticker=ticker)
    frozen = shared_frozen(cfg)
    classes = equiv.positional
    if classes is None or len(classes) != frozen.num_edges:
        class_of = equiv.class_of
        classes = [class_of[edge] for edge in cfg.edges]
    return kernel_build_pst(frozen, classes)


def build_pst_reference(
    cfg: CFG, equiv: Optional[CycleEquivalence] = None, ticker=None
) -> ProgramStructureTree:
    """Object-graph reference for :func:`build_pst` (same contract)."""
    return _obs.dispatch(
        "build_pst", "reference", cfg, _build_pst_reference, cfg, equiv, ticker
    )


def _build_pst_reference(
    cfg: CFG, equiv: Optional[CycleEquivalence], ticker
) -> ProgramStructureTree:
    if equiv is None:
        equiv = cycle_equivalence_of_cfg(cfg, ticker=ticker)
    canonical = canonical_sese_regions(cfg, equiv)
    by_entry: Dict[Edge, SESERegion] = {r.entry: r for r in canonical}
    by_exit: Dict[Edge, SESERegion] = {r.exit: r for r in canonical}

    root = SESERegion(entry=None, exit=None, region_id=-1)
    root.own_nodes.append(cfg.start)
    stack: List[SESERegion] = [root]
    pushed_at: Dict[Edge, SESERegion] = {}
    popped_at: Dict[Edge, SESERegion] = {}

    for kind, payload in _tree_events(cfg):
        if kind == "down":
            edge = payload
            closing = by_exit.get(edge)
            if closing is not None:
                if stack[-1] is not closing:
                    raise AssertionError(
                        f"PST stack discipline violated closing {closing!r}; "
                        f"top is {stack[-1]!r}"
                    )
                stack.pop()
                popped_at[edge] = closing
            opening = by_entry.get(edge)
            if opening is not None:
                opening.parent = stack[-1]
                stack[-1].children.append(opening)
                stack.append(opening)
                pushed_at[edge] = opening
            stack[-1].own_nodes.append(edge.target)
        else:  # "up": backtracking over a tree edge undoes its events
            edge = payload
            opened = pushed_at.pop(edge, None)
            if opened is not None:
                if stack[-1] is not opened:
                    raise AssertionError("PST stack discipline violated on backtrack")
                stack.pop()
            closed = popped_at.pop(edge, None)
            if closed is not None:
                stack.append(closed)

    if len(stack) != 1 or stack[0] is not root:
        raise AssertionError("PST stack not fully unwound after DFS")

    for depth, region in _preorder_with_depth(root):
        region.depth = depth
    return ProgramStructureTree(cfg, root, canonical)


def _tree_events(cfg: CFG) -> Iterator[Tuple[str, Edge]]:
    """Yield ("down", edge) / ("up", edge) events for the CFG's DFS tree.

    The DFS uses the same adjacency order as
    :func:`repro.cfg.traversal.dfs_edges`, so region entry edges (which are
    tree edges, see module docstring) are encountered consistently.
    """
    seen = {cfg.start}
    stack: List[Tuple[NodeId, Iterator[Edge], Optional[Edge]]] = [
        (cfg.start, iter(cfg.iter_out_edges(cfg.start)), None)
    ]
    while stack:
        node, it, via = stack[-1]
        advanced = False
        for edge in it:
            if edge.target not in seen:
                seen.add(edge.target)
                yield ("down", edge)
                stack.append((edge.target, iter(cfg.iter_out_edges(edge.target)), edge))
                advanced = True
                break
        if not advanced:
            stack.pop()
            if via is not None:
                yield ("up", via)


def _preorder_with_depth(root: SESERegion) -> Iterator[Tuple[int, SESERegion]]:
    stack: List[Tuple[int, SESERegion]] = [(0, root)]
    while stack:
        depth, region = stack.pop()
        yield depth, region
        for child in reversed(region.children):
            stack.append((depth + 1, child))
