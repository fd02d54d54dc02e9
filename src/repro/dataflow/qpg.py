"""Quick propagation graphs: PST-driven sparse dataflow (§6.2).

Given a dataflow problem instance, most SESE regions usually carry only
identity transfer functions ("transparent" regions).  The QPG bypasses
every maximal transparent region with a single edge, producing a graph that
is typically a small fraction of the CFG; the problem is solved on the QPG
and the solution is projected back (transparent regions take the value
flowing across their bypass edge unchanged).

Construction follows the paper and emits int CSR rows (:class:`QPGRows`)
over the tree's preorder layout (:meth:`ProgramStructureTree.layout`):

1. Mark regions containing a non-identity transfer function, starting at
   the leaf blocks and walking up the PST -- one ``is_identity`` test per
   CFG node, then time proportional to the number of marked regions.
2. Walk only the marked regions' level edges, in PST preorder.  An edge
   that exits an unmarked region is the tail of a bypass chain and is
   skipped; every other edge becomes one QPG edge ``(e1, e2)``, where
   ``e2`` is reached by following the chain of unmarked regions ``e1``
   enters (each one's exit edge enters the next), or is ``e1`` itself.
3. Solve the rows with the packed gen/kill kernel or the generic kernel
   (:mod:`repro.kernel.dataflow`), then give every node of each bypassed
   region the value flowing along its chain.

So per problem instance the interpreted work is one ``is_identity`` test
per CFG node plus time proportional to the QPG: its nodes, its edges and
the regions it bypasses.  No object ``CFG`` and no snapshot is built; only
the projected :class:`~repro.dataflow.framework.Solution` touches every
node again, through ``dict.fromkeys`` over each bypassed region's slice of
the layout.  The layout itself is built once per tree and kept on it.
On the ``dataflow`` benchmark corpus (101 nodes per instance on average,
QPGs of 14) one instance takes about 120 µs given the PST on a 2-CPU
host under CPython 3.11, half a packed solve of the whole CFG; one packed
full solve still answers every variable at once for less than all the
per-variable QPGs (``docs/PERFORMANCE.md``, "Sparse dataflow (QPG)").
:func:`build_qpg` materializes the same rows as a ``CFG`` for callers that
want the graph.

``benchmarks/bench_qpg_size.py`` reproduces the "QPG averages < 10% of the
CFG" measurement for per-variable reaching-definition instances.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Dict, List, Optional, Set, Tuple

from repro.cfg.graph import CFG, Edge, NodeId
from repro.core.pst import ProgramStructureTree
from repro.core.sese import SESERegion
from repro.dataflow.framework import BACKWARD, DataflowProblem, Solution
from repro.kernel.dataflow import kernel_solver
from repro.kernel.session import session_for
from repro.obs import observer as _obs


@dataclass
class QPGResult:
    """The projected solution plus the size statistics of the QPG."""

    solution: Solution
    qpg_nodes: int
    qpg_edges: int
    bypassed_regions: int

    def size_ratio(self, cfg: CFG) -> float:
        """QPG nodes as a fraction of CFG nodes."""
        return self.qpg_nodes / max(1, cfg.num_nodes)


class QPGRows:
    """One problem instance's QPG as int CSR rows, nodes in PST preorder.

    Carries what the kernel solvers read from a
    :class:`~repro.kernel.csr.FrozenCFG` (``num_nodes``, ``node_ids``,
    ``start``, ``end``, ``succ_off``/``succ_dst``, ``pred_off``/``pred_src``)
    plus, per QPG edge ``k``: its endpoints ``edge_src[k]``/``edge_dst[k]``
    and ``chains[k] = (first, last)``, the CFG edges it stands for (the
    same edge when it bypasses nothing).  ``bypass`` lists ``(k, r)`` for
    each bypassed region, by its layout position ``r``, in chain order.
    """

    __slots__ = (
        "node_ids", "num_nodes", "num_edges", "start", "end", "edge_src",
        "edge_dst", "chains", "bypass", "succ_off", "succ_dst", "pred_off",
        "pred_src",
    )

    def __init__(
        self,
        node_ids: List[NodeId],
        start: int,
        end: int,
        edge_src: List[int],
        edge_dst: List[int],
        chains: List[Tuple[Edge, Edge]],
        bypass: List[Tuple[int, int]],
    ):
        n = len(node_ids)
        succ: List[List[int]] = [[] for _ in range(n)]
        pred: List[List[int]] = [[] for _ in range(n)]
        for s, t in zip(edge_src, edge_dst):
            succ[s].append(t)
            pred[t].append(s)
        self.node_ids = node_ids
        self.num_nodes = n
        self.num_edges = len(edge_src)
        self.start = start
        self.end = end
        self.edge_src = edge_src
        self.edge_dst = edge_dst
        self.chains = chains
        self.bypass = bypass
        self.succ_off = [0, *accumulate(map(len, succ))]
        self.succ_dst = [t for row in succ for t in row]
        self.pred_off = [0, *accumulate(map(len, pred))]
        self.pred_src = [s for row in pred for s in row]


def _qpg_rows(cfg: CFG, problem: DataflowProblem, pst: ProgramStructureTree) -> QPGRows:
    layout = pst.layout()
    parent = layout.parent
    region_at = layout.region_at
    is_identity = problem.is_identity

    # Step 1: mark regions with non-identity transfer functions (leaf-up).
    # The root stays marked so start and end are always QPG nodes.
    marked = bytearray(len(parent))
    marked[0] = 1
    kept = [0]
    for node in layout.nodes:
        if not is_identity(node):
            r = region_at[node]
            while not marked[r]:
                marked[r] = 1
                kept.append(r)
                r = parent[r]
    kept.sort()  # preorder

    # Step 2: the marked regions' own nodes, then their level edges with
    # transparent chains bypassed.
    nodes, lo, own_hi = layout.nodes, layout.lo, layout.own_hi
    node_ids: List[NodeId] = []
    for r in kept:
        node_ids.extend(nodes[lo[r]:own_hi[r]])
    index = {node: i for i, node in enumerate(node_ids)}

    regions, level, exit_next = layout.regions, layout.level, layout.exit_next
    edge_src: List[int] = []
    edge_dst: List[int] = []
    chains: List[Tuple[Edge, Edge]] = []
    bypass: List[Tuple[int, int]] = []
    for r in kept:
        for edge, entered, exited in level[r]:
            if exited >= 0 and not marked[exited]:
                continue  # tail of a bypass chain; handled from its head
            last = edge
            while entered >= 0 and not marked[entered]:
                bypass.append((len(chains), entered))
                last = regions[entered].exit
                entered = exit_next[entered]
            edge_src.append(index[edge.source])
            edge_dst.append(index[last.target])
            chains.append((edge, last))
    return QPGRows(
        node_ids, index.get(cfg.start, -1), index.get(cfg.end, -1),
        edge_src, edge_dst, chains, bypass,
    )


def build_qpg(
    cfg: CFG, problem: DataflowProblem, pst: Optional[ProgramStructureTree] = None
) -> Tuple[CFG, Dict[Edge, Tuple[Edge, Edge]], Set[SESERegion]]:
    """Construct the quick propagation graph for one problem instance.

    Returns ``(qpg, chains, bypassed)`` where ``qpg`` shares node ids with
    ``cfg`` (the nodes of marked regions, in PST preorder), ``chains`` maps
    each QPG edge to its ``(first, last)`` pair of original CFG edges, and
    ``bypassed`` is the set of transparent regions the QPG's edges bypass.
    :func:`solve_qpg` solves the same graph without materializing it.
    """
    if pst is None:
        pst = session_for(cfg).pst()
    rows = _qpg_rows(cfg, problem, pst)
    qpg = CFG(start=cfg.start, end=cfg.end, name=f"{cfg.name}.qpg")
    for node in rows.node_ids:
        qpg.add_node(node)
    chains: Dict[Edge, Tuple[Edge, Edge]] = {}
    for first, last in rows.chains:
        chains[qpg.add_edge(first.source, last.target, first.label)] = (first, last)
    regions = pst.layout().regions
    return qpg, chains, {regions[r] for _, r in rows.bypass}


def solve_qpg(
    cfg: CFG,
    problem: DataflowProblem,
    pst: Optional[ProgramStructureTree] = None,
) -> QPGResult:
    """Solve ``problem`` sparsely and project the solution onto all of ``cfg``."""
    if pst is None:
        pst = session_for(cfg).pst()
    return _obs.dispatch("solve_qpg", "kernel", cfg, _solve_qpg, cfg, problem, pst)


def _solve_qpg(cfg: CFG, problem: DataflowProblem, pst: ProgramStructureTree) -> QPGResult:
    rows = _qpg_rows(cfg, problem, pst)
    solved = kernel_solver(problem)(rows, problem)

    # Every node inside a bypassed chain sees the value on the chain
    # unchanged (identity transfers only): the value leaving the chain's
    # upstream end in the solving direction.
    if problem.direction == BACKWARD:
        flowing, upstream = solved.before, rows.edge_dst
    else:
        flowing, upstream = solved.after, rows.edge_src
    layout = pst.layout()
    nodes, lo, hi = layout.nodes, layout.lo, layout.hi
    node_ids = rows.node_ids
    before: Dict[NodeId, object] = {}
    after: Dict[NodeId, object] = {}
    for k, r in rows.bypass:
        fill = dict.fromkeys(nodes[lo[r]:hi[r]], flowing[node_ids[upstream[k]]])
        before.update(fill)
        after.update(fill)
    before.update(solved.before)
    after.update(solved.after)
    return QPGResult(
        Solution(before, after), rows.num_nodes, rows.num_edges, len(rows.bypass)
    )
