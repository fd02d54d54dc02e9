"""Array-based dominator kernels over CSR snapshots.

:func:`kernel_lengauer_tarjan` is the same algorithm (and the same tick
billing and fault site) as :mod:`repro.dominance.lengauer_tarjan`'s
object-graph implementation, with node ids replaced by dense indices: the
DFS walks the flat ``succ_dst`` rows, the semidominator sweep walks
``pred_src``, and the EVAL/LINK forest is the usual set of int arrays.
:func:`kernel_iterative_dominators` ports the Cooper-Harvey-Kennedy
fixpoint the same way.  Passing ``reverse=True`` to either swaps the roles
of the two CSR halves, which computes *post*\\ dominators without ever
materializing a reversed copy of the graph.

:class:`EdgeDominance` answers Definition 2's edge (post)dominance
questions from the two node trees of the graph itself, and
:func:`control_dependence_sums` summarizes every edge's and every node's
control-dependence set from the same postdominator tree.
"""

from __future__ import annotations

import random
from array import array
from typing import Dict, List, Optional, Tuple

from repro.cfg.graph import Edge
from repro.kernel.csr import FrozenCFG
from repro.resilience.guards import Ticker

# Fault-injection hook for "lengauer-tarjan/semi-skew" (installed and
# cleared by repro.resilience.faults alongside the object-path hook).
_FAULTS = None


def kernel_lengauer_tarjan(
    frozen: FrozenCFG,
    root: int,
    ticker: Optional[Ticker] = None,
    reverse: bool = False,
) -> List[int]:
    """Immediate dominators by node index; ``-1`` marks unreachable nodes.

    ``idom[root] == root``.  With ``reverse=True`` the edge direction flips
    (successor rows become predecessor rows and vice versa), yielding
    postdominators when called with ``root=frozen.end``.
    """
    n = frozen.num_nodes
    if reverse:
        succ_off = frozen.pred_off
        succ_dst = frozen.pred_src
        pred_off = frozen.succ_off
        pred_src = frozen.succ_dst
    else:
        succ_off = frozen.succ_off
        succ_dst = frozen.succ_dst
        pred_off = frozen.pred_off
        pred_src = frozen.pred_src
    tick = None if ticker is None else ticker.tick
    faults = _FAULTS

    # --- step 1: DFS numbering (1-based; 0 is a sentinel) -----------------
    num = [0] * n
    vertex = [0] * (n + 1)
    parent = [0] * (n + 1)
    dfs_stack = [(root, 0)]
    counter = 0
    while dfs_stack:
        node, par = dfs_stack.pop()
        if num[node]:
            continue
        counter += 1
        num[node] = counter
        vertex[counter] = node
        parent[counter] = par
        lo = succ_off[node]
        for i in range(succ_off[node + 1] - 1, lo - 1, -1):
            nxt = succ_dst[i]
            if not num[nxt]:
                dfs_stack.append((nxt, counter))
    nr = counter
    if tick is not None:
        tick(2 * nr)  # the DFS numbering just done counts for both passes
    if ticker is not None and ticker.profile is not None:
        ticker.mark("dfs")

    # --- forest for EVAL/LINK with path compression -----------------------
    semi = list(range(nr + 1))
    ancestor = [0] * (nr + 1)
    label = list(range(nr + 1))
    idom_num = [0] * (nr + 1)
    # Buckets as linked lists: bucket_head by semi number, bucket_next by
    # vertex number (each vertex sits in at most one bucket at a time).
    bucket_head = [0] * (nr + 1)
    bucket_next = [0] * (nr + 1)
    path: List[int] = []  # reused scratch for path compression

    # --- steps 2 & 3: semidominators and implicit idoms -------------------
    if tick is not None and nr > 1:
        tick(nr - 1)  # the semidominator sweep about to run
    for w in range(nr, 1, -1):
        node = vertex[w]
        sw = semi[w]
        for i in range(pred_off[node], pred_off[node + 1]):
            v = num[pred_src[i]]
            if v == 0:
                continue  # unreachable predecessor
            # EVAL(v), inlined: this runs once per edge and dominates the
            # sweep, so the call overhead of evaluate() is worth shedding.
            if ancestor[v] == 0:
                u = v
            else:
                x = v
                while ancestor[ancestor[x]] != 0:
                    path.append(x)
                    x = ancestor[x]
                for y in reversed(path):
                    anc = ancestor[y]
                    if semi[label[anc]] < semi[label[y]]:
                        label[y] = label[anc]
                    ancestor[y] = ancestor[anc]
                del path[:]
                u = label[v]
            su = semi[u]
            if su < sw:
                sw = su
        if faults is not None and sw > 1 and faults.should_fire(
            "lengauer-tarjan/semi-skew"
        ):
            sw -= 1  # injected fault: off-by-one semidominator
        semi[w] = sw
        bucket_next[w] = bucket_head[sw]
        bucket_head[sw] = w
        ancestor[w] = parent[w]
        p = parent[w]
        v = bucket_head[p]
        bucket_head[p] = 0
        while v != 0:
            # EVAL(v), inlined as above.
            if ancestor[v] == 0:
                u = v
            else:
                x = v
                while ancestor[ancestor[x]] != 0:
                    path.append(x)
                    x = ancestor[x]
                for y in reversed(path):
                    anc = ancestor[y]
                    if semi[label[anc]] < semi[label[y]]:
                        label[y] = label[anc]
                    ancestor[y] = ancestor[anc]
                del path[:]
                u = label[v]
            idom_num[v] = u if semi[u] < semi[v] else p
            v = bucket_next[v]

    if ticker is not None and ticker.profile is not None:
        ticker.mark("semidominators")

    # --- step 4: explicit idoms -------------------------------------------
    for w in range(2, nr + 1):
        if idom_num[w] != semi[w]:
            idom_num[w] = idom_num[idom_num[w]]
    if nr:
        idom_num[1] = 1

    idom = [-1] * n
    for w in range(1, nr + 1):
        idom[vertex[w]] = vertex[idom_num[w]]
    if ticker is not None and ticker.profile is not None:
        ticker.mark("idoms")
    return idom


def kernel_iterative_dominators(
    frozen: FrozenCFG,
    root: int,
    ticker: Optional[Ticker] = None,
    reverse: bool = False,
) -> List[int]:
    """Cooper-Harvey-Kennedy iterative idoms by node index; ``-1`` marks
    unreachable nodes.

    Array port of :func:`repro.dominance.iterative.immediate_dominators`
    (which is retained as the object-graph reference): a data-flow fixpoint
    over reverse postorder whose ``intersect`` walk *is* dominator-set
    intersection in compressed form -- walking two postorder numbers up the
    current idom forest meets the two (implicit) dominator sets without
    ever materializing them.  Same convention (``idom[root] == root``) and
    same billing (one step per node per sweep, charged at the top of each
    sweep).  With ``reverse=True`` the edge direction flips, as in
    :func:`kernel_lengauer_tarjan`, yielding postdominators when called
    with ``root=frozen.end``.
    """
    n = frozen.num_nodes
    if reverse:
        succ_off = frozen.pred_off
        succ_dst = frozen.pred_src
        pred_off = frozen.succ_off
        pred_src = frozen.succ_dst
    else:
        succ_off = frozen.succ_off
        succ_dst = frozen.succ_dst
        pred_off = frozen.pred_off
        pred_src = frozen.pred_src
    tick = None if ticker is None else ticker.tick

    # Reverse postorder, with the same mark-at-push DFS as the traversal
    # module so sweep counts (and therefore ticker charges) match the
    # reference exactly.
    visited = bytearray(n)
    visited[root] = 1
    post: List[int] = []
    stack = [[root, succ_off[root], succ_off[root + 1]]]
    while stack:
        frame = stack[-1]
        ptr = frame[1]
        end_ptr = frame[2]
        advanced = False
        while ptr < end_ptr:
            nxt = succ_dst[ptr]
            ptr += 1
            if not visited[nxt]:
                visited[nxt] = 1
                frame[1] = ptr
                stack.append([nxt, succ_off[nxt], succ_off[nxt + 1]])
                advanced = True
                break
        if not advanced:
            post.append(frame[0])
            stack.pop()
    order = post[::-1]
    nr = len(order)

    # Position in reverse postorder; -1 marks unreachable.  The reference
    # compares *postorder* numbers (higher = closer to the root), which is
    # the same as comparing RPO positions with the inequality flipped.
    rpo_pos = [-1] * n
    for i, nd in enumerate(order):
        rpo_pos[nd] = i
    idom = [-1] * n
    idom[root] = root

    changed = True
    while changed:
        changed = False
        if tick is not None:
            tick(nr)  # the sweep we are about to run
        for nd in order:
            if nd == root:
                continue
            new = -1
            for i in range(pred_off[nd], pred_off[nd + 1]):
                p = pred_src[i]
                if rpo_pos[p] < 0 or idom[p] < 0:
                    continue
                if new < 0:
                    new = p
                    continue
                a = p
                b = new
                pa = rpo_pos[a]
                pb = rpo_pos[b]
                while a != b:
                    while pa > pb:
                        a = idom[a]
                        pa = rpo_pos[a]
                    while pb > pa:
                        b = idom[b]
                        pb = rpo_pos[b]
                new = a
            if new < 0:
                continue  # no processed predecessor yet (can't happen after pass 1)
            if idom[nd] != new:
                idom[nd] = new
                changed = True

    return idom


def kernel_immediate_dominators(
    frozen: FrozenCFG,
    root: int,
    ticker: Optional[Ticker] = None,
) -> Dict[object, object]:
    """:func:`kernel_iterative_dominators` keyed by node ids; only reachable
    nodes appear."""
    return idoms_by_node(frozen, kernel_iterative_dominators(frozen, root, ticker))


def idoms_by_node(frozen: FrozenCFG, idom: List[int]) -> Dict[object, object]:
    """An idom array keyed by node ids; nodes off the tree are left out."""
    node_ids = frozen.node_ids
    return {node_ids[i]: node_ids[d] for i, d in enumerate(idom) if d >= 0}


def _preorder_intervals(idom: List[int], root: int) -> Tuple[List[int], List[int]]:
    """Number the tree an idom array describes into preorder intervals.

    Returns ``(pre, last)``: ``u`` dominates ``w`` (every node dominates
    itself) iff ``pre[u] <= pre[w] <= last[u]``.  Nodes off the tree
    (``idom == -1``) get ``pre == last == -1``.
    """
    n = len(idom)
    first_child = [-1] * n
    next_sibling = [-1] * n
    for w in range(n):
        p = idom[w]
        if p >= 0 and w != root:
            next_sibling[w] = first_child[p]
            first_child[p] = w
    pre = [-1] * n
    order: List[int] = []
    stack = [root]
    while stack:
        w = stack.pop()
        pre[w] = len(order)
        order.append(w)
        c = first_child[w]
        while c >= 0:
            stack.append(c)
            c = next_sibling[c]
    # Reverse preorder finishes every subtree before its root.
    last = pre[:]
    for w in reversed(order):
        p = idom[w]
        if last[w] > last[p]:
            last[p] = last[w]
    return pre, last


class EdgeDominance:
    """Edge dominance and postdominance, read off a CFG's own node trees.

    Definition 2 asks whether one *edge* (post)dominates another.  Splitting
    every edge by a fresh node (:meth:`repro.cfg.graph.CFG.edge_split`)
    turns that into node dominance on a graph of ``V + E`` nodes; the same
    answers follow from the dominator tree ``idom`` and the postdominator
    tree ``ipdom`` of G itself.  For distinct edges ``a = (u -> v)`` and
    ``b = (x -> y)``:

    * ``a`` dominates ``b`` iff ``v`` dominates ``x`` and ``a`` is the only
      in-edge of ``v`` whose source ``v`` does not dominate;
    * ``b`` postdominates ``a`` iff ``x`` postdominates ``v`` and ``b`` is
      the only out-edge of ``x`` whose target ``x`` does not postdominate.

    Every path from ``start`` to ``x`` passes ``v``, and its first arrival
    at ``v`` comes over an in-edge from a node ``v`` does not dominate.
    Each such edge starts a path to ``v`` that avoids the others, and from
    ``v`` a path to ``x`` need never re-enter ``v``; so ``a`` is unavoidable
    exactly when it is the only one.  The second rule is the first on the
    reversed graph.  Parallel edges are distinct edges with equal
    endpoints, so neither of two parallel entries into ``v`` dominates.

    Both trees are numbered into preorder intervals, so a query costs the
    degree of one boundary node.  The graph must satisfy Definition 1
    (every node on a path from ``start`` to ``end``).
    """

    __slots__ = ("_frozen", "_ipdom", "_dom", "_pdom")

    def __init__(self, frozen: FrozenCFG, idom: List[int], ipdom: List[int]):
        self._frozen = frozen
        self._ipdom = ipdom
        self._dom = _preorder_intervals(idom, frozen.start)
        self._pdom = _preorder_intervals(ipdom, frozen.end)

    def dominates(self, a: Edge, b: Edge) -> bool:
        """True iff edge ``a`` dominates the distinct edge ``b``."""
        frozen = self._frozen
        index_of = frozen.index_of
        return _sole_unavoidable(
            self._dom, frozen.pred_off, frozen.pred_src,
            index_of[a.target], index_of[a.source], index_of[b.source],
        )

    def postdominates(self, b: Edge, a: Edge) -> bool:
        """True iff edge ``b`` postdominates the distinct edge ``a``."""
        frozen = self._frozen
        index_of = frozen.index_of
        return _sole_unavoidable(
            self._pdom, frozen.succ_off, frozen.succ_dst,
            index_of[b.source], index_of[b.target], index_of[a.target],
        )


def _sole_unavoidable(
    intervals: Tuple[List[int], List[int]],
    off: List[int],
    nbr: List[int],
    v: int,
    u: int,
    x: int,
) -> bool:
    """The lemma on one tree: ``v`` dominates ``x``, and of ``v``'s incoming
    neighbours (rows ``off``/``nbr``, counted with multiplicity) ``u`` is
    the only one ``v`` does not dominate."""
    pre, last = intervals
    lo = pre[v]
    hi = last[v]
    if not lo <= pre[x] <= hi or lo <= pre[u] <= hi:
        return False
    outside = 0
    for i in range(off[v], off[v + 1]):
        if not lo <= pre[nbr[i]] <= hi:
            outside += 1
    return outside == 1


#: Seed of the random words :func:`control_dependence_sums` adds up; fixed,
#: so every verdict is reproducible.
_SUM_SEED = 0x5E5E17


def control_dependence_sums(
    dominance: EdgeDominance, ticker: Optional[Ticker] = None
) -> Tuple[List[int], List[int]]:
    """A sum of random words for each edge's and each node's
    control-dependence set; equal sets give equal sums.

    Split every edge ``e = u -> v`` by a fresh node ``x_e``.  ``x_e`` lies
    on exactly the cycles of ``e``, so in the split graph G' node cycle
    equivalence gives G's edge classes (on the ``x_e``) and its node
    classes (on G's own nodes), and Theorem 7 turns both into equal
    control-dependence sets.  Each set is summarized FOW-style
    (:mod:`repro.controldep.fow`): every G' edge ``c`` draws a word ``h``,
    adds it at the first node of its postdominator-tree walk and subtracts
    it at the walk's stop, and a node's sum is the total over its subtree.
    The ``end -> start`` augmentation adds its word at ``start``.

    G' is never built.  Its postdominator tree follows from G's: ``x_e``
    hangs below ``v``, and ``u`` hangs below ``x_e`` when ``e`` is ``u``'s
    only out-edge to a node ``u`` does not postdominate (the lemma of
    :class:`EdgeDominance`), otherwise below its own ``ipdom``.  The edge
    ``x_e -> v`` controls nothing, so only the ``u -> x_e`` halves draw.

    Returns ``(edge_sums, node_sums)``, by edge and node index.  Checked
    against them, a partition that splits a set is always caught; one that
    merges two sets escapes only if their sums collide, about once in 2**64.
    ``ticker`` is charged one step per node of G', as one sweep of
    :func:`kernel_iterative_dominators` is.
    """
    frozen = dominance._frozen
    n = frozen.num_nodes
    m = frozen.num_edges
    if ticker is not None:
        ticker.tick(n + m)
    ipdom = dominance._ipdom
    pre, last = dominance._pdom
    succ_off = frozen.succ_off
    succ_edge = frozen.succ_edge
    succ_dst = frozen.succ_dst
    pred_off = frozen.pred_off
    pred_edge = frozen.pred_edge
    end = frozen.end
    words = array("Q", random.Random(_SUM_SEED).randbytes(8 * (m + 1))).tolist()
    edge_sum = words[:m]  # + at each x_e
    node_sum = [0] * n
    node_sum[frozen.start] = words[m]  # the end -> start augmentation

    # Subtree totals, children first.  Reverse preorder of G's tree visits
    # every node after its G-children, and x_e's only possible child u
    # (when e is u's sole way out) is a G-child of e's target, so each
    # in-edge's x_e total is final when its target is reached.  The walks
    # of u's out-edges all stop at u's parent in G', so u passes its total
    # up less their words.
    order = [0] * n
    for w in range(n):
        order[pre[w]] = w
    for w in reversed(order):
        total = node_sum[w]
        for i in range(pred_off[w], pred_off[w + 1]):
            total += edge_sum[pred_edge[i]]
        node_sum[w] = total
        lo = pre[w]
        hi = last[w]
        outside = 0
        sole = -1
        for i in range(succ_off[w], succ_off[w + 1]):
            e = succ_edge[i]
            total -= words[e]
            if not lo <= pre[succ_dst[i]] <= hi:
                outside += 1
                sole = e
        if outside == 1:
            edge_sum[sole] += total  # w hangs below x_sole
        elif w != end:
            node_sum[ipdom[w]] += total
    return edge_sum, node_sum
