"""Array-based cycle equivalence (Figure 4) over CSR snapshots.

Same algorithm as :mod:`repro.core.cycle_equiv` (which is retained as the
object-graph reference oracle), with every piece of per-node / per-edge
state held in flat integer arrays instead of objects:

* the undirected multigraph is a CSR adjacency over undirected-edge ids;
* DFS state (numbering, parent edge, child lists, backedge lists) lives in
  arrays indexed by DFS number, with the per-node collections (children,
  originating/ending backedges, capping brackets) as linked lists threaded
  through ``next``-pointer arrays -- no per-node list objects;
* the :class:`~repro.core.bracketlist.BracketList` ADT becomes a doubly
  linked list threaded through ``b_next``/``b_prev`` arrays, with each
  node's list a ``(head, tail, size)`` triple -- push, delete, and concat
  stay O(1) and allocation-free.

Class ids come out identical to the reference because both follow the same
DFS and call ``new-class()`` in the same order.

The fault sites of the object implementation are preserved under the same
names (``cycle-equiv/skip-cap`` via this module's ``_FAULTS`` hook,
``bracketlist/push-bottom`` via :mod:`repro.core.bracketlist`'s hook), so
the resilience engine's detect-and-fallback behaviour is testable on the
kernel path exactly as before.
"""

from __future__ import annotations

from itertools import accumulate, islice
from typing import List, Optional, Sequence, Tuple

from repro.cfg.graph import InvalidCFGError
from repro.kernel.csr import FrozenCFG
from repro.obs import observer as _obs
from repro.resilience.guards import Ticker

# Fault-injection hook for the "cycle-equiv/skip-cap" site (installed and
# cleared by repro.resilience.faults alongside the object-path hook).
_FAULTS = None


def kernel_cycle_equivalence(
    frozen: FrozenCFG,
    root: Optional[int] = None,
    virtual_edges: Sequence[Tuple[int, int]] = (),
    ticker: Optional[Ticker] = None,
) -> List[int]:
    """Edge cycle-equivalence classes of a strongly connected snapshot.

    Mirrors :func:`repro.core.cycle_equiv.cycle_equivalence_scc`: ``root``
    and ``virtual_edges`` use *node indices*.  The return value is a list
    of class ids, one per edge index, followed by one per virtual edge in
    the order given (the reference does not report those; a virtual
    self-loop, which lies on no other cycle, gets ``-1``).  Raises
    :class:`~repro.cfg.graph.InvalidCFGError` on disconnected or bridged
    inputs, like the reference.
    """
    root = frozen.start if root is None else root
    key = tuple(virtual_edges)
    csr = frozen.undirected.get(key)
    if csr is None:
        csr = _undirected_csr(
            frozen.num_nodes, frozen.edge_src, frozen.edge_dst, key
        )
        frozen.undirected[key] = csr
    return _cycle_equivalence_arrays(
        frozen.num_nodes,
        frozen.edge_src,
        frozen.edge_dst,
        root,
        key,
        ticker,
        frozen.node_ids,
        csr,
    )


def _undirected_csr(
    n: int,
    esrc: List[int],
    edst: List[int],
    virtual_edges: Sequence[Tuple[int, int]],
) -> Tuple[List[int], List[int], int, int, List[int], List[int], List[int]]:
    """Undirected multigraph CSR over undirected-edge ids.

    Returns ``(self_loops, ue_edge, n_real, n_ue, adj_off, adj,
    adj_other)``; ``ue_edge`` maps each undirected edge to its edge index,
    with virtual edge ``k`` numbered ``m + k``.  The result is purely
    structural -- never mutated by the Figure 4 sweep -- so
    :func:`kernel_cycle_equivalence` caches it on the frozen snapshot
    keyed by the virtual-edge tuple.
    """
    m = len(esrc)
    deg = [0] * n
    self_loops: List[int] = []
    if all(map(int.__ne__, esrc, edst)):  # fast path: no self-loops
        ue_edge: List[int] = list(range(m))
        ue_u: List[int] = list(esrc)
        ue_v: List[int] = list(edst)
        for u in esrc:
            deg[u] += 1
        for v in edst:
            deg[v] += 1
    else:
        ue_u = []
        ue_v = []
        ue_edge = []  # edge index; virtual edge k is m + k
        for e in range(m):
            u = esrc[e]
            v = edst[e]
            if u == v:
                self_loops.append(e)
                continue
            ue_edge.append(e)
            ue_u.append(u)
            ue_v.append(v)
            deg[u] += 1
            deg[v] += 1
    n_real = len(ue_edge)
    for k, (u, v) in enumerate(virtual_edges):
        if u == v:
            continue  # a virtual self-loop cannot affect any class
        ue_edge.append(m + k)
        ue_u.append(u)
        ue_v.append(v)
        deg[u] += 1
        deg[v] += 1
    n_ue = len(ue_edge)

    adj_off = [0]
    adj_off.extend(accumulate(deg))
    acc = adj_off[n]
    adj = [0] * acc  # undirected-edge id per slot
    adj_other = [0] * acc  # the far endpoint of that edge, precomputed
    fill = adj_off[:n]
    ue = 0
    for u, v in zip(ue_u, ue_v):
        slot = fill[u]
        adj[slot] = ue
        adj_other[slot] = v
        fill[u] = slot + 1
        slot = fill[v]
        adj[slot] = ue
        adj_other[slot] = u
        fill[v] = slot + 1
        ue += 1
    return self_loops, ue_edge, n_real, n_ue, adj_off, adj, adj_other


def _cycle_equivalence_arrays(
    n: int,
    esrc: List[int],
    edst: List[int],
    root: int,
    virtual_edges: Sequence[Tuple[int, int]],
    ticker: Optional[Ticker],
    node_ids: Optional[Sequence[object]] = None,
    csr: Optional[Tuple] = None,
) -> List[int]:
    """The Figure 4 kernel over raw arrays (see :func:`kernel_cycle_equivalence`).

    Exposed separately so derived graphs (the split graph of
    :func:`kernel_control_region_classes`) can run it without
    materializing a CFG or a snapshot.  ``csr`` is an optional precomputed
    :func:`_undirected_csr` for the same inputs.
    """
    m = len(esrc)
    if n == 0:
        return []
    tick = None if ticker is None else ticker.tick
    from repro.core import bracketlist as _bracketlist_mod

    ce_faults = _FAULTS
    bl_faults = _bracketlist_mod._FAULTS

    if csr is None:
        csr = _undirected_csr(n, esrc, edst, virtual_edges)
    self_loops, ue_edge, n_real, n_ue, adj_off, adj, adj_other = csr

    # Self-loops are singleton classes up front, exactly like the reference
    # (which scans edges in order and names them as it skips them).
    classes = [-1] * (m + len(virtual_edges))
    next_class = 0
    for e in self_loops:
        classes[e] = next_class
        next_class += 1

    # ------------------------------------------------------------------
    # Undirected DFS: numbering, tree edges, backedge orientation.  The
    # per-node collections are linked lists in next-pointer arrays,
    # appended at the tail so iteration order matches the reference's
    # Python lists exactly (class ids depend on it).
    # ------------------------------------------------------------------
    dfsnum = [-1] * n
    dfsnum[root] = 0
    node_at = [root]
    parent_ue = [-1] * n  # by DFS number
    first_child = [-1] * n  # by DFS number; linked via next_sib
    last_child = [-1] * n
    next_sib = [-1] * n
    ub_head = [-1] * n  # backedges originating here; linked via ub_next
    ub_tail = [-1] * n
    ub_next = [-1] * n_ue
    db_head = [-1] * n  # backedges ending here; linked via db_next
    db_tail = [-1] * n
    db_next = [-1] * n_ue
    ue_dest = [0] * n_ue  # backedge destination DFS number
    processed = bytearray(n_ue)

    if tick is not None:
        tick(n + n_real)  # the DFS about to run is O(V + E)
    o = _obs._CURRENT
    dfs_span = o.span("cycle_equiv.dfs") if o is not None else None

    # frames: [node, dfsnum, next adjacency slot, row end]
    stack = [[root, 0, adj_off[root], adj_off[root + 1]]]
    while stack:
        frame = stack[-1]
        num = frame[1]
        ptr = frame[2]
        end_ptr = frame[3]
        advanced = False
        while ptr < end_ptr:
            ue = adj[ptr]
            if processed[ue]:
                ptr += 1
                continue
            processed[ue] = 1
            other = adj_other[ptr]
            ptr += 1
            onum = dfsnum[other]
            if onum == -1:
                onum = len(node_at)
                dfsnum[other] = onum
                node_at.append(other)
                parent_ue[onum] = ue
                if first_child[num] == -1:
                    first_child[num] = onum
                else:
                    next_sib[last_child[num]] = onum
                last_child[num] = onum
                frame[2] = ptr
                stack.append([other, onum, adj_off[other], adj_off[other + 1]])
                advanced = True
                break
            # Non-tree edge: in an undirected DFS it must connect `node` to a
            # proper ancestor (cross edges cannot exist).
            if onum >= num:
                raise AssertionError(
                    "undirected DFS produced a non-ancestor non-tree edge; "
                    "this indicates corrupted adjacency state"
                )
            ue_dest[ue] = onum
            if ub_head[num] == -1:
                ub_head[num] = ue
            else:
                ub_next[ub_tail[num]] = ue
            ub_tail[num] = ue
            if db_head[onum] == -1:
                db_head[onum] = ue
            else:
                db_next[db_tail[onum]] = ue
            db_tail[onum] = ue
        if not advanced:
            stack.pop()
    if dfs_span is not None:
        dfs_span.finish()
    if ticker is not None and ticker.profile is not None:
        ticker.mark("dfs")

    if len(node_at) != n:
        ids = node_ids if node_ids is not None else list(range(n))
        missing = [ids[i] for i in range(n) if dfsnum[i] == -1][:5]
        raise InvalidCFGError(
            f"graph is not connected: nodes {missing!r} unreachable from "
            f"{ids[root]!r} in the undirected multigraph (cycle equivalence "
            "requires a strongly connected input)"
        )

    # ------------------------------------------------------------------
    # Figure 4 main loop, reverse depth-first order.  Brackets live in
    # b_next/b_prev; ids < n_ue are the backedges themselves, higher ids
    # are capping brackets appended on demand (cap_next threads each
    # destination's caps, indexed by ``id - n_ue``).
    # ------------------------------------------------------------------
    INF = n + 1  # any value > every DFS number
    hi = [INF] * n
    b_next = [-1] * n_ue
    b_prev = [-1] * n_ue
    b_rsize = [-1] * n_ue  # recent_size
    b_rclass = [-1] * n_ue  # recent_class
    b_class = [-1] * n_ue
    b_cap = bytearray(n_ue)
    ue_class = [-1] * n_ue
    cap_head = [-1] * n  # capping brackets ending here; linked via cap_next
    cap_next: List[int] = []
    bl_head = [-1] * n
    bl_tail = [-1] * n
    bl_size = [0] * n

    if tick is not None:
        tick(n)  # the reverse depth-first sweep about to run
    bracket_span = o.span("cycle_equiv.brackets") if o is not None else None

    for num in range(n - 1, -1, -1):
        # Single pass over the children: track the highest (hi1) and second
        # highest (hi2) subtree reach while splicing their bracket lists
        # together (earlier child on top, matching the reference's concat).
        hi1 = INF
        hi2 = INF
        h = -1
        t = -1
        sz = 0
        c = first_child[num]
        while c != -1:
            child_hi = hi[c]
            if child_hi < hi1:
                hi2 = hi1
                hi1 = child_hi
            elif child_hi < hi2:
                hi2 = child_hi
            ch = bl_head[c]
            if ch != -1:
                if h == -1:
                    h = ch
                else:
                    b_next[t] = ch
                    b_prev[ch] = t
                t = bl_tail[c]
                sz += bl_size[c]
            c = next_sib[c]

        # Delete capping brackets ending here.
        b = cap_head[num]
        while b != -1:
            p = b_prev[b]
            nx = b_next[b]
            if p != -1:
                b_next[p] = nx
            else:
                h = nx
            if nx != -1:
                b_prev[nx] = p
            else:
                t = p
            sz -= 1
            b = cap_next[b - n_ue]
        # Delete real backedges ending here; orphaned ones get fresh classes.
        b = db_head[num]
        while b != -1:
            p = b_prev[b]
            nx = b_next[b]
            if p != -1:
                b_next[p] = nx
            else:
                h = nx
            if nx != -1:
                b_prev[nx] = p
            else:
                t = p
            sz -= 1
            cls = b_class[b]
            if cls == -1:
                cls = b_class[b] = next_class
                next_class += 1
            ue_class[b] = cls
            b = db_next[b]
        # Push backedges originating here (top; bottom under injection),
        # folding in hi0 -- the highest destination among them.
        hi0 = INF
        b = ub_head[num]
        while b != -1:
            d = ue_dest[b]
            if d < hi0:
                hi0 = d
            if bl_faults is not None and bl_faults.should_fire(
                "bracketlist/push-bottom"
            ):
                b_prev[b] = t
                b_next[b] = -1
                if t != -1:
                    b_next[t] = b
                t = b
                if h == -1:
                    h = b
            else:
                b_next[b] = h
                b_prev[b] = -1
                if h != -1:
                    b_prev[h] = b
                h = b
                if t == -1:
                    t = b
            sz += 1
            b = ub_next[b]
        hi[num] = hi0 if hi0 < hi1 else hi1
        # Capping backedge: needed iff a *second* child subtree reaches a
        # proper ancestor of node, higher than node's own backedges reach.
        if hi2 < hi0 and hi2 < num:
            if ce_faults is not None and ce_faults.should_fire("cycle-equiv/skip-cap"):
                pass  # injected fault: silently skip the capping bracket
            else:
                b = n_ue + len(cap_next)
                b_rsize.append(-1)
                b_rclass.append(-1)
                b_class.append(-1)
                b_cap.append(1)
                cap_next.append(cap_head[hi2])
                cap_head[hi2] = b
                if bl_faults is not None and bl_faults.should_fire(
                    "bracketlist/push-bottom"
                ):
                    b_prev.append(t)
                    b_next.append(-1)
                    if t != -1:
                        b_next[t] = b
                    t = b
                    if h == -1:
                        h = b
                else:
                    b_next.append(h)
                    b_prev.append(-1)
                    if h != -1:
                        b_prev[h] = b
                    h = b
                    if t == -1:
                        t = b
                sz += 1

        bl_head[num] = h
        bl_tail[num] = t
        bl_size[num] = sz

        # Name the equivalence class of the tree edge into node.
        if num != 0:
            if sz == 0:
                ids = node_ids if node_ids is not None else list(range(n))
                raise InvalidCFGError(
                    f"tree edge into {ids[node_at[num]]!r} has no brackets: the "
                    "undirected multigraph has a bridge, so the input is not "
                    "strongly connected"
                )
            b = h  # topmost bracket
            if b_rsize[b] != sz:
                b_rsize[b] = sz
                b_rclass[b] = next_class
                next_class += 1
            ue_class[parent_ue[num]] = b_rclass[b]
            # Theorem 4: a backedge that is the *only* bracket of a tree edge
            # is cycle equivalent to it.
            if b_rsize[b] == 1 and not b_cap[b]:
                b_class[b] = b_rclass[b]

    if bracket_span is not None:
        bracket_span.finish()
    if ticker is not None and ticker.profile is not None:
        ticker.mark("brackets")

    naming_span = o.span("cycle_equiv.naming") if o is not None else None
    for e, cls in zip(ue_edge, ue_class):
        assert cls != -1, f"unlabelled undirected edge {e}"
        classes[e] = cls
    if naming_span is not None:
        naming_span.finish()
    if ticker is not None and ticker.profile is not None:
        ticker.mark("naming")
    return classes


def kernel_control_region_classes(
    frozen: FrozenCFG,
    ticker: Optional[Ticker] = None,
    s_classes: Optional[List[int]] = None,
    return_class: int = -1,
) -> List[int]:
    """Node cycle-equivalence class per node index (Theorems 7 & 8).

    Theorem 8 reads node classes off the node expansion ``T(S)`` of the
    return-edge-augmented graph ``S``, but only a node that has several
    in-edges *and* several out-edges in ``S`` needs its own edge: a node
    with one in-edge lies on exactly the cycles through that edge (one
    out-edge, likewise).  So this splits only those nodes, into an in-half
    and an out-half joined by a representative edge.  Directed cycles of
    that graph ``S'`` and of ``S`` correspond one to one, and every node's
    class is the class of its sole in-edge, else of its sole out-edge,
    else of its representative edge.  ``start`` and ``end`` take the class
    of the ``end -> start`` return edge.

    When no node needs a split, ``S' = S``.  Then ``s_classes`` (``S``'s
    edge classes by edge index, from a Figure 4 pass over this snapshot)
    and ``return_class`` (the return edge's class) give every node class
    with no further pass; without them, one pass runs over ``S`` on the
    snapshot's cached undirected CSR.  The split test is "no sole in-edge
    and no sole out-edge", which in a valid CFG means at least two of
    each; on an invalid input with an edgeless side the pass meets the
    same bridge or disconnection as under ``T(S)`` and raises
    :class:`~repro.cfg.graph.InvalidCFGError`.
    """
    n = frozen.num_nodes
    if n == 0:
        return []
    start = frozen.start
    end = frozen.end
    if start < 0 or end < 0:
        raise InvalidCFGError("CFG must have start and end nodes set")
    m = frozen.num_edges
    pred_off = frozen.pred_off
    pred_edge = frozen.pred_edge
    succ_off = frozen.succ_off
    succ_edge = frozen.succ_edge

    # rep[v]: the S' edge whose class is v's.  Index m is the return edge;
    # -1 marks a node to split.  G's degrees are S's except at start
    # (one more in-edge) and end (one more out-edge), fixed up below.
    rep = [
        pred_edge[p0] if p1 - p0 == 1 else succ_edge[s0] if s1 - s0 == 1 else -1
        for p0, p1, s0, s1 in zip(
            pred_off, islice(pred_off, 1, None), succ_off, islice(succ_off, 1, None)
        )
    ]
    for v in (start, end):
        in_s = pred_off[v + 1] - pred_off[v] + (v == start)
        out_s = succ_off[v + 1] - succ_off[v] + (v == end)
        if in_s == 1:
            rep[v] = m if v == start else pred_edge[pred_off[v]]
        elif out_s == 1:
            rep[v] = m if v == end else succ_edge[succ_off[v]]
        else:
            rep[v] = -1

    if -1 not in rep:
        if s_classes is None:
            s_classes = kernel_cycle_equivalence(
                frozen, start, ((end, start),), ticker
            )
        else:
            s_classes = s_classes + [return_class]
        node_classes = list(map(s_classes.__getitem__, rep))
    else:
        # Build S': split node v keeps its in-edges and index v; its
        # out-half is node n + j, which takes v's out-edges and the
        # representative edge v -> n + j (edge m + 1 + j).
        x_src = list(frozen.edge_src)
        x_dst = list(frozen.edge_dst)
        x_src.append(end)
        x_dst.append(start)
        half = n
        for v, r in enumerate(rep):
            if r != -1:
                continue
            for slot in range(succ_off[v], succ_off[v + 1]):
                x_src[succ_edge[slot]] = half
            if v == end:
                x_src[m] = half
            rep[v] = len(x_src)
            x_src.append(v)
            x_dst.append(half)
            half += 1
        edge_classes = _cycle_equivalence_arrays(half, x_src, x_dst, start, (), ticker)
        node_classes = list(map(edge_classes.__getitem__, rep))
    if ticker is not None and ticker.profile is not None:
        ticker.mark("node-classes")
    return node_classes
