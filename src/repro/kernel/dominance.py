"""Array-based Lengauer-Tarjan over CSR snapshots.

Same algorithm (and the same tick billing and fault site) as
:mod:`repro.dominance.lengauer_tarjan`'s object-graph implementation, with
node ids replaced by dense indices: the DFS walks the flat ``succ_dst``
rows, the semidominator sweep walks ``pred_src``, and the EVAL/LINK forest
is the usual set of int arrays.  Passing ``reverse=True`` swaps the roles
of the two CSR halves, which computes *post*\\ dominators without ever
materializing a reversed copy of the graph.
"""

from __future__ import annotations

from typing import Dict, List, Optional

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


def kernel_immediate_dominators(
    frozen: FrozenCFG,
    root: int,
    ticker: Optional[Ticker] = None,
) -> Dict[object, object]:
    """Cooper-Harvey-Kennedy iterative idoms over the CSR snapshot.

    Array port of :func:`repro.dominance.iterative.immediate_dominators`
    (which is retained as the object-graph reference): a data-flow fixpoint
    over reverse postorder whose ``intersect`` walk *is* dominator-set
    intersection in compressed form -- walking two postorder numbers up the
    current idom forest meets the two (implicit) dominator sets without
    ever materializing them.  Same convention (``idom[root] == root``, only
    reachable nodes appear, keyed by node ids) and same billing (one step
    per node per sweep, charged at the top of each sweep).
    """
    n = frozen.num_nodes
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

    node_ids = frozen.node_ids
    return {node_ids[i]: node_ids[idom[i]] for i in range(n) if idom[i] >= 0}
