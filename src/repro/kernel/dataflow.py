"""Array-based iterative worklist solvers over CSR rows.

Mirrors :func:`repro.dataflow.iterative.solve_iterative_reference` with the
worklist, pending set, and per-node values all indexed by dense node ints.
Backward problems run directly over the predecessor CSR rows (the rows
double as the reverse graph), so no ``cfg.reversed()`` copy is ever built.

The rows are a :class:`~repro.kernel.csr.FrozenCFG` snapshot of a whole CFG
or a :class:`~repro.dataflow.qpg.QPGRows` quick propagation graph: the
solvers read only ``num_nodes``, ``node_ids``, ``start``, ``end`` and the
``succ_off``/``succ_dst`` and ``pred_off``/``pred_src`` rows, which both
provide.

Two solvers share that traversal:

* :func:`kernel_solve_iterative` keeps lattice values opaque and calls the
  problem's ``meet``/``transfer`` -- it solves any
  :class:`~repro.dataflow.framework.DataflowProblem` (constant propagation
  included).
* :func:`packed_solve_genkill` solves the stock gen/kill problems (reaching
  definitions, live variables, available expressions, the per-variable QPG
  problems) on packed bit rows: each fact is one bit of a Python big int,
  so transfer is ``gen | (x & ~kill)`` and meet over predecessors is a
  chain of ``|`` or ``&``.  The packing is a bijection, so the fixpoint
  decodes to exactly the frozensets the generic solver computes.

:func:`kernel_solver` decides which of the two a problem gets, from the
problem's type alone.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, List, Optional, Tuple

from repro.dataflow.framework import BACKWARD, DataflowProblem, GenKillProblem, Solution
from repro.resilience.guards import TICK_CHUNK, Ticker


def _directed(rows, backward: bool) -> Tuple[int, list, list, list, list]:
    """``(root, succ_off, succ_dst, pred_off, pred_src)`` in the solving
    direction; raises ``KeyError`` when that direction has no root."""
    if backward:
        out = (rows.end, rows.pred_off, rows.pred_src, rows.succ_off, rows.succ_dst)
    else:
        out = (rows.start, rows.succ_off, rows.succ_dst, rows.pred_off, rows.pred_src)
    if out[0] < 0:
        raise KeyError(
            f"the rows have no {'end' if backward else 'start'} node; the "
            "iterative solver needs a root in the solving direction"
        )
    return out


def _seed_order(
    n: int, root: int, succ_off: list, succ_dst: list
) -> Tuple[List[int], bytearray]:
    """Reverse postorder from ``root`` and the reachability mask."""
    visited = bytearray(n)
    visited[root] = 1
    order: List[int] = []
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
            order.append(frame[0])
            stack.pop()
    order.reverse()
    return order, visited


def _solution(node_ids: list, entry: list, exit_: list, backward: bool) -> Solution:
    entry_d = {node_ids[i]: v for i, v in enumerate(entry)}
    exit_d = {node_ids[i]: v for i, v in enumerate(exit_)}
    if backward:
        # program order: `before` is the transferred (in) value.
        return Solution(before=exit_d, after=entry_d)
    return Solution(before=entry_d, after=exit_d)


def kernel_solve_iterative(
    rows, problem: DataflowProblem, ticker: Optional[Ticker] = None
) -> Solution:
    """Solve ``problem`` over the CSR ``rows`` to its maximal fixpoint.

    Same contract and ticker billing (one step per worklist pop, batched in
    :data:`~repro.resilience.guards.TICK_CHUNK`) as the object-graph
    reference.  Requires the root in the solving direction (``start``, or
    ``end`` for backward problems) to be present in the rows.
    """
    backward = problem.direction == BACKWARD
    n = rows.num_nodes
    root, succ_off, succ_dst, pred_off, pred_src = _directed(rows, backward)
    node_ids = rows.node_ids
    transfer = problem.transfer
    meet = problem.meet

    order, visited = _seed_order(n, root, succ_off, succ_dst)
    if ticker is not None and ticker.profile is not None:
        ticker.mark("seed_order")

    # Nodes unreachable in the solving direction keep top (see the object
    # reference for why such nodes can occur transiently).  Reachable nodes
    # seed their exit with top, the meet identity, not transfer(top): a
    # transfer that is non-monotone at top (constant propagation maps an
    # UNDEF read to NAC) must not leak a pessimistic seed into a
    # successor's first meet -- see the object reference.
    entry: List[object] = [problem.top() for _ in range(n)]
    entry[root] = problem.boundary()
    exit_: List[object] = [
        problem.top() if visited[i] else transfer(node_ids[i], entry[i])
        for i in range(n)
    ]

    tick = None if ticker is None else ticker.tick
    pending = bytearray(n)
    for i in order:
        pending[i] = 1
    queue = deque(order)
    unbilled = 0
    while queue:
        if tick is not None:
            unbilled += 1
            if unbilled == TICK_CHUNK:
                tick(TICK_CHUNK)
                unbilled = 0
        node = queue.popleft()
        pending[node] = 0
        if node != root:
            value = None
            for i in range(pred_off[node], pred_off[node + 1]):
                pv = exit_[pred_src[i]]
                value = pv if value is None else meet(value, pv)
            if value is None:
                value = problem.top()
            entry[node] = value
        new_exit = transfer(node_ids[node], entry[node])
        if new_exit != exit_[node]:
            exit_[node] = new_exit
            for i in range(succ_off[node], succ_off[node + 1]):
                succ = succ_dst[i]
                if not pending[succ]:
                    pending[succ] = 1
                    queue.append(succ)
    if tick is not None and unbilled:
        tick(unbilled)
    if ticker is not None and ticker.profile is not None:
        ticker.mark("worklist")
    return _solution(node_ids, entry, exit_, backward)


def packed_solve_genkill(
    rows, problem: GenKillProblem, ticker: Optional[Ticker] = None
) -> Solution:
    """Packed bit-row worklist solve of a stock gen/kill problem over ``rows``.

    Same traversal, ticker billing (one step per pop) and ``Solution``
    shape as :func:`kernel_solve_iterative`; the lattice values change
    representation.  Each frozenset becomes a Python big int with one bit
    per fact, and ``int.__eq__`` agrees with frozenset equality under that
    bijection, so the fixpoint is identical.
    """
    backward = problem.direction == BACKWARD
    n = rows.num_nodes
    root, succ_off, succ_dst, pred_off, pred_src = _directed(rows, backward)
    node_ids = rows.node_ids

    # One bit per fact.  The index covers the universe plus any stray
    # facts a problem's gen/kill sets mention beyond it, so packing never
    # drops information.
    index: Dict[object, int] = {}
    for f in problem.universe():
        index.setdefault(f, len(index))
    universe_mask = (1 << len(index)) - 1
    gen_bits = [0] * n
    notk_bits = [0] * n
    for i in range(n):
        node = node_ids[i]
        g = 0
        for f in problem.gen(node):
            g |= 1 << index.setdefault(f, len(index))
        k = 0
        for f in problem.kill(node):
            k |= 1 << index.setdefault(f, len(index))
        gen_bits[i] = g
        notk_bits[i] = ~k
    union_meet = problem.meet_is_union
    top_bits = 0 if union_meet else universe_mask

    order, _ = _seed_order(n, root, succ_off, succ_dst)
    if ticker is not None and ticker.profile is not None:
        ticker.mark("seed_order")

    # Every exit starts at transfer(top), not at top as in the generic
    # solver: gen/kill transfers are monotone, so the fixpoint is the same
    # (the generic solver's seeding guards transfers that are not), and
    # starting from gen spares about a third of the pops.
    entry = [top_bits] * n
    entry[root] = 0  # the empty boundary
    exit_ = [gen_bits[i] | (top_bits & notk_bits[i]) for i in range(n)]

    tick = None if ticker is None else ticker.tick
    pending = bytearray(n)
    for i in order:
        pending[i] = 1
    queue = deque(order)
    unbilled = 0
    while queue:
        if tick is not None:
            unbilled += 1
            if unbilled == TICK_CHUNK:
                tick(TICK_CHUNK)
                unbilled = 0
        node = queue.popleft()
        pending[node] = 0
        if node != root:
            lo = pred_off[node]
            hi = pred_off[node + 1]
            if lo == hi:
                # The meet over no predecessors is top (the generic
                # solver's value-is-None branch).
                value = top_bits
            elif union_meet:
                value = 0
                for i in range(lo, hi):
                    value |= exit_[pred_src[i]]
            else:
                value = exit_[pred_src[lo]]
                for i in range(lo + 1, hi):
                    value &= exit_[pred_src[i]]
            entry[node] = value
        new_exit = gen_bits[node] | (entry[node] & notk_bits[node])
        if new_exit != exit_[node]:
            exit_[node] = new_exit
            for i in range(succ_off[node], succ_off[node + 1]):
                succ = succ_dst[i]
                if not pending[succ]:
                    pending[succ] = 1
                    queue.append(succ)
    if tick is not None and unbilled:
        tick(unbilled)
    if ticker is not None and ticker.profile is not None:
        ticker.mark("worklist")

    # Decode back to frozensets, memoizing per distinct bit pattern (the
    # fixpoint typically has far fewer distinct values than nodes).
    facts = [None] * len(index)
    for f, b in index.items():
        facts[b] = f
    decoded: Dict[int, frozenset] = {}

    def decode(bits: int) -> frozenset:
        got = decoded.get(bits)
        if got is None:
            members = []
            v = bits
            while v:
                low = v & -v
                members.append(facts[low.bit_length() - 1])
                v ^= low
            got = decoded[bits] = frozenset(members)
        return got

    return _solution(
        node_ids, [decode(b) for b in entry], [decode(b) for b in exit_], backward
    )


def kernel_solver(problem: DataflowProblem) -> Callable[..., Solution]:
    """The kernel that solves ``problem``: :func:`packed_solve_genkill` for
    a stock :class:`GenKillProblem`, :func:`kernel_solve_iterative` for
    everything else.

    A subclass that overrides any of the framework-implemented methods
    (``transfer``/``meet``/``boundary``/``top``) could diverge from the
    closed gen/kill form the bit packing assumes, so only the stock
    implementations get the packed solver.
    """
    if isinstance(problem, GenKillProblem):
        cls = type(problem)
        if (
            cls.transfer is GenKillProblem.transfer
            and cls.meet is GenKillProblem.meet
            and cls.boundary is GenKillProblem.boundary
            and cls.top is GenKillProblem.top
        ):
            return packed_solve_genkill
    return kernel_solve_iterative
