"""The baseline iterative worklist solver.

Works on any CFG and any :class:`~repro.dataflow.framework.DataflowProblem`.
Nodes are seeded in reverse postorder (postorder for backward problems) so
typical programs converge in a couple of sweeps.  Returns a
:class:`~repro.dataflow.framework.Solution` with values in program order
(``before``/``after`` per node) regardless of direction.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Optional, Set

from repro.cfg.graph import CFG, NodeId
from repro.cfg.traversal import reverse_postorder
from repro.dataflow.framework import BACKWARD, DataflowProblem, Solution
from repro.kernel.dataflow import (
    genkill_solver_compatible,
    kernel_solve_iterative,
    packed_solve_genkill,
)
from repro.kernel.registry import shared_frozen
from repro.obs import observer as _obs
from repro.resilience.guards import TICK_CHUNK, Ticker


def solve_iterative(
    cfg: CFG, problem: DataflowProblem, ticker: Optional[Ticker] = None
) -> Solution:
    """Solve ``problem`` over ``cfg`` to its maximal fixpoint.

    ``ticker`` is charged one step per worklist pop (billed in batches of
    :data:`~repro.resilience.guards.TICK_CHUNK`), so a deadline or step
    budget bounds slowly-converging (e.g. deep-chain) instances.

    Runs an array kernel over the shared frozen snapshot -- backward
    problems solve directly on the predecessor CSR rows, with no
    reversed-graph copy.  Stock gen/kill problems take the packed bit-row
    solver (:func:`repro.kernel.dataflow.packed_solve_genkill`); every
    other problem takes :func:`repro.kernel.dataflow.kernel_solve_iterative`.
    Both reach the same fixpoint and bill one step per worklist pop.
    :func:`solve_iterative_reference` is the retained object-graph
    implementation the fuzz oracles compare against.
    """
    if (cfg.end if problem.direction == BACKWARD else cfg.start) is None:
        return solve_iterative_reference(cfg, problem, ticker)
    solver = (
        packed_solve_genkill
        if genkill_solver_compatible(problem)
        else kernel_solve_iterative
    )
    return _obs.dispatch(
        "solve_iterative", "kernel", cfg, _solve_kernel, solver, cfg, problem, ticker
    )


def _solve_kernel(solver, cfg: CFG, problem: DataflowProblem, ticker) -> Solution:
    return solver(shared_frozen(cfg), problem, ticker)


def solve_iterative_reference(
    cfg: CFG, problem: DataflowProblem, ticker: Optional[Ticker] = None
) -> Solution:
    """Object-graph reference for :func:`solve_iterative` (same contract)."""
    return _obs.dispatch(
        "solve_iterative", "reference", cfg, _solve_iterative_reference, cfg, problem, ticker
    )


def _solve_iterative_reference(
    cfg: CFG, problem: DataflowProblem, ticker: Optional[Ticker]
) -> Solution:
    backward = problem.direction == BACKWARD
    if backward:
        graph = cfg.reversed()
    else:
        graph = cfg
    root = graph.start

    order = reverse_postorder(graph, root)
    position = {node: i for i, node in enumerate(order)}
    # Nodes unreachable in the solving direction keep top (e.g. a node that
    # cannot reach `end` never arises in a valid CFG, but subgraphs used by
    # the elimination solver may have them transiently).
    entry: Dict[NodeId, object] = {node: problem.top() for node in graph.nodes}
    exit_: Dict[NodeId, object] = {}
    entry[root] = problem.boundary()
    # Reachable nodes are seeded with top, the meet identity, NOT with
    # transfer(top): a transfer that is non-monotone at top (constant
    # propagation maps an UNDEF read to NAC) would otherwise leak a
    # pessimistic seed into a successor's first meet before the node is
    # ever evaluated on its real entry, and the leak depends on how many
    # transparent nodes buffer it -- so the QPG (which collapses those
    # buffers) would disagree with the full-CFG solve.  Unreachable nodes
    # are never popped; they keep the transferred value as before.
    reachable = set(order)
    for node in graph.nodes:
        if node in reachable:
            exit_[node] = problem.top()
        else:
            exit_[node] = problem.transfer(node, entry[node])

    tick = None if ticker is None else ticker.tick
    pending: Set[NodeId] = set(order)
    queue = deque(order)
    unbilled = 0
    while queue:
        if tick is not None:
            unbilled += 1
            if unbilled == TICK_CHUNK:
                tick(TICK_CHUNK)
                unbilled = 0
        node = queue.popleft()
        pending.discard(node)
        if node != root:
            preds = graph.predecessors(node)
            value = None
            for pred in preds:
                value = exit_[pred] if value is None else problem.meet(value, exit_[pred])
            if value is None:
                value = problem.top()
            entry[node] = value
        new_exit = problem.transfer(node, entry[node])
        if new_exit != exit_[node]:
            exit_[node] = new_exit
            for succ in graph.successors(node):
                if succ not in pending:
                    pending.add(succ)
                    queue.append(succ)
    if tick is not None and unbilled:
        tick(unbilled)

    if backward:
        # program order: `before` is the transferred (in) value.
        return Solution(before=exit_, after=entry)
    return Solution(before=entry, after=exit_)
