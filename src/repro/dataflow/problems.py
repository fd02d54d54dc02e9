"""Concrete dataflow problems over :class:`~repro.ir.LoweredProcedure`.

All four classics are gen/kill problems, so every solver in the package
(iterative, QPG-sparse, PST-elimination) applies to each of them:

* :class:`ReachingDefinitions` -- forward, may (union meet);
* :class:`LiveVariables` -- backward, may;
* :class:`AvailableExpressions` -- forward, must (intersection meet);
* :class:`VariableReachingDefs` -- the *single-instance* sparse problem
  ("which definitions of ``x`` reach here?") whose transfer function is the
  identity on every block not touching ``x`` -- the workload the paper's
  quick-propagation-graph experiments are about.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Tuple

from repro.cfg.graph import NodeId
from repro.dataflow.framework import BACKWARD, FORWARD, GenKillProblem
from repro.ir import LoweredProcedure

DefSite = Tuple[str, NodeId, int]  # (variable, block, statement index)


class ReachingDefinitions(GenKillProblem):
    """Which definition sites may reach each point (forward, union)."""

    direction = FORWARD
    meet_is_union = True

    def __init__(self, proc: LoweredProcedure):
        self.proc = proc
        self._universe: FrozenSet[DefSite] = frozenset(
            (stmt.target, block, index)
            for block in proc.cfg.nodes
            for index, stmt in enumerate(proc.blocks.get(block, []))
            if stmt.target is not None
        )
        self._gen: Dict[NodeId, FrozenSet[DefSite]] = {}
        self._kill: Dict[NodeId, FrozenSet[DefSite]] = {}
        defs_of_var: Dict[str, set] = {}
        for site in self._universe:
            defs_of_var.setdefault(site[0], set()).add(site)
        for block in proc.cfg.nodes:
            last_def: Dict[str, DefSite] = {}
            for index, stmt in enumerate(proc.blocks.get(block, [])):
                if stmt.target is not None:
                    last_def[stmt.target] = (stmt.target, block, index)
            gen = frozenset(last_def.values())
            kill = frozenset(
                site for var in last_def for site in defs_of_var[var]
            ) - gen
            self._gen[block] = gen
            self._kill[block] = kill

    def universe(self) -> FrozenSet:
        return self._universe

    def gen(self, node: NodeId) -> FrozenSet:
        return self._gen.get(node, frozenset())

    def kill(self, node: NodeId) -> FrozenSet:
        return self._kill.get(node, frozenset())


class LiveVariables(GenKillProblem):
    """Which variables may be used before redefinition (backward, union)."""

    direction = BACKWARD
    meet_is_union = True

    def __init__(self, proc: LoweredProcedure):
        self.proc = proc
        self._universe = frozenset(proc.variables())
        self._gen: Dict[NodeId, FrozenSet[str]] = {}
        self._kill: Dict[NodeId, FrozenSet[str]] = {}
        for block in proc.cfg.nodes:
            upward_exposed = set()
            defined = set()
            for stmt in proc.blocks.get(block, []):
                for use in stmt.uses:
                    if use not in defined:
                        upward_exposed.add(use)
                if stmt.target is not None:
                    defined.add(stmt.target)
            self._gen[block] = frozenset(upward_exposed)
            self._kill[block] = frozenset(defined)

    def universe(self) -> FrozenSet:
        return self._universe

    def gen(self, node: NodeId) -> FrozenSet:
        return self._gen.get(node, frozenset())

    def kill(self, node: NodeId) -> FrozenSet:
        return self._kill.get(node, frozenset())


class AvailableExpressions(GenKillProblem):
    """Which right-hand sides must already be computed (forward, ∩).

    Expressions are identified by their display text; an expression is
    killed when any of its operands is redefined.
    """

    direction = FORWARD
    meet_is_union = False

    def __init__(self, proc: LoweredProcedure):
        self.proc = proc
        operands: Dict[str, FrozenSet[str]] = {}
        for _, stmt in proc.statements():
            if stmt.target is not None and stmt.uses:
                operands.setdefault(self._expr_key(stmt), frozenset(stmt.uses))
        self._operands = operands
        self._universe = frozenset(operands)
        self._gen: Dict[NodeId, FrozenSet[str]] = {}
        self._kill: Dict[NodeId, FrozenSet[str]] = {}
        for block in proc.cfg.nodes:
            available = set()
            killed = set()
            for stmt in proc.blocks.get(block, []):
                if stmt.target is None:
                    continue
                key = self._expr_key(stmt)
                if stmt.uses and stmt.target not in operands.get(key, ()):
                    available.add(key)
                # A definition kills every expression reading the target.
                for expr, used in operands.items():
                    if stmt.target in used:
                        killed.add(expr)
                        available.discard(expr)
            self._gen[block] = frozenset(available)
            self._kill[block] = frozenset(killed) - self._gen[block]

    @staticmethod
    def _expr_key(stmt) -> str:
        return getattr(stmt, "text", repr(stmt))

    def universe(self) -> FrozenSet:
        return self._universe

    def gen(self, node: NodeId) -> FrozenSet:
        return self._gen.get(node, frozenset())

    def kill(self, node: NodeId) -> FrozenSet:
        return self._kill.get(node, frozenset())


class VariableReachingDefs(GenKillProblem):
    """Reaching definitions of one variable: the sparse QPG workload.

    Every block that neither defines ``var`` is an identity block, so on
    typical programs the quick propagation graph for this instance is a
    small fraction of the CFG (§6.2; Figure 10's sibling statistic).
    """

    direction = FORWARD
    meet_is_union = True

    def __init__(self, proc: LoweredProcedure, var: str):
        self.proc = proc
        self.var = var
        self._def_blocks = frozenset(proc.defs_of(var))
        self._universe = frozenset(self._def_blocks)

    def universe(self) -> FrozenSet:
        return self._universe

    def gen(self, node: NodeId) -> FrozenSet:
        return frozenset({node}) if node in self._def_blocks else frozenset()

    def kill(self, node: NodeId) -> FrozenSet:
        return (self._universe - {node}) if node in self._def_blocks else frozenset()

    def is_identity(self, node: NodeId) -> bool:
        return node not in self._def_blocks
