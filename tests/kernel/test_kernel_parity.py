"""Deterministic kernel-vs-reference spot checks on multigraph edge cases.

The fuzz campaign (``repro.fuzz`` with the ``kernel/reference`` oracle)
covers breadth; these pin the shapes CSR encodings historically get wrong
-- parallel edges, self-loops, back edges -- with exact-id equality, so a
regression fails loudly in the unit suite rather than only under fuzzing.
"""

from __future__ import annotations

import sys

import pytest

from repro.cfg.builder import cfg_from_edges
from repro.cfg.graph import CFG, InvalidCFGError
from repro.controldep.regions_fast import control_regions, control_regions_reference
from repro.core.cycle_equiv import (
    cycle_equivalence_of_cfg,
    cycle_equivalence_of_cfg_reference,
)
from repro.core.pst import build_pst, build_pst_reference
from repro.dataflow.iterative import solve_iterative, solve_iterative_reference
from repro.dataflow.problems import (
    AvailableExpressions,
    LiveVariables,
    ReachingDefinitions,
)
from repro.dominance.iterative import (
    immediate_dominators,
    immediate_dominators_reference,
)
from repro.dominance.lengauer_tarjan import lengauer_tarjan, lengauer_tarjan_reference
from repro.obs import observer as _obs
from repro.obs.observer import Observer
from repro.synth.structured import random_lowered_procedure

GENKILL_PROBLEMS = (ReachingDefinitions, LiveVariables, AvailableExpressions)


def loopy_multigraph() -> CFG:
    """Parallel edges, a self-loop, and a back edge in one graph."""
    cfg = CFG(start="start", end="end", name="loopy")
    cfg.add_edge("start", "a")
    cfg.add_edge("a", "b", "T")
    cfg.add_edge("a", "b", "F")  # parallel
    cfg.add_edge("b", "b")  # self-loop
    cfg.add_edge("b", "a")  # back edge
    cfg.add_edge("b", "end")
    return cfg


CASES = [
    pytest.param(
        cfg_from_edges(
            [("start", "a"), ("start", "b"), ("a", "end"), ("b", "end")]
        ),
        id="diamond",
    ),
    pytest.param(
        cfg_from_edges([("start", "a"), ("a", "b"), ("b", "end")]), id="chain"
    ),
    pytest.param(loopy_multigraph(), id="loopy-multigraph"),
]


@pytest.mark.parametrize("cfg", CASES)
def test_cycle_equivalence_ids_match_exactly(cfg):
    kernel = cycle_equivalence_of_cfg(cfg)
    reference = cycle_equivalence_of_cfg_reference(cfg)
    # Identical class ids per edge, not merely the same partition.
    assert kernel.class_of == reference.class_of


@pytest.mark.parametrize("cfg", CASES)
def test_dominators_match(cfg):
    assert lengauer_tarjan(cfg) == lengauer_tarjan_reference(cfg)


@pytest.mark.parametrize("cfg", CASES)
def test_pst_structure_matches(cfg):
    def signature(pst):
        out, stack = [], [pst.root]
        while stack:
            region = stack.pop()
            out.append(
                (
                    region.depth,
                    region.entry.eid if region.entry else None,
                    region.exit.eid if region.exit else None,
                    tuple(region.own_nodes),
                )
            )
            stack.extend(reversed(region.children))
        return out

    assert signature(build_pst(cfg)) == signature(build_pst_reference(cfg))


@pytest.mark.parametrize("cfg", CASES)
def test_control_regions_match(cfg):
    assert control_regions(cfg) == control_regions_reference(cfg)


def test_kernel_and_reference_agree_on_rejection():
    cfg = CFG(name="no-roots")
    cfg.add_edge("a", "b")
    with pytest.raises(InvalidCFGError):
        cycle_equivalence_of_cfg(cfg)
    with pytest.raises(InvalidCFGError):
        cycle_equivalence_of_cfg_reference(cfg)


@pytest.mark.parametrize("problem_cls", GENKILL_PROBLEMS, ids=lambda cls: cls.__name__)
@pytest.mark.parametrize("seed", (1, 5, 9, 14))
def test_dataflow_fixpoints_match_reference(seed, problem_cls):
    proc = random_lowered_procedure(seed=seed, target_statements=40, goto_rate=0.1)
    problem = problem_cls(proc)
    assert solve_iterative(proc.cfg, problem) == solve_iterative_reference(proc.cfg, problem)


class TracedReachingDefinitions(ReachingDefinitions):
    """Overrides ``transfer``: no longer the closed gen/kill form."""

    def __init__(self, proc):
        super().__init__(proc)
        self.transfers = 0

    def transfer(self, node, value):
        self.transfers += 1
        return super().transfer(node, value)


def _dispatch_counts(cfg, problem):
    observer = Observer(trace=False)
    with _obs.observe(observer):
        solution = solve_iterative(cfg, problem)
    return solution, observer.metrics.counts_matching("dispatch")


def test_packed_solver_dispatch_reports_kernel():
    """The packed solver is kernel tier: a stock gen/kill problem reports
    ``impl=kernel`` once, like every other kernel entry point."""
    proc = random_lowered_procedure(seed=2, target_statements=30)
    expected = solve_iterative_reference(proc.cfg, ReachingDefinitions(proc))
    solution, counts = _dispatch_counts(proc.cfg, ReachingDefinitions(proc))
    assert solution == expected
    assert counts == {"dispatch{component=solve_iterative,impl=kernel}": 1.0}


def test_generic_solver_dispatch_reports_kernel():
    """A subclass overriding ``transfer`` takes the generic solver, which
    calls its transfer, and still reports ``impl=kernel``."""
    proc = random_lowered_procedure(seed=2, target_statements=30)
    expected = solve_iterative_reference(proc.cfg, ReachingDefinitions(proc))
    traced = TracedReachingDefinitions(proc)
    solution, counts = _dispatch_counts(proc.cfg, traced)
    assert solution == expected
    assert traced.transfers > 0
    assert counts == {"dispatch{component=solve_iterative,impl=kernel}": 1.0}


def test_packed_solver_runs_without_numpy(monkeypatch):
    """Stock gen/kill problems take the packed solver with NumPy absent."""
    monkeypatch.setitem(sys.modules, "numpy", None)  # `import numpy` fails
    proc = random_lowered_procedure(seed=2, target_statements=30)
    expected = solve_iterative_reference(proc.cfg, ReachingDefinitions(proc))

    stock = ReachingDefinitions(proc)
    transfers = []
    real_transfer = stock.transfer

    def counting_transfer(node, value):
        transfers.append(node)
        return real_transfer(node, value)

    # An instance attribute leaves the problem's type, which picks the
    # solver, unchanged; a generic solve would call it once per pop.
    monkeypatch.setattr(stock, "transfer", counting_transfer)
    solution, counts = _dispatch_counts(proc.cfg, stock)
    assert solution == expected
    assert transfers == []  # the packed solver never calls transfer
    assert counts == {"dispatch{component=solve_iterative,impl=kernel}": 1.0}
    assert immediate_dominators(proc.cfg) == immediate_dominators_reference(proc.cfg)
