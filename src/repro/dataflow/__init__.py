"""Monotone dataflow analysis: iterative, PST-elimination, and QPG-sparse.

* :mod:`repro.dataflow.framework` -- problem interface (direction, meet,
  transfer, identity test) and the gen/kill specialization.
* :mod:`repro.dataflow.problems` -- reaching definitions, live variables,
  available expressions, and the per-variable sparse instances the paper's
  QPG experiments use.
* :mod:`repro.dataflow.iterative` -- the baseline worklist solver.
* :mod:`repro.dataflow.qpg` -- quick propagation graphs (§6.2): bypass SESE
  regions with only identity transfer functions, solve on the small graph,
  project the solution back.
* :mod:`repro.dataflow.elimination` -- elimination-style structural solver
  using the PST as the hierarchical decomposition (§6.2): bottom-up region
  summaries, top-down propagation.
"""

from repro.dataflow.framework import DataflowProblem, GenKillProblem, Solution
from repro.dataflow.iterative import solve_iterative
from repro.dataflow.problems import (
    AvailableExpressions,
    LiveVariables,
    ReachingDefinitions,
    VariableReachingDefs,
)
from repro.dataflow.qpg import QPGResult, build_qpg, solve_qpg
from repro.dataflow.elimination import solve_elimination
from repro.dataflow.constprop import NAC, ConstantPropagation


__all__ = [
    "NAC",
    "ConstantPropagation",
    "DataflowProblem",
    "GenKillProblem",
    "Solution",
    "solve_iterative",
    "ReachingDefinitions",
    "LiveVariables",
    "AvailableExpressions",
    "VariableReachingDefs",
    "QPGResult",
    "build_qpg",
    "solve_qpg",
    "solve_elimination",
]
