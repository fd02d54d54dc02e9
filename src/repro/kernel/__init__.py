"""The frozen CSR analysis kernel.

The object multigraph (:class:`~repro.cfg.graph.CFG`) is the construction
and mutation API; its ``Edge`` objects, dict-of-list adjacency, and
defensive copies carry constant factors that dominate the paper's linear
time bounds in Python.  This package provides the compact counterpart:

* :class:`~repro.kernel.csr.FrozenCFG` -- an immutable int-indexed snapshot
  of a CFG in CSR (compressed sparse row) form: flat successor/predecessor
  offset arrays, flat edge endpoint arrays, positional edge indices.
* array-based kernel variants of the three hottest algorithms
  (:func:`~repro.kernel.cycle_equiv.kernel_cycle_equivalence`,
  :func:`~repro.kernel.dominance.kernel_lengauer_tarjan`,
  :func:`~repro.kernel.dataflow.kernel_solve_iterative`, plus
  :func:`~repro.kernel.dataflow.packed_solve_genkill` on bit rows for the
  stock gen/kill problems), which the public entry points in
  :mod:`repro.core.cycle_equiv`, :mod:`repro.dominance.lengauer_tarjan`,
  and :mod:`repro.dataflow.iterative` run by default (the object-graph
  implementations are retained as reference oracles).  The two dataflow
  kernels also solve :mod:`repro.dataflow.qpg`'s quick propagation graphs,
  which are CSR rows of the same shape.
* :func:`~repro.kernel.registry.shared_frozen` -- the graph's one
  snapshot, kept on the graph and re-frozen only after a mutation.
* :class:`~repro.kernel.session.AnalysisSession` -- a per-graph memo of
  derived artifacts (cycle equivalence, SESE regions, PST,
  dominators/postdominators, control regions) keyed on the graph's
  version, so pipelines compute each artifact exactly once per graph
  (import it from :mod:`repro`).

See ``docs/PERFORMANCE.md`` for layout details and measured speedups.
"""

from repro.kernel.csr import FrozenCFG, freeze
from repro.kernel.registry import shared_frozen

__all__ = [
    "FrozenCFG",
    "freeze",
    "shared_frozen",
]
