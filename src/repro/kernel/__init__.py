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
  implementations are retained as reference oracles).
* :class:`~repro.kernel.session.AnalysisSession` -- a per-graph memo of
  derived artifacts (frozen snapshot, cycle equivalence, SESE regions, PST,
  dominators/postdominators, control regions) keyed on the snapshot's
  version, so pipelines compute each artifact exactly once per graph.

See ``docs/PERFORMANCE.md`` for layout details and measured speedups.
"""

from repro.kernel.csr import FrozenCFG, freeze
from repro.kernel.registry import shared_frozen

# The session module imports the high-level analyses (PST, SESE, control
# regions), which themselves import this package for the kernels -- so its
# re-exports must be lazy (PEP 562) to avoid a circular import.
_LAZY = {
    "AnalysisSession": "repro.kernel.session",
    "session_for": "repro.kernel.session",
}

# Both names are promoted to the canonical top-level surface; this
# package-attribute spelling still works but is deprecated.
_DEPRECATED = ("AnalysisSession", "session_for")


def __getattr__(name):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    if name in _DEPRECATED:
        import warnings

        warnings.warn(
            f"importing {name} from repro.kernel is deprecated; "
            f"use `from repro import {name}` instead",
            DeprecationWarning,
            stacklevel=2,
        )
    import importlib

    return getattr(importlib.import_module(module_name), name)


__all__ = [
    "AnalysisSession",
    "FrozenCFG",
    "freeze",
    "session_for",
    "shared_frozen",
]
