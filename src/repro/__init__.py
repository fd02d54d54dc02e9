"""repro -- the Program Structure Tree (Johnson, Pearson & Pingali, PLDI 1994).

A complete reproduction of the paper's system:

* linear-time edge cycle equivalence (:mod:`repro.core.cycle_equiv`),
* canonical SESE regions and the PST (:mod:`repro.core`),
* linear-time control regions (:mod:`repro.controldep`),
* dominance substrate incl. Lengauer-Tarjan (:mod:`repro.dominance`),
* SSA construction, classic and PST-based (:mod:`repro.ssa`),
* dataflow analysis: iterative, elimination, and QPG-sparse
  (:mod:`repro.dataflow`),
* the MiniLang front end (:mod:`repro.lang`) and synthetic workload
  generators (:mod:`repro.synth`) standing in for the paper's FORTRAN
  benchmarks.

Quickstart::

    from repro import build_cfg, build_pst, run_analysis

    g = build_cfg([
        ("start", "a"), ("a", "b", "T"), ("a", "c", "F"),
        ("b", "d"), ("c", "d"), ("d", "end"),
    ])
    pst = build_pst(g)
    for region in pst.canonical_regions():
        print(region.describe(), "depth", region.depth)

    result = run_analysis(g)          # guarded: fast paths + verified fallback
    assert result.ok and not result.degraded

This module is the canonical import surface: graph construction
(:func:`build_cfg`), the paper's analyses (:func:`cycle_equivalence`,
:func:`build_pst`, :func:`control_regions`), the resilient engine
(:func:`run_analysis`, :func:`run_batch`, :class:`AnalysisConfig`), cached
sessions (:class:`AnalysisSession`, :func:`session_for`), the edit surface
(:class:`EditSession`, :func:`apply_delta`), and observability
(:class:`Observer`).  Each name also lives in its defining module
(``repro.resilience.engine.run_analysis``,
``repro.kernel.session.AnalysisSession``, ...); those are the only other
spellings.
"""

from repro.cfg import CFG, CFGBuilder, Edge, InvalidCFGError, cfg_from_edges
from repro.core import (
    ProgramStructureTree,
    RegionKind,
    SESERegion,
    build_pst,
    canonical_sese_regions,
    classify_pst,
    classify_region,
    cycle_equivalence,
    cycle_equivalence_scc,
)
from repro.core.cycle_equiv import cycle_equivalence_of_cfg

#: Canonical spelling for building a CFG from an edge list.
build_cfg = cfg_from_edges

__version__ = "1.0.0"

# The engine/session/observability layer imports the analysis modules above,
# so these re-exports are lazy (PEP 562) -- both to break the cycle and to
# keep `import repro` light for callers that only build graphs.
_LAZY = {
    "AnalysisConfig": "repro.config",
    "DEFAULT_CONFIG": "repro.config",
    "AnalysisResult": "repro.resilience.engine",
    "Diagnostic": "repro.resilience.engine",
    "run_analysis": "repro.resilience.engine",
    "run_batch": "repro.resilience.batch",
    "BatchReport": "repro.resilience.batch",
    "FaultPlan": "repro.resilience.faults",
    "AnalysisSession": "repro.kernel.session",
    "session_for": "repro.kernel.session",
    "Observer": "repro.obs.observer",
    "control_regions": "repro.controldep.regions_fast",
    "EditSession": "repro.incremental",
    "apply_delta": "repro.incremental",
    "DeltaValidationError": "repro.incremental",
}


def __getattr__(name):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)


__all__ = [
    "AnalysisConfig",
    "AnalysisResult",
    "AnalysisSession",
    "BatchReport",
    "CFG",
    "CFGBuilder",
    "DEFAULT_CONFIG",
    "DeltaValidationError",
    "Diagnostic",
    "Edge",
    "EditSession",
    "FaultPlan",
    "InvalidCFGError",
    "Observer",
    "ProgramStructureTree",
    "RegionKind",
    "SESERegion",
    "apply_delta",
    "build_cfg",
    "build_pst",
    "canonical_sese_regions",
    "cfg_from_edges",
    "classify_pst",
    "classify_region",
    "control_regions",
    "cycle_equivalence",
    "cycle_equivalence_of_cfg",
    "cycle_equivalence_scc",
    "run_analysis",
    "run_batch",
    "session_for",
    "__version__",
]
