"""Resilient execution of the paper's analyses.

The fast algorithms earn their O(E) bound through delicate invariants
(bracket lists, compact names, the capping rule); this package makes the
library safe to run as a service on adversarial inputs by pairing them with
runtime protection:

* :mod:`repro.resilience.guards` -- cooperative deadline/step-budget
  checkpoints (:class:`~repro.resilience.guards.Ticker`) wired into the
  long-running loops of the core algorithms;
* :mod:`repro.resilience.engine` -- :func:`~repro.resilience.engine.run_analysis`,
  a guarded orchestrator that validates fast-path results against cheap
  postconditions and degrades to the slow reference implementations instead
  of crashing or returning a wrong answer;
* :mod:`repro.resilience.faults` -- deterministic, seeded fault injection
  used to prove that detection and fallback actually fire;
* :mod:`repro.resilience.batch` -- corpus runs with per-item isolation,
  retries with backoff, and JSONL checkpoint/resume.

See ``docs/ROBUSTNESS.md`` for the full design.
"""

from repro.errors import (
    AnalysisError,
    BudgetExceeded,
    DeadlineExceeded,
    PostconditionError,
    ReproError,
    ResourceExhausted,
)
from repro.resilience.guards import Ticker

# engine/faults/batch import the algorithm modules, and the algorithm
# modules import repro.resilience.guards (which initializes this package) --
# so these re-exports must be lazy (PEP 562) to avoid a circular import.
_LAZY = {
    "AnalysisResult": "repro.resilience.engine",
    "Attempt": "repro.resilience.engine",
    "Diagnostic": "repro.resilience.engine",
    "ALL_SITES": "repro.resilience.faults",
    "FaultPlan": "repro.resilience.faults",
    "FaultSite": "repro.resilience.faults",
    "inject": "repro.resilience.faults",
    "BatchItemResult": "repro.resilience.batch",
    "BatchReport": "repro.resilience.batch",
}


def __getattr__(name):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)

__all__ = [
    "ALL_SITES",
    "AnalysisError",
    "AnalysisResult",
    "Attempt",
    "BatchItemResult",
    "BatchReport",
    "BudgetExceeded",
    "DeadlineExceeded",
    "Diagnostic",
    "FaultPlan",
    "FaultSite",
    "PostconditionError",
    "ReproError",
    "ResourceExhausted",
    "Ticker",
    "inject",
]
