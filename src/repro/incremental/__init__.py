"""Incremental analysis maintenance under CFG edit deltas (§6.3).

Public surface (also promoted to the top-level ``repro`` namespace):

* :class:`~repro.incremental.session.EditSession` -- atomic, validated
  edits with maintained PST/cycle-equivalence artifacts;
* :func:`~repro.incremental.session.apply_delta` -- functional spelling;
* the delta types :class:`AddEdge`, :class:`RemoveEdge`, :class:`AddNode`,
  :class:`RemoveNode` and :class:`DeltaValidationError`;
* :class:`~repro.dataflow.incremental.IncrementalDataflow` re-exported
  here as its canonical home: §6.3 re-analysis after transfer-function
  edits on a fixed CFG.
"""

from repro.dataflow.incremental import IncrementalDataflow
from repro.incremental.delta import (
    AddEdge,
    AddNode,
    AppliedDelta,
    DeltaValidationError,
    RemoveEdge,
    RemoveNode,
    delta_from_json,
)
from repro.incremental.session import EditSession, EditStats, apply_delta

__all__ = [
    "AddEdge",
    "AddNode",
    "AppliedDelta",
    "DeltaValidationError",
    "EditSession",
    "EditStats",
    "IncrementalDataflow",
    "RemoveEdge",
    "RemoveNode",
    "apply_delta",
    "delta_from_json",
]
