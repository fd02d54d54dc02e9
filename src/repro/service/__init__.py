"""The long-lived analysis service: bounded caches, admission control.

This package turns the library into something a fleet can run: a
stdlib-only JSON-over-HTTP server (:mod:`repro.service.server`) exposing
``run_analysis``/``run_batch`` over the resilience engine, with

* size-accounted LRU caches (:mod:`repro.service.cache`): per-client
  session shards under ``ServiceConfig.max_cache_bytes``, the server's one
  memory bound -- each graph's snapshot and analysis session live on the
  graph and are freed with it;
* token-bucket + queue-depth admission control
  (:mod:`repro.service.admission`) that sheds load with structured 429/503
  diagnostics and degrades gracefully under pressure instead of queuing
  unboundedly;
* graceful drain on SIGTERM (:mod:`repro.service.drain`), shared with
  ``repro metrics serve``: finish in-flight requests, flush the observer
  shard, refuse new work;
* a deterministic chaos soak harness (:mod:`repro.service.soak`) driving
  concurrent seeded clients with fault injection and recording per-size-band
  p99 latency SLO rows for ``repro bench`` to gate.

See docs/ROBUSTNESS.md ("Serving and load shedding") for the operational
contract and exit codes.

Re-exports are lazy, so importing one submodule (say, the cache) does not
load the HTTP server and the soak harness.
"""

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.service.admission import AdmissionController, TokenBucket
    from repro.service.cache import ShardedSessionCache, SizedLRU
    from repro.service.server import AnalysisServer, ServiceConfig
    from repro.service.soak import SoakConfig, SoakReport, run_soak

__all__ = [
    "AdmissionController",
    "AnalysisServer",
    "ServiceConfig",
    "ShardedSessionCache",
    "SizedLRU",
    "SoakConfig",
    "SoakReport",
    "TokenBucket",
    "run_soak",
]

_EXPORTS = {
    "AdmissionController": "repro.service.admission",
    "TokenBucket": "repro.service.admission",
    "ShardedSessionCache": "repro.service.cache",
    "SizedLRU": "repro.service.cache",
    "AnalysisServer": "repro.service.server",
    "ServiceConfig": "repro.service.server",
    "SoakConfig": "repro.service.soak",
    "SoakReport": "repro.service.soak",
    "run_soak": "repro.service.soak",
}


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module), name)
