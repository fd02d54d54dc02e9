"""The :class:`Observer`: one object tying tracing + metrics together.

Instrumented code never imports recorders or registries directly; it asks
for the *ambient* observer::

    from repro.obs import observer as _obs

    o = _obs._CURRENT
    if o is not None:
        with o.span("cycle_equiv", n_edges=cfg.num_edges):
            ...

The module-global ``_CURRENT`` is ``None`` by default -- the "no-op
recorder" -- so the disabled cost on a hot path is one module-attribute
load plus an ``is None`` test per *call* (never per loop iteration).  The
extended ``benchmarks/bench_guard_overhead.py`` holds this within the
existing <5% guard budget.

An observer is installed either ambiently (:func:`observe` /
:func:`install`) or explicitly through
:class:`repro.config.AnalysisConfig` -- ``run_analysis`` installs
``config.observer`` for the duration of the call so one trace covers the
fast path, every retry, and the slow fallback, with kernel-level child
spans attached in the right place.

Spans degrade gracefully: ``Observer(trace=False)`` hands out a shared
no-op span, so call sites never branch on whether tracing is on.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, Optional, TypeVar

from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.trace import Span, TraceRecorder


class _NoopSpan:
    """Shared do-nothing span for observers with tracing disabled."""

    __slots__ = ()

    def set(self, **attrs: object) -> "_NoopSpan":
        return self

    def fail(self, error: str) -> "_NoopSpan":
        return self

    def finish(self, error: Optional[str] = None) -> None:
        pass

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


NOOP_SPAN = _NoopSpan()


class Observer:
    """Tracing + metrics + profiling switches for one observed scope.

    ``trace`` enables span recording, ``metrics`` the instrument registry,
    ``profile`` the :meth:`repro.resilience.guards.Ticker.mark` phase
    timers (the engine arms a profile list on every ticker it creates when
    this is set).  All three default to on -- an *installed* observer is
    assumed to be wanted; the cheap path is not installing one.
    """

    __slots__ = ("recorder", "metrics", "profile")

    def __init__(
        self,
        *,
        trace: bool = True,
        metrics: bool = True,
        profile: bool = False,
        clock: Callable[[], float] = time.perf_counter,
        trace_id: Optional[str] = None,
    ):
        self.recorder: Optional[TraceRecorder] = (
            TraceRecorder(trace_id=trace_id, clock=clock) if trace else None
        )
        self.metrics: Optional[MetricsRegistry] = MetricsRegistry() if metrics else None
        self.profile = profile

    # ------------------------------------------------------------------
    # tracing
    # ------------------------------------------------------------------
    def span(self, name: str, **attrs: object):
        """Start a span (or the shared no-op when tracing is off)."""
        recorder = self.recorder
        if recorder is None:
            return NOOP_SPAN
        return recorder.start(name, **attrs)

    # ------------------------------------------------------------------
    # metrics conveniences
    # ------------------------------------------------------------------
    def count(self, name: str, n: float = 1.0, **labels: str) -> None:
        registry = self.metrics
        if registry is not None:
            registry.counter(name, **labels).inc(n)

    def observe_value(self, name: str, value: float, **labels: str) -> None:
        registry = self.metrics
        if registry is not None:
            registry.histogram(name, **labels).observe(value)

    def set_gauge(self, name: str, value: float, **labels: str) -> None:
        registry = self.metrics
        if registry is not None:
            registry.gauge(name, **labels).set(value)

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def metrics_snapshot(self) -> Optional[Dict[str, object]]:
        return self.metrics.snapshot() if self.metrics is not None else None

    def write_jsonl(self, handle) -> int:
        """Dump the trace (and metrics footers) as JSONL; returns lines.

        Both metric footers travel: the human ``{"type": "metrics"}``
        snapshot and the mergeable ``{"type": "metrics_dump"}`` record
        that ``repro metrics render`` feeds back into a registry.
        """
        if self.recorder is None:
            raise ValueError("this observer has tracing disabled")
        dump = self.metrics.dump() if self.metrics is not None else None
        return self.recorder.write_jsonl(handle, self.metrics_snapshot(), dump)

    # ------------------------------------------------------------------
    # cross-process shards (the run_batch --workers N protocol)
    # ------------------------------------------------------------------
    def spec(self) -> Dict[str, bool]:
        """The picklable switch set a worker needs to build a shard.

        Observers themselves never cross the process boundary -- a worker
        constructs a fresh shard from this spec, records into it, and ships
        a :meth:`shard_snapshot` back for the parent to :meth:`absorb`.
        """
        return {
            "trace": self.recorder is not None,
            "metrics": self.metrics is not None,
            "profile": self.profile,
        }

    @classmethod
    def from_spec(cls, spec: Dict[str, bool]) -> "Observer":
        return cls(
            trace=bool(spec.get("trace")),
            metrics=bool(spec.get("metrics")),
            profile=bool(spec.get("profile")),
        )

    def shard_snapshot(self) -> Dict[str, object]:
        """Serialize this shard for the trip back through the pool.

        Spans travel in their JSONL wire form (the same bytes
        ``write_jsonl`` would emit), metrics as the registry's
        full-fidelity :meth:`~repro.obs.metrics.MetricsRegistry.dump`.
        """
        import os

        return {
            "pid": os.getpid(),
            "spans": (
                list(self.recorder.jsonl_lines()) if self.recorder is not None else []
            ),
            "metrics": self.metrics.dump() if self.metrics is not None else None,
        }

    def absorb(self, snapshot: Dict[str, object], **root_attrs: object) -> None:
        """Merge a worker shard's :meth:`shard_snapshot` into this observer.

        Span records are re-parented under the currently open span (see
        :meth:`~repro.obs.trace.TraceRecorder.absorb`) with ``root_attrs``
        plus the worker's pid stamped on the shard's root spans; metric
        instruments merge per :meth:`~repro.obs.metrics.MetricsRegistry.merge`.
        """
        from repro.obs.trace import read_jsonl

        lines = snapshot.get("spans") or []
        if self.recorder is not None and lines:
            self.recorder.absorb(
                read_jsonl(lines), worker_pid=snapshot.get("pid"), **root_attrs
            )
        dump = snapshot.get("metrics")
        if self.metrics is not None and dump is not None:
            self.metrics.merge(dump)


# ----------------------------------------------------------------------
# the ambient observer
# ----------------------------------------------------------------------

#: The installed observer, or None (the no-op default).  Hot paths read
#: this module attribute directly; everything else goes through current().
_CURRENT: Optional[Observer] = None


def current() -> Optional[Observer]:
    """The ambient observer, or ``None`` when observation is off."""
    return _CURRENT


def install(observer: Optional[Observer]) -> Optional[Observer]:
    """Install ``observer`` ambiently; returns the previous one."""
    global _CURRENT
    previous = _CURRENT
    _CURRENT = observer
    return previous


T = TypeVar("T")


def dispatch(component: str, impl: str, cfg: Any, fn: Callable[..., T], *args: Any) -> T:
    """Run ``fn(*args)`` as one call of the ``component`` entry point.

    With no observer installed this is the single call ``fn(*args)``.
    Otherwise the call counts ``dispatch{component, impl}`` and runs
    inside a span named ``component`` carrying ``impl`` (``kernel`` or
    ``reference``) and the graph's ``n_nodes`` / ``n_edges`` -- the sizes
    the linearity watchdog fits.
    """
    o = _CURRENT
    if o is None:
        return fn(*args)
    o.count("dispatch", component=component, impl=impl)
    with o.span(component, impl=impl, n_nodes=cfg.num_nodes, n_edges=cfg.num_edges):
        return fn(*args)


@contextmanager
def observe(observer: Optional[Observer]) -> Iterator[Optional[Observer]]:
    """Ambiently install ``observer`` for a ``with`` block.

    ``observe(None)`` leaves whatever is installed untouched (it does
    *not* disable an outer observer), so callers can pass an optional
    observer straight through.
    """
    if observer is None:
        yield _CURRENT
        return
    previous = install(observer)
    try:
        yield observer
    finally:
        install(previous)
