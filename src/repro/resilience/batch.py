"""Resilient corpus runs: per-item isolation, retries, checkpoint/resume.

:func:`run_batch` drives :func:`repro.resilience.engine.run_analysis` over a
corpus of named CFGs the way a nightly analysis job must run: one item's
failure (or crash, or guard trip) never takes down the batch; failed items
are retried with exponential backoff; every completed item is appended to a
JSONL checkpoint so an interrupted run resumes where it left off instead of
recomputing; and the report summarizes partial results honestly (done /
degraded / failed / skipped-from-checkpoint).

Checkpoint format -- one JSON object per line, append-only::

    {"key": "corpus.mini::main", "status": "ok", "elapsed": 0.0012,
     "paths": {"pst": "fast", ...}, "tries": 1, "error": null}

``status`` is ``ok`` (all stages verified, fast paths), ``degraded`` (all
stages verified, but a fallback or retry was needed), ``failed`` (the engine
reported an error: invalid input, exhausted ladder, deadline), or ``error``
(the item itself could not be produced/run -- isolation caught a crash).
A resumed run skips every key already present in the checkpoint, whatever
its status; delete the line (or the file) to force recomputation.

Fresh checkpoints start with a ``{"type": "checkpoint", "version": 1}``
header line.  Resuming tolerates anything this reader understands --
headerless legacy files and same-or-older versions -- and raises
:class:`~repro.errors.CheckpointError` (exit code 2, usage/IO) on a
*newer* version, because silently skipping records a future writer meant
differently could re-run (and double-bill) completed work.  Torn final
lines (an interrupted append) and duplicate keys (an append after a torn
resume) are expected states, not errors: bad lines are skipped, later
duplicates win.
"""

from __future__ import annotations

import json
import time
import warnings
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.cfg.graph import CFG
from repro.config import DEFAULT_CONFIG, AnalysisConfig
from repro.obs import observer as _obs
from repro.obs.observer import Observer
from repro.resilience.engine import AnalysisResult, run_analysis

#: statuses that count as a successfully analyzed item
SUCCESS_STATUSES = ("ok", "degraded")


class BatchSerialFallback(UserWarning):
    """``run_batch`` ran serially despite ``workers > 1``.

    Carries the machine-readable ``reasons`` tuple so callers can branch on
    *why* (fault plan, custom sleep/clock) instead of
    parsing the message.  Observers are deliberately absent from the list:
    since the cross-process shard protocol they parallelize fine.
    """

    def __init__(self, workers: int, reasons: Iterable[str]):
        self.workers = workers
        self.reasons = tuple(reasons)
        super().__init__(
            f"run_batch: workers={workers} requested but running serially: "
            + ", ".join(self.reasons)
        )


def serial_fallback_reasons(
    config: AnalysisConfig,
    sleep: Callable[[float], None] = time.sleep,
    clock: Callable[[], float] = time.monotonic,
) -> List[str]:
    """Why this batch cannot use the process pool (empty = it can).

    Sleep/clock callables are arbitrary closures and a fault plan's
    injected state must stay observable in-process; none of them survive
    pickling to a worker.  Observers and profiling are *not*
    reasons: workers record into fresh shards rebuilt from
    :meth:`~repro.obs.observer.Observer.spec` and the parent merges the
    snapshots back.
    """
    reasons: List[str] = []
    if config.faults is not None:
        reasons.append("fault injection plan")
    if sleep is not time.sleep:
        reasons.append("custom sleep callable")
    if clock is not time.monotonic:
        reasons.append("custom clock callable")
    return reasons


@dataclass
class BatchItemResult:
    """Outcome of one corpus item (possibly restored from a checkpoint)."""

    key: str
    status: str  # "ok" | "degraded" | "failed" | "error"
    elapsed: float = 0.0
    tries: int = 1
    paths: Dict[str, str] = field(default_factory=dict)
    error: Optional[str] = None
    resumed: bool = False  # restored from the checkpoint, not recomputed

    def to_json(self) -> str:
        return json.dumps(
            {
                "key": self.key,
                "status": self.status,
                "elapsed": round(self.elapsed, 6),
                "tries": self.tries,
                "paths": self.paths,
                "error": self.error,
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, line: str) -> "BatchItemResult":
        data = json.loads(line)
        return cls(
            key=data["key"],
            status=data["status"],
            elapsed=float(data.get("elapsed", 0.0)),
            tries=int(data.get("tries", 1)),
            paths=dict(data.get("paths", {})),
            error=data.get("error"),
            resumed=True,
        )


@dataclass
class BatchReport:
    """Aggregate of a batch run, including checkpoint-restored items."""

    results: List[BatchItemResult] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return all(r.status in SUCCESS_STATUSES for r in self.results)

    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for result in self.results:
            out[result.status] = out.get(result.status, 0) + 1
        return out

    def failures(self) -> List[BatchItemResult]:
        return [r for r in self.results if r.status not in SUCCESS_STATUSES]

    def render(self) -> str:
        counts = self.counts()
        resumed = sum(1 for r in self.results if r.resumed)
        parts = [f"{len(self.results)} item(s)"]
        for status in ("ok", "degraded", "failed", "error"):
            if counts.get(status):
                parts.append(f"{counts[status]} {status}")
        if resumed:
            parts.append(f"{resumed} resumed from checkpoint")
        lines = [f"batch: {', '.join(parts)} in {self.elapsed:.2f}s"]
        for result in self.results:
            if result.status in SUCCESS_STATUSES and result.status != "ok":
                lines.append(
                    f"  degraded {result.key}: paths {result.paths} "
                    f"(tries={result.tries})"
                )
        for result in self.failures():
            lines.append(
                f"  {result.status.upper()} {result.key}: {result.error} "
                f"(tries={result.tries})"
            )
        return "\n".join(lines)


#: Version this reader writes (and the newest it will resume from).
CHECKPOINT_VERSION = 1


def checkpoint_header() -> str:
    """The header line new checkpoint files start with."""
    return json.dumps(
        {"type": "checkpoint", "version": CHECKPOINT_VERSION}, sort_keys=True
    )


def load_checkpoint(path: str) -> Dict[str, BatchItemResult]:
    """Parse a JSONL checkpoint; later lines win; bad lines are skipped.

    Raises :class:`~repro.errors.CheckpointError` when the file declares a
    checkpoint version newer than :data:`CHECKPOINT_VERSION` -- a future
    format must refuse loudly, not resume wrongly.  Headerless files (the
    pre-versioning format) load as version 1.
    """
    from repro.errors import CheckpointError

    done: Dict[str, BatchItemResult] = {}
    try:
        with open(path) as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except ValueError:
                    continue  # torn write from an interrupted run
                if isinstance(record, dict) and record.get("type") == "checkpoint":
                    try:
                        version = int(record.get("version", 1))
                    except (TypeError, ValueError):
                        raise CheckpointError(
                            f"{path}: unreadable checkpoint version "
                            f"{record.get('version')!r}"
                        ) from None
                    if version > CHECKPOINT_VERSION:
                        raise CheckpointError(
                            f"{path}: checkpoint version {version} is newer "
                            f"than this reader (max {CHECKPOINT_VERSION}); "
                            "refusing to resume",
                            version=version,
                        )
                    continue
                try:
                    result = BatchItemResult.from_json(line)
                except (ValueError, KeyError):
                    continue  # torn write from an interrupted run
                done[result.key] = result
    except FileNotFoundError:
        pass
    return done


def run_batch(
    items: Iterable[Tuple[str, Callable[[], CFG]]],
    *,
    checkpoint_path: Optional[str] = None,
    resume: bool = True,
    config: Optional[AnalysisConfig] = None,
    on_item: Optional[Callable[[BatchItemResult], None]] = None,
    sleep: Callable[[float], None] = time.sleep,
    clock: Callable[[], float] = time.monotonic,
) -> BatchReport:
    """Run the analysis engine over ``items`` with full isolation.

    ``items`` yields ``(key, thunk)`` pairs; the thunk produces the CFG so
    that even *loading* an item is inside the isolation boundary.  All
    tuning lives in ``config`` (an :class:`~repro.config.AnalysisConfig`):
    ``config.retries`` extra batch-level tries (with exponential backoff
    starting at ``config.backoff`` seconds) are spent on items whose status
    is ``failed`` or ``error`` -- this is on top of the engine's own
    internal ladder, and matters when failures come from the environment
    rather than the input.  The whole config (deadline, step budget, fast
    retries, observer, faults, ...) is forwarded to each engine call, and
    ``config.observer`` is additionally installed ambiently around the
    batch so per-item latency histograms and status counters accumulate in
    one place.  ``on_item`` observes each fresh (non-resumed) result as it
    completes.

    ``config.workers > 1`` fans the engine calls out over a process pool:
    thunks still run in this process (they are arbitrary closures), but
    each CFG is re-encoded as a plain tuple and analyzed -- retries,
    backoff and all -- in a worker, so one item's crash (or the worker's
    death) cannot take down the batch or its siblings.  Results keep the
    submission order of ``items`` and the checkpoint is appended as
    futures complete, exactly as in serial mode.

    Observation survives the fan-out: the active observer never crosses
    the process boundary; instead each worker call rebuilds a fresh shard
    from :meth:`Observer.spec() <repro.obs.observer.Observer.spec>`,
    records the item's full span tree and metrics into it, and ships a
    :meth:`shard_snapshot <repro.obs.observer.Observer.shard_snapshot>`
    back with the result.  The parent absorbs each snapshot as its future
    completes -- spans re-parent under the batch's ``run_batch`` span
    (stamped with the worker pid and item key), counters sum, histograms
    merge bucket-by-bucket -- so a parallel run yields the same merged
    trace and totals a serial run would.

    Custom ``sleep``/``clock`` callables and fault plans remain
    serial-only (arbitrary closures and in-process fault state cannot
    cross to a worker); supplying any of them with ``workers > 1`` emits a
    :class:`BatchSerialFallback` warning naming the reasons and runs the
    batch serially.
    """
    if config is None:
        config = DEFAULT_CONFIG
    started = clock()
    done = (
        load_checkpoint(checkpoint_path)
        if checkpoint_path is not None and resume
        else {}
    )
    reasons = serial_fallback_reasons(config, sleep, clock)
    parallel = config.workers > 1 and not reasons
    if config.workers > 1 and reasons:
        warnings.warn(BatchSerialFallback(config.workers, reasons), stacklevel=2)
    report = BatchReport()
    checkpoint = (
        open(checkpoint_path, "a" if resume else "w")
        if checkpoint_path is not None
        else None
    )
    if checkpoint is not None and checkpoint.tell() == 0:
        # Fresh (or truncated) file: stamp the format version first.
        checkpoint.write(checkpoint_header() + "\n")
        checkpoint.flush()
    try:
        with _obs.observe(config.observer) as o:
            if o is not None and config.workers > 1:
                for reason in reasons:
                    o.count("batch.serial_fallback", reason=reason)
            batch_span = (
                o.span("run_batch", workers=config.workers, parallel=parallel)
                if o is not None
                else None
            )
            try:
                if parallel:
                    _run_parallel(
                        items,
                        done,
                        report,
                        checkpoint,
                        on_item,
                        config=config,
                        observer=o,
                    )
                else:
                    for key, thunk in items:
                        prior = done.get(key)
                        if prior is not None:
                            report.results.append(prior)
                            continue
                        result = _run_item(
                            key,
                            thunk,
                            config=config,
                            sleep=sleep,
                            clock=clock,
                        )
                        report.results.append(result)
                        _record(result, checkpoint, on_item)
            finally:
                if batch_span is not None:
                    batch_span.set(items=len(report.results)).finish()
    finally:
        if checkpoint is not None:
            checkpoint.close()
    report.elapsed = clock() - started
    return report


def _record(result: BatchItemResult, checkpoint, on_item) -> None:
    """Checkpoint and observe one freshly computed result."""
    o = _obs._CURRENT
    if o is not None:
        o.count("batch.items", status=result.status)
        o.observe_value("batch.item_seconds", result.elapsed)
    if checkpoint is not None:
        checkpoint.write(result.to_json() + "\n")
        checkpoint.flush()
    if on_item is not None:
        try:
            on_item(result)
        except Exception:  # observers must not break the batch
            pass


def _run_parallel(
    items: Iterable[Tuple[str, Callable[[], CFG]]],
    done: Dict[str, BatchItemResult],
    report: BatchReport,
    checkpoint,
    on_item,
    *,
    config: AnalysisConfig,
    observer: Optional[Observer] = None,
) -> None:
    """Fan engine calls out over a process pool; fill ``report`` in order.

    When an observer is active, each submission carries its picklable
    :meth:`~repro.obs.observer.Observer.spec`; the worker records into a
    fresh shard and returns its snapshot, which is absorbed here -- in the
    completion loop, while the batch span is still open -- so the merged
    trace and metrics land in the parent observer incrementally.
    """
    from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait

    spec = observer.spec() if observer is not None else None
    # config.observer cannot (and need not) cross the pool: the spec does.
    worker_config = (
        replace(config, observer=None) if config.observer is not None else config
    )
    # Slots keep submission order; each is a BatchItemResult once known.
    slots: List[Optional[BatchItemResult]] = []
    pending = {}  # future -> (slot index, key)
    with ProcessPoolExecutor(max_workers=config.workers) as pool:
        for key, thunk in items:
            prior = done.get(key)
            if prior is not None:
                slots.append(prior)
                continue
            loaded = _load_item(
                key, thunk, config.retries, config.backoff, config.backoff_factor
            )
            if isinstance(loaded, BatchItemResult):  # thunk never produced a CFG
                slots.append(loaded)
                _record(loaded, checkpoint, on_item)
                continue
            payload, load_tries, load_elapsed = loaded
            index = len(slots)
            slots.append(None)
            try:
                future = pool.submit(
                    _worker_run_item,
                    key,
                    payload,
                    worker_config,
                    load_tries,
                    load_elapsed,
                    spec,
                )
            except Exception as error:
                # A worker died hard enough to break the pool (SIGKILL,
                # OOM): items not yet submitted still get honest error
                # results instead of the whole batch raising.
                result = BatchItemResult(
                    key=key,
                    status="error",
                    error=f"worker pool broken: {type(error).__name__}: {error}",
                )
                slots[index] = result
                _record(result, checkpoint, on_item)
                continue
            pending[future] = (index, key)
        while pending:
            finished, _ = wait(list(pending), return_when=FIRST_COMPLETED)
            for future in finished:
                index, item_key = pending.pop(future)
                error = future.exception()
                if error is not None:
                    # The worker process itself died (OOM, segfault, ...).
                    result = BatchItemResult(
                        key=item_key,
                        status="error",
                        error=f"worker crashed: {type(error).__name__}: {error}",
                    )
                else:
                    data = future.result()
                    shard = data.pop("observer", None)
                    result = BatchItemResult(**data)
                    if observer is not None and shard is not None:
                        observer.absorb(shard, item=item_key)
                slots[index] = result
                _record(result, checkpoint, on_item)
    report.results.extend(r for r in slots if r is not None)


def _load_item(
    key: str,
    thunk: Callable[[], CFG],
    retries: int,
    backoff: float,
    backoff_factor: float,
):
    """Call ``thunk`` (with the batch retry policy) and encode its CFG.

    Returns either ``(payload, tries, elapsed)`` on success or a finished
    ``error`` :class:`BatchItemResult` when every try raised -- loading
    happens in the parent (thunks are arbitrary closures), so its retries
    are spent here rather than in the worker.
    """
    started = time.monotonic()
    pause = backoff
    last_error = "thunk produced no CFG"
    for attempt in range(retries + 1):
        if attempt > 0:
            time.sleep(pause)
            pause *= backoff_factor
        try:
            cfg = thunk()
            return _encode_cfg(cfg), attempt + 1, time.monotonic() - started
        except Exception as error:
            last_error = f"{type(error).__name__}: {error}"
    return BatchItemResult(
        key=key,
        status="error",
        elapsed=time.monotonic() - started,
        tries=retries + 1,
        error=last_error,
    )


def _encode_cfg(cfg: CFG) -> Tuple[str, Any, Any, Tuple, Tuple]:
    """A picklable structural snapshot: (name, start, end, nodes, edges)."""
    return (
        cfg.name,
        cfg.start,
        cfg.end,
        tuple(cfg.nodes),
        tuple((e.source, e.target, e.label) for e in cfg.edges),
    )


def _decode_cfg(payload: Tuple[str, Any, Any, Tuple, Tuple]) -> CFG:
    """Rebuild a CFG from :func:`_encode_cfg` (same node/edge order)."""
    name, start, end, nodes, edges = payload
    cfg = CFG(name=name)
    for node in nodes:
        cfg.add_node(node)
    for source, target, label in edges:
        cfg.add_edge(source, target, label)
    cfg.start = start
    cfg.end = end
    return cfg


def _worker_run_item(
    key: str,
    payload: Tuple,
    config: AnalysisConfig,
    load_tries: int,
    load_elapsed: float,
    observer_spec: Optional[Dict[str, bool]] = None,
) -> Dict[str, Any]:
    """Process-pool entry point: decode, run the ladder, return plain data.

    Must stay module-level (pickled by reference).  The config is picklable
    here by construction -- _run_parallel strips the observer (the spec
    travels instead) and run_batch forces the serial path for fault plans.  Returns the fields of a :class:`BatchItemResult`
    as a dict -- plus, when a spec was supplied, the ``"observer"`` shard
    snapshot recorded around this one item -- so the parent never unpickles
    custom classes from a possibly-wedged worker.
    """
    started = time.monotonic()
    shard = Observer.from_spec(observer_spec) if observer_spec is not None else None
    with _obs.observe(shard):
        result = _run_item(
            key,
            lambda: _decode_cfg(payload),
            config=config,
            sleep=time.sleep,
            clock=time.monotonic,
        )
    data: Dict[str, Any] = {
        "key": result.key,
        "status": result.status,
        "elapsed": load_elapsed + (time.monotonic() - started),
        "tries": max(result.tries, load_tries),
        "paths": result.paths,
        "error": result.error,
    }
    if shard is not None:
        data["observer"] = shard.shard_snapshot()
    return data


def _run_item(
    key: str,
    thunk: Callable[[], CFG],
    *,
    config: AnalysisConfig,
    sleep: Callable[[float], None],
    clock: Callable[[], float],
) -> BatchItemResult:
    item_started = clock()
    pause = config.backoff
    last_error: Optional[str] = None
    status = "error"
    paths: Dict[str, str] = {}
    tries = 0
    for attempt in range(config.retries + 1):
        tries = attempt + 1
        if attempt > 0:
            sleep(pause)
            pause *= config.backoff_factor
        try:
            result = run_analysis(thunk(), config=config)
        except Exception as error:  # isolation: nothing escapes the item
            status = "error"
            last_error = f"{type(error).__name__}: {error}"
            continue
        if result.ok:
            status = "degraded" if result.degraded else "ok"
            paths = result.diagnostic.paths
            last_error = None
            break
        status = "failed"
        last_error = result.error
        paths = result.diagnostic.paths
    return BatchItemResult(
        key=key,
        status=status,
        elapsed=clock() - item_started,
        tries=tries,
        paths=paths,
        error=last_error,
    )
