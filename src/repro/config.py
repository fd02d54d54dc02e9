"""One frozen configuration object for the whole analysis surface.

:class:`AnalysisConfig` is the one way to tune
:func:`repro.resilience.engine.run_analysis`,
:func:`repro.resilience.batch.run_batch`, and
:class:`repro.incremental.session.EditSession`: engine behaviour (stages,
retry ladder), guards (deadline/step budget), fault injection,
observability, batch execution (workers, retries, backoff) and edit
verification live in one immutable, reusable value::

    from repro import AnalysisConfig, Observer, run_analysis

    config = AnalysisConfig(deadline=2.0, observer=Observer())
    result = run_analysis(cfg, config=config)

The dataclass is frozen so a config can be shared across threads, batches,
and sessions without defensive copying; derive variants with
:meth:`AnalysisConfig.replace`.

Memory is not tuned here.  A graph's snapshot and analysis session live on
the graph and are freed with it; a long-lived holder of many graphs (the
service) bounds them by bounding the graphs it keeps.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.obs.observer import Observer

#: The analyses run_analysis knows how to run, in default order.
ALL_ANALYSES: Tuple[str, ...] = ("pst", "dominators", "control-regions")


@dataclass(frozen=True)
class AnalysisConfig:
    """Everything the analysis stack is allowed to vary, in one value.

    Engine
        ``analyses`` (None = all three stages), ``fast_retries``.
    Guards
        ``deadline`` seconds (global per engine call; ``0.0`` is already
        expired), ``step_budget`` per attempt, ``check_every`` checkpoint
        spacing.
    Faults
        ``faults`` -- a :class:`~repro.resilience.faults.FaultPlan`
        installed for the duration of each engine call.
    Observability
        ``observer`` -- a :class:`~repro.obs.observer.Observer` installed
        ambiently for the duration of each call; one built with
        ``profile=True`` arms per-phase
        :meth:`~repro.resilience.guards.Ticker.mark` timers on every ticker
        the engine creates.  An observer is compatible with
        ``workers > 1``: :func:`~repro.resilience.batch.run_batch` gives
        each worker process a fresh shard built from the observer's
        switches and merges the shards (spans re-parented, metrics
        summed) back into this observer as items complete.
    Batch
        ``workers``, ``retries``, ``backoff``, ``backoff_factor``.
    Incremental
        ``verify_incremental_rate`` samples the deltas an
        :class:`~repro.incremental.session.EditSession` accepts for
        differential verification against recompute-from-scratch.
    """

    analyses: Optional[Tuple[str, ...]] = None
    fast_retries: int = 1
    deadline: Optional[float] = None
    step_budget: Optional[int] = None
    check_every: int = 512
    faults: Optional[object] = None  # FaultPlan; untyped to avoid an import cycle
    observer: Optional[Observer] = None
    workers: int = 1
    retries: int = 1
    backoff: float = 0.05
    backoff_factor: float = 2.0
    #: Fraction of accepted deltas whose incremental result is differentially
    #: verified against a recompute-from-scratch (0.0 = never, 1.0 = every
    #: delta).  A mismatch adopts the scratch result and is counted, never
    #: raised -- the production-sampling arm of the fuzz oracle.
    verify_incremental_rate: float = 0.0

    def __post_init__(self) -> None:
        if self.fast_retries < 0:
            raise ValueError("fast_retries must be >= 0")
        if self.retries < 0:
            raise ValueError("retries must be >= 0")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.check_every < 1:
            raise ValueError("check_every must be >= 1")
        if self.deadline is not None and not self.deadline >= 0:
            raise ValueError("deadline must be >= 0 and not NaN")
        if self.backoff < 0 or self.backoff_factor < 0:
            raise ValueError("backoff and backoff_factor must be >= 0")
        if self.step_budget is not None and self.step_budget < 0:
            raise ValueError("step_budget must be >= 0")
        if not 0.0 <= self.verify_incremental_rate <= 1.0:
            raise ValueError("verify_incremental_rate must be within [0, 1]")
        if self.analyses is not None:
            # Normalize any iterable to a tuple so the config stays hashable.
            object.__setattr__(self, "analyses", tuple(self.analyses))

    def replace(self, **changes) -> "AnalysisConfig":
        """A copy with ``changes`` applied (the frozen-dataclass idiom)."""
        return dataclasses.replace(self, **changes)


#: The all-defaults config every entry point starts from.
DEFAULT_CONFIG = AnalysisConfig()
