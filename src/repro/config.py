"""One frozen configuration object for the whole analysis surface.

:class:`AnalysisConfig` replaces the ad-hoc keyword sprawl of
:func:`repro.resilience.engine.run_analysis`,
:func:`repro.resilience.batch.run_batch`, and
:func:`repro.kernel.session.session_for`: engine behaviour (retry ladder,
postcondition scope), guards (deadline/step budget), fault injection,
observability, and batch execution (workers, retries, backoff) live in one
immutable, reusable value::

    from repro import AnalysisConfig, Observer, run_analysis

    config = AnalysisConfig(deadline=2.0, observer=Observer())
    result = run_analysis(cfg, config=config)

The old per-call keywords still work but emit :class:`DeprecationWarning`;
:func:`coalesce_config` is the single place that folds them in, so every
entry point deprecates identically.

The dataclass is frozen so a config can be shared across threads, batches,
and sessions without defensive copying; derive variants with
:meth:`AnalysisConfig.replace`.
"""

from __future__ import annotations

import dataclasses
import warnings
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.obs.observer import Observer

#: The analyses run_analysis knows how to run, in default order.
ALL_ANALYSES: Tuple[str, ...] = ("pst", "dominators", "control-regions")

#: Graphs with at most this many edges get the *full* slow cross-check as a
#: postcondition (it is microseconds there); larger graphs rely on the
#: structural and dominance checks, which stay O(E).
DEFAULT_FULL_CHECK_LIMIT = 256


@dataclass(frozen=True)
class AnalysisConfig:
    """Everything the analysis stack is allowed to vary, in one value.

    Engine
        ``analyses`` (None = all three stages), ``fast_retries``,
        ``full_check_limit``, ``engine`` (a custom engine callable for
        :func:`~repro.resilience.batch.run_batch`; ``None`` = the built-in
        :func:`~repro.resilience.engine.run_analysis`).
    Guards
        ``deadline`` seconds (global per engine call), ``step_budget``
        per attempt, ``check_every`` checkpoint spacing.
    Faults
        ``faults`` -- a :class:`~repro.resilience.faults.FaultPlan`
        installed for the duration of each engine call.
    Observability
        ``observer`` -- a :class:`~repro.obs.observer.Observer` installed
        ambiently for the duration of each call; ``profile`` arms
        per-phase :meth:`~repro.resilience.guards.Ticker.mark` timers on
        every ticker the engine creates.  An observer is compatible with
        ``workers > 1``: :func:`~repro.resilience.batch.run_batch` gives
        each worker process a fresh shard built from the observer's
        switches and merges the shards (spans re-parented, metrics
        summed) back into this observer as items complete.
    Batch
        ``workers``, ``retries``, ``backoff``, ``backoff_factor``.
    Incremental
        ``incremental`` enables regional PST/cycle-equivalence maintenance
        under :class:`~repro.incremental.session.EditSession` deltas;
        ``verify_incremental_rate`` samples accepted deltas for
        differential verification against recompute-from-scratch.
    """

    analyses: Optional[Tuple[str, ...]] = None
    fast_retries: int = 1
    full_check_limit: int = DEFAULT_FULL_CHECK_LIMIT
    engine: Optional[Callable] = None
    deadline: Optional[float] = None
    step_budget: Optional[int] = None
    check_every: int = 512
    faults: Optional[object] = None  # FaultPlan; untyped to avoid an import cycle
    observer: Optional[Observer] = None
    profile: bool = False
    workers: int = 1
    retries: int = 1
    backoff: float = 0.05
    backoff_factor: float = 2.0
    #: Byte bound for analysis caches (``None`` = unbounded, the historical
    #: behaviour).  When set, the engine's per-call :class:`AnalysisSession`
    #: memoization, :func:`~repro.kernel.session.session_for` sessions, and
    #: the process-wide frozen-CSR registry all evict least-recently-used
    #: entries once their size-accounted cost (CSR array bytes, see
    #: :func:`repro.service.cache.frozen_cost_bytes`) exceeds the bound.
    max_cache_bytes: Optional[int] = None
    #: Maintain cached analyses incrementally under CFG edit deltas (the
    #: :class:`~repro.incremental.session.EditSession` regional-splice
    #: path).  ``False`` makes every delta trigger a full recompute --
    #: slower, but bit-for-bit the reference behaviour.
    incremental: bool = False
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
        if self.full_check_limit < 0:
            raise ValueError("full_check_limit must be >= 0")
        if self.backoff < 0 or self.backoff_factor < 0:
            raise ValueError("backoff and backoff_factor must be >= 0")
        if self.step_budget is not None and self.step_budget < 0:
            raise ValueError("step_budget must be >= 0")
        if self.max_cache_bytes is not None and self.max_cache_bytes < 0:
            raise ValueError("max_cache_bytes must be >= 0")
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

_UNSET = object()


def coalesce_config(
    config: Optional[AnalysisConfig],
    caller: str,
    legacy: Dict[str, object],
) -> AnalysisConfig:
    """Fold deprecated per-call keywords into a config, warning once per call.

    ``legacy`` maps field name -> value, with :data:`_UNSET` marking
    keywords the caller did not pass.  Explicit legacy keywords override
    the corresponding ``config`` field (matching the historical behaviour
    where the keyword was the only spelling).
    """
    supplied = {k: v for k, v in legacy.items() if v is not _UNSET}
    if supplied:
        warnings.warn(
            f"{caller}: keyword(s) {', '.join(sorted(supplied))} are "
            "deprecated; pass config=AnalysisConfig(...) instead",
            DeprecationWarning,
            stacklevel=3,
        )
    base = config if config is not None else DEFAULT_CONFIG
    return base.replace(**supplied) if supplied else base
