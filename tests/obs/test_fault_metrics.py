"""Seeded faults surface as deterministic retry/fallback/fired counters.

The fault plans are seeded and the engine ladder is deterministic, so the
exact counter values -- not just their presence -- are pinned here.  If an
engine change legitimately alters the ladder, these numbers should be
updated alongside the `Diagnostic` expectations in
``tests/resilience/test_engine.py``.
"""

import pytest

from repro.cfg.builder import cfg_from_edges
from repro.config import AnalysisConfig
from repro.resilience import faults
from repro.resilience.engine import run_analysis
from repro.resilience.faults import FaultPlan

from repro.obs.observer import Observer


@pytest.fixture(autouse=True)
def _no_leftover_plan():
    yield
    faults.uninstall()


def demo_cfg():
    return cfg_from_edges(
        [
            ("start", "a"), ("a", "b"), ("a", "c"), ("b", "d"), ("c", "d"),
            ("d", "e"), ("e", "a"), ("e", "end"), ("start", "end"),
        ]
    )


def run_faulted(max_fires=None):
    observer = Observer(trace=False)
    plan = FaultPlan(
        sites=["lengauer-tarjan/semi-skew"], seed=7, max_fires=max_fires
    )
    config = AnalysisConfig(
        analyses=("dominators",), observer=observer, faults=plan
    )
    result = run_analysis(demo_cfg(), config=config)
    assert result.ok
    return observer, result, plan


def test_persistent_fault_counts_are_exact():
    observer, result, plan = run_faulted(max_fires=None)
    assert result.diagnostic.paths["dominators"] == "slow"
    metrics = observer.metrics
    assert metrics.counts_matching("engine.attempts") == {
        "engine.attempts{outcome=postcondition,path=fast,stage=dominators}": 1.0,
        "engine.attempts{outcome=postcondition,path=fast-retry,stage=dominators}": 1.0,
        "engine.attempts{outcome=ok,path=slow,stage=dominators}": 1.0,
    }
    assert metrics.count_of("engine.retries", stage="dominators") == 1.0
    assert metrics.count_of("engine.fallbacks", stage="dominators") == 1.0
    # The counter agrees with the plan's own fire ledger: the site fires
    # once per eligible vertex per kernel run, and the kernel ran twice
    # (fast + retry) on this graph -> 6 firings, split across the attempts.
    fired = metrics.count_of("faults.fired", site="lengauer-tarjan/semi-skew")
    assert fired == plan.fires["lengauer-tarjan/semi-skew"] == 6
    # Two LT kernel runs; the iterative (CHK) solver ran twice -- once as
    # the postcondition checker's reference, computed on the first failed
    # fast attempt and shared with the retry, then as the slow fallback
    # itself.  It dispatches to its own array kernel; the fault plan only
    # corrupts the Lengauer-Tarjan sites, so the checker stays trustworthy
    # either way.
    assert metrics.counts_matching("dispatch") == {
        "dispatch{component=lengauer_tarjan,impl=kernel}": 2.0,
        "dispatch{component=immediate_dominators,impl=kernel}": 2.0,
    }


def test_transient_fault_recovers_on_retry_with_exact_counts():
    observer, result, _plan = run_faulted(max_fires=1)
    assert result.diagnostic.paths["dominators"] == "fast-retry"
    metrics = observer.metrics
    assert metrics.counts_matching("engine.attempts") == {
        "engine.attempts{outcome=postcondition,path=fast,stage=dominators}": 1.0,
        "engine.attempts{outcome=ok,path=fast-retry,stage=dominators}": 1.0,
    }
    assert metrics.count_of("engine.retries", stage="dominators") == 1.0
    assert metrics.count_of("engine.fallbacks", stage="dominators") == 0.0
    assert metrics.count_of("faults.fired", site="lengauer-tarjan/semi-skew") == 1.0


def test_clean_run_has_zero_fault_counters():
    observer = Observer(trace=False)
    result = run_analysis(
        demo_cfg(),
        config=AnalysisConfig(analyses=("dominators",), observer=observer),
    )
    assert result.ok and not result.diagnostic.degraded
    assert observer.metrics.counts_matching("faults.fired") == {}
    assert observer.metrics.counts_matching("engine.retries") == {}
    assert observer.metrics.counts_matching("engine.fallbacks") == {}
