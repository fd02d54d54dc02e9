"""run_analysis: verified results on every path, and it never raises."""

import pytest

from repro.cfg.builder import cfg_from_edges
from repro.cfg.graph import CFG
from repro.config import AnalysisConfig
from repro.controldep.regions_cfs import control_regions_cfs
from repro.controldep.regions_fast import control_regions
from repro.core.pst import build_pst
from repro.dominance.iterative import immediate_dominators
from repro.fuzz.generator import generate_case
from repro.resilience import faults
from repro.resilience.engine import run_analysis
from repro.resilience.faults import ALL_SITES, FaultPlan
from repro.synth.structured import random_lowered_procedure
from tests.resilience.conftest import chain_cfg

# run_analysis works on an immutable snapshot, so the edit-layer sites never
# execute under it; they get their own coverage in tests/incremental/.
ENGINE_SITES = [s for s in ALL_SITES if not s.name.startswith("incremental/")]


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


def pst_shape(pst):
    return sorted((r.entry.eid, r.exit.eid) for r in pst.canonical_regions())


# ----------------------------------------------------------------------
# clean inputs
# ----------------------------------------------------------------------

def test_clean_run_uses_fast_paths_and_matches_direct_calls():
    cfg = demo_cfg()
    result = run_analysis(cfg)
    assert result.ok and not result.degraded and result.error is None
    assert result.diagnostic.paths == {
        "pst": "fast", "dominators": "fast", "control-regions": "fast",
    }
    assert pst_shape(result.pst) == pst_shape(build_pst(cfg))
    assert result.idom == immediate_dominators(cfg)
    assert result.control_regions == control_regions(cfg)
    assert result.diagnostic.elapsed >= 0


def test_analyses_subset_only_computes_whats_asked():
    result = run_analysis(demo_cfg(), analyses=("dominators",))
    assert result.ok
    assert result.idom is not None
    assert result.pst is None and result.control_regions is None
    assert [a.stage for a in result.diagnostic.attempts] == ["dominators"]


def test_unknown_analysis_reported_not_raised():
    result = run_analysis(demo_cfg(), analyses=("pst", "nonsense"))
    assert not result.ok
    assert "nonsense" in result.error


# ----------------------------------------------------------------------
# the acceptance criterion: every fault site, detected or masked,
# never a raise, never a wrong answer
# ----------------------------------------------------------------------

@pytest.mark.parametrize("site", [s.name for s in ENGINE_SITES])
def test_persistent_fault_recovers_with_correct_results(site):
    cfg = demo_cfg()
    clean = run_analysis(cfg)
    assert clean.ok
    with faults.inject(FaultPlan(sites=[site])) as plan:
        result = run_analysis(cfg)
    assert plan.total_fires() > 0, "the fault site never executed"
    assert result.ok, result.diagnostic.render()
    assert pst_shape(result.pst) == pst_shape(clean.pst)
    assert result.idom == clean.idom
    assert result.control_regions == clean.control_regions


def test_persistent_semi_skew_degrades_dominators_to_slow():
    with faults.inject(FaultPlan(sites=["lengauer-tarjan/semi-skew"])):
        result = run_analysis(demo_cfg())
    assert result.ok and result.degraded
    assert result.diagnostic.paths["dominators"] == "slow"
    outcomes = [
        (a.path, a.outcome)
        for a in result.diagnostic.attempts
        if a.stage == "dominators"
    ]
    assert outcomes == [
        ("fast", "postcondition"),
        ("fast-retry", "postcondition"),
        ("slow", "ok"),
    ]


def test_persistent_push_bottom_degrades_pst_to_slow():
    with faults.inject(FaultPlan(sites=["bracketlist/push-bottom"])):
        result = run_analysis(demo_cfg())
    assert result.ok and result.degraded
    assert result.diagnostic.paths["pst"] == "slow"


def test_transient_fault_recovers_on_fast_retry():
    with faults.inject(
        FaultPlan(sites=["lengauer-tarjan/semi-skew"], max_fires=1)
    ):
        result = run_analysis(demo_cfg())
    assert result.ok and result.degraded
    assert result.diagnostic.paths["dominators"] == "fast-retry"


def test_fault_sweep_over_fuzz_corpus():
    clean_by_seed = {}
    for seed in range(12):
        cfg = generate_case(seed, size=8).cfg
        clean = run_analysis(cfg)
        assert clean.ok, (seed, clean.diagnostic.render())
        clean_by_seed[seed] = (cfg, clean)
    for site in ENGINE_SITES:
        for seed, (cfg, clean) in clean_by_seed.items():
            with faults.inject(FaultPlan(sites=[site.name], seed=seed)):
                result = run_analysis(cfg)
            assert result.ok, (site.name, seed, result.diagnostic.render())
            assert result.idom == clean.idom, (site.name, seed)
            assert result.control_regions == clean.control_regions, (site.name, seed)
            assert pst_shape(result.pst) == pst_shape(clean.pst), (site.name, seed)


# ----------------------------------------------------------------------
# the one artifact shared across stages: checked cycle equivalence
# ----------------------------------------------------------------------

def test_control_regions_read_the_checked_pst_classes(figure4_passes):
    # No node of this graph needs a split, so the control-regions stage
    # reads its classes off the PST stage's pass and runs none of its own.
    cfg = random_lowered_procedure(7, target_statements=400).cfg
    result = run_analysis(cfg)
    assert result.ok and not result.degraded
    assert figure4_passes == [cfg.num_nodes]
    assert result.control_regions == control_regions_cfs(cfg)


def test_a_slow_pst_lends_no_classes(figure4_passes):
    plan = FaultPlan(sites=["bracketlist/push-bottom"])
    result = run_analysis(demo_cfg(), config=AnalysisConfig(faults=plan))
    assert result.ok
    assert result.diagnostic.paths["pst"] == "slow"
    # Two failed fast PST attempts, then the control-regions stage runs its
    # own pass over S' (demo_cfg splits one node), which comes out right.
    n = demo_cfg().num_nodes
    assert figure4_passes == [n, n, n + 1]
    assert result.control_regions == control_regions_cfs(demo_cfg())


def test_control_regions_alone_run_their_own_pass(figure4_passes):
    cfg = random_lowered_procedure(7, target_statements=400).cfg
    result = run_analysis(cfg, analyses=("control-regions",))
    assert result.ok and not result.degraded
    assert figure4_passes == [cfg.num_nodes]


# ----------------------------------------------------------------------
# guards through the engine
# ----------------------------------------------------------------------

def test_expired_deadline_reported_not_raised():
    result = run_analysis(demo_cfg(), config=AnalysisConfig(deadline=0.0))
    assert not result.ok
    assert "deadline" in result.error
    # Later stages are marked skipped rather than silently absent.
    stages = [a.stage for a in result.diagnostic.attempts]
    assert "dominators" in stages and "control-regions" in stages


def test_tiny_step_budget_reported_not_raised():
    result = run_analysis(chain_cfg(40), config=AnalysisConfig(step_budget=3))
    assert not result.ok
    assert "pst" in result.error
    budget_attempts = [
        a for a in result.diagnostic.attempts if a.outcome == "budget"
    ]
    assert budget_attempts, result.diagnostic.render()


def test_generous_guards_leave_fast_path_untouched():
    result = run_analysis(
        demo_cfg(), config=AnalysisConfig(deadline=3600.0, step_budget=10_000_000)
    )
    assert result.ok and not result.degraded


# ----------------------------------------------------------------------
# bad inputs: rejected, never raised
# ----------------------------------------------------------------------

def test_invalid_cfg_rejected_with_diagnostic():
    cfg = CFG(start="start", end="end")
    cfg.add_edge("start", "end")
    cfg.add_node("orphan")  # violates Definition 1
    result = run_analysis(cfg)
    assert not result.ok
    assert "invalid CFG" in result.error
    assert result.diagnostic.attempts[0].outcome == "invalid"


def test_garbage_input_contained():
    result = run_analysis(None)  # type: ignore[arg-type]
    assert not result.ok
    assert result.error


def test_diagnostic_render_is_printable():
    with faults.inject(FaultPlan(sites=["lengauer-tarjan/semi-skew"])):
        result = run_analysis(demo_cfg())
    text = result.diagnostic.render()
    assert "dominators" in text and "slow" in text and "total elapsed" in text
