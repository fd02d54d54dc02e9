"""Fault-injection plumbing: determinism, scoping, and real corruption."""

import pytest

from repro.cfg.builder import cfg_from_edges
from repro.controldep.regions_cfs import control_regions_cfs
from repro.controldep.regions_fast import control_regions
from repro.core.cycle_equiv import cycle_equivalence_of_cfg
from repro.dominance.iterative import immediate_dominators
from repro.dominance.lengauer_tarjan import lengauer_tarjan
from repro.resilience import faults
from repro.resilience.faults import ALL_SITES, FaultPlan, SITES_BY_NAME


@pytest.fixture(autouse=True)
def _no_leftover_plan():
    yield
    faults.uninstall()
    assert faults.active_plan() is None


def demo_cfg():
    """Loops + branches: every fault site has eligible executions here."""
    return cfg_from_edges(
        [
            ("start", "a"), ("a", "b"), ("a", "c"), ("b", "d"), ("c", "d"),
            ("d", "e"), ("e", "a"), ("e", "end"), ("start", "end"),
        ]
    )


def split_cfg():
    """Nested loops whose nodes b and d need a split in S' (several in-
    and several out-edges), where skipped capping brackets change the
    control-region classes.  On demo_cfg they fire but leave every node
    class right."""
    return cfg_from_edges(
        [
            ("start", "a"), ("a", "b"), ("b", "c"), ("c", "d"), ("d", "end"),
            ("d", "c"), ("b", "d"), ("d", "b"), ("a", "d"),
        ]
    )


# ----------------------------------------------------------------------
# plan semantics
# ----------------------------------------------------------------------

def test_all_sites_have_unique_names_and_modules():
    names = [site.name for site in ALL_SITES]
    assert len(names) == len(set(names))
    assert set(SITES_BY_NAME) == set(names)
    for site in ALL_SITES:
        assert site.description


def test_unknown_site_rejected():
    with pytest.raises(ValueError, match="unknown fault site"):
        FaultPlan(sites=["no/such-site"])


def test_rate_out_of_range_rejected():
    with pytest.raises(ValueError):
        FaultPlan(rate=1.5)


def test_default_plan_fires_every_eligible_execution():
    plan = FaultPlan(sites=["cycle-equiv/skip-cap"])
    assert all(plan.should_fire("cycle-equiv/skip-cap") for _ in range(10))
    assert plan.fires["cycle-equiv/skip-cap"] == 10
    assert not plan.should_fire("bracketlist/push-bottom")  # not armed


def test_max_fires_bounds_firings():
    plan = FaultPlan(max_fires=2)
    results = [plan.should_fire("bracketlist/push-bottom") for _ in range(5)]
    assert results == [True, True, False, False, False]
    assert plan.total_fires() == 2


def test_skip_first_delays_firing():
    plan = FaultPlan(skip_first=3)
    results = [plan.should_fire("cycle-equiv/skip-cap") for _ in range(5)]
    assert results == [False, False, False, True, True]


def test_probabilistic_firing_is_deterministic_in_the_seed():
    def pattern(seed):
        plan = FaultPlan(sites=["lengauer-tarjan/semi-skew"], seed=seed, rate=0.5)
        return [plan.should_fire("lengauer-tarjan/semi-skew") for _ in range(64)]

    assert pattern(7) == pattern(7)
    assert pattern(7) != pattern(8)  # astronomically unlikely to collide
    assert any(pattern(7)) and not all(pattern(7))


def test_site_streams_are_independent():
    # Calls to one site must not perturb another site's random stream.
    plain = FaultPlan(seed=3, rate=0.5)
    a = [plain.should_fire("bracketlist/push-bottom") for _ in range(64)]
    interleaved = FaultPlan(seed=3, rate=0.5)
    for _ in range(64):
        interleaved.should_fire("cycle-equiv/skip-cap")
    b = [interleaved.should_fire("bracketlist/push-bottom") for _ in range(64)]
    assert a == b


# ----------------------------------------------------------------------
# install / uninstall / inject scoping
# ----------------------------------------------------------------------

def test_install_and_uninstall_roundtrip():
    plan = FaultPlan()
    faults.install(plan)
    assert faults.active_plan() is plan
    faults.uninstall()
    assert faults.active_plan() is None


def test_inject_restores_previous_plan():
    outer = FaultPlan(seed=1)
    inner = FaultPlan(seed=2)
    with faults.inject(outer):
        with faults.inject(inner):
            assert faults.active_plan() is inner
        assert faults.active_plan() is outer
    assert faults.active_plan() is None


def test_inject_uninstalls_on_exception():
    with pytest.raises(RuntimeError):
        with faults.inject(FaultPlan()):
            raise RuntimeError("boom")
    assert faults.active_plan() is None


def test_no_plan_means_clean_behaviour():
    cfg = demo_cfg()
    baseline = cycle_equivalence_of_cfg(cfg).class_of
    with faults.inject(FaultPlan(sites=["cycle-equiv/skip-cap"])):
        pass  # installed and removed without running anything
    assert cycle_equivalence_of_cfg(cfg).class_of == baseline


# ----------------------------------------------------------------------
# each site corrupts its algorithm observably
# ----------------------------------------------------------------------

def test_push_bottom_corrupts_cycle_equivalence():
    cfg = demo_cfg()
    clean = cycle_equivalence_of_cfg(cfg)
    with faults.inject(FaultPlan(sites=["bracketlist/push-bottom"])) as plan:
        try:
            faulty = cycle_equivalence_of_cfg(cfg)
            corrupted = faulty.class_of != clean.class_of
        except Exception:
            corrupted = True  # a crash counts as observable corruption
    assert plan.total_fires() > 0
    assert corrupted


def test_skip_cap_corrupts_control_regions():
    cfg = split_cfg()
    reference = control_regions_cfs(cfg)
    assert control_regions(cfg) == reference
    with faults.inject(FaultPlan(sites=["cycle-equiv/skip-cap"])) as plan:
        try:
            faulty = control_regions(cfg)
            corrupted = faulty != reference
        except Exception:
            corrupted = True
    assert plan.total_fires() > 0
    assert corrupted


def test_semi_skew_corrupts_dominators():
    cfg = demo_cfg()
    reference = immediate_dominators(cfg)
    assert lengauer_tarjan(cfg) == reference
    with faults.inject(FaultPlan(sites=["lengauer-tarjan/semi-skew"])) as plan:
        faulty = lengauer_tarjan(cfg)
    assert plan.total_fires() > 0
    assert faulty != reference


def test_transient_fault_only_hits_the_first_run():
    cfg = demo_cfg()
    reference = immediate_dominators(cfg)
    with faults.inject(
        FaultPlan(sites=["lengauer-tarjan/semi-skew"], max_fires=1)
    ) as plan:
        first = lengauer_tarjan(cfg)
        second = lengauer_tarjan(cfg)
    assert plan.total_fires() == 1
    assert first != reference
    assert second == reference
