"""Both stages' classes, checked past ``full_check_limit`` by dependence sums.

Past the limit the engine runs no slow reference.  It checks the fast
cycle-equivalence classes and the control-region groups against
:func:`repro.kernel.dominance.control_dependence_sums`, one linear pass
that summarizes every edge's and every node's control-dependence set over
the postdominator tree.  These tests hold the sums to the references, and
the engine to the answers that injected faults used to slip through as
verified.
"""

import pytest

from repro.config import DEFAULT_FULL_CHECK_LIMIT, AnalysisConfig
from repro.controldep.fow import control_regions_by_definition
from repro.core.cycle_equiv import cycle_equivalence_of_cfg_reference
from repro.core.pst import build_pst_reference
from repro.dominance.iterative import edge_dominance
from repro.fuzz.generator import generate_case
from repro.kernel.dominance import control_dependence_sums
from repro.kernel.registry import shared_frozen
from repro.resilience.engine import run_analysis
from repro.resilience.faults import FaultPlan
from repro.synth.structured import random_lowered_procedure

CLASS_SITES = ("bracketlist/push-bottom", "cycle-equiv/skip-cap")


def partition(labels):
    groups = {}
    for index, label in enumerate(labels):
        groups.setdefault(label, []).append(index)
    return sorted(groups.values())


def group_labels(cfg, groups):
    index_of = shared_frozen(cfg).index_of
    labels = [None] * cfg.num_nodes
    for group_index, group in enumerate(groups):
        for node in group:
            labels[index_of[node]] = group_index
    return labels


def canonical(pst):
    return sorted((r.entry.eid, r.exit.eid) for r in pst.canonical_regions())


def test_sums_partition_edges_and_nodes_as_the_references_do():
    shapes = {"self-loops": 0, "parallel edges": 0}
    for seed in range(150):
        for size in (6, 12, 30):
            cfg = generate_case(seed, size=size).cfg
            edges = cfg.edges
            shapes["self-loops"] += any(e.source == e.target for e in edges)
            shapes["parallel edges"] += len({e.pair for e in edges}) < len(edges)
            edge_sums, node_sums = control_dependence_sums(edge_dominance(cfg))
            classes = cycle_equivalence_of_cfg_reference(cfg).class_of
            assert partition(edge_sums) == partition(classes[e] for e in edges), (
                seed, size,
            )
            regions = control_regions_by_definition(cfg)
            assert partition(node_sums) == partition(group_labels(cfg, regions)), (
                seed, size,
            )
    assert all(shapes.values()), shapes


def test_fuzz_graphs_forced_through_the_sums_check_run_clean():
    # full_check_limit=0 sends every graph through the sums check: a false
    # alarm would show as a degraded clean run.
    config = AnalysisConfig(full_check_limit=0)
    for seed in range(200):
        cfg = generate_case(seed, size=20).cfg
        result = run_analysis(cfg, config=config)
        assert result.ok and not result.degraded, (seed, result.diagnostic.render())
        assert result.control_regions == control_regions_by_definition(cfg), seed
        reference = build_pst_reference(cfg, cycle_equivalence_of_cfg_reference(cfg))
        assert canonical(result.pst) == canonical(reference), seed


@pytest.mark.parametrize("site", CLASS_SITES)
def test_persistent_class_fault_past_the_limit_falls_back(site):
    cfg = random_lowered_procedure(1, 300).cfg
    assert cfg.num_edges > DEFAULT_FULL_CHECK_LIMIT
    clean = run_analysis(cfg)
    faulted = run_analysis(
        cfg, config=AnalysisConfig(faults=FaultPlan(sites=[site], seed=0))
    )
    assert faulted.ok
    # The wrongly split classes used to pass as a verified fast PST.
    assert faulted.diagnostic.paths["pst"] == "slow"
    first = faulted.diagnostic.attempts[0]
    assert (first.stage, first.path, first.outcome) == ("pst", "fast", "postcondition")
    assert "control-dependence set" in first.detail
    assert canonical(faulted.pst) == canonical(clean.pst)
    assert faulted.control_regions == clean.control_regions


def test_transient_skip_cap_past_the_limit_is_retried():
    # Control regions alone: in a full run the one firing lands in the PST
    # stage instead.  No node of this graph needs a split, so the firing
    # skips a cap of S's own pass.  Seed 32 is one where that cap changes a
    # node class; on most lowered procedures (seeds 0-29 among them) one
    # skipped cap leaves every node class right.
    cfg = random_lowered_procedure(32, 400).cfg
    assert cfg.num_edges > DEFAULT_FULL_CHECK_LIMIT
    clean = run_analysis(cfg, analyses=("control-regions",))
    plan = FaultPlan(sites=["cycle-equiv/skip-cap"], seed=0, max_fires=1)
    faulted = run_analysis(
        cfg, analyses=("control-regions",), config=AnalysisConfig(faults=plan)
    )
    assert plan.fires["cycle-equiv/skip-cap"] == 1
    # The corrupted groups used to pass as a verified, undegraded answer.
    assert faulted.ok and faulted.degraded
    assert faulted.diagnostic.paths == {"control-regions": "fast-retry"}
    assert faulted.control_regions == clean.control_regions
