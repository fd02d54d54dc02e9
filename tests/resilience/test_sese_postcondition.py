"""The pst stage's dominance postcondition, decided on G's own trees.

The engine checks Definition 2 on every canonical region without building
the edge-split graph (:class:`repro.kernel.dominance.EdgeDominance`).
These tests hold that shortcut to the split-graph answers it replaced:
pair by pair on fuzz graphs, and verdict by verdict on fast-path PSTs
corrupted by fault injection.
"""

import pytest

from repro.config import AnalysisConfig
from repro.dominance.iterative import edge_dominance, immediate_dominators
from repro.dominance.tree import DominatorTree
from repro.errors import PostconditionError
from repro.fuzz.generator import generate_case
from repro.obs.observer import Observer
from repro.resilience import engine
from repro.resilience.engine import run_analysis
from repro.resilience.faults import FaultPlan
from repro.synth.unstructured import random_cfg

ENGINE_SITES = (
    "bracketlist/push-bottom",
    "cycle-equiv/skip-cap",
    "lengauer-tarjan/semi-skew",
)


def split_trees(cfg, ticker=None):
    """Dominator and postdominator trees of the edge-split graph."""
    split, split_node = cfg.edge_split()
    dom = DominatorTree(immediate_dominators(split, ticker=ticker), split.start)
    rsplit = split.reversed()
    pdom = DominatorTree(immediate_dominators(rsplit, ticker=ticker), rsplit.start)
    return split_node, dom, pdom


def split_graph_check(cfg, pst, edge_dom):
    """Definition 2 per canonical region, on the edge-split graph (the
    engine's own ``edge_dom`` trees are ignored)."""
    regions = pst.canonical_regions()
    if not regions:
        return
    split_node, dom, pdom = split_trees(cfg)
    for region in regions:
        a, b = split_node[region.entry], split_node[region.exit]
        if not dom.dominates(a, b):
            raise PostconditionError(
                f"PST: region {region.describe()}: entry does not dominate exit"
            )
        if not pdom.dominates(b, a):
            raise PostconditionError(
                f"PST: region {region.describe()}: exit does not postdominate entry"
            )


def test_edge_dominance_matches_the_split_graph_on_every_edge_pair():
    shapes = {"self-loops": 0, "parallel edges": 0}
    pairs = 0
    for seed in range(120):
        cfg = generate_case(seed, size=12).cfg
        edges = cfg.edges
        shapes["self-loops"] += any(e.source == e.target for e in edges)
        shapes["parallel edges"] += len({e.pair for e in edges}) < len(edges)
        split_node, dom, pdom = split_trees(cfg)
        lemma = edge_dominance(cfg)
        for a in edges:
            for b in edges:
                if a is b:
                    continue
                pairs += 1
                sa, sb = split_node[a], split_node[b]
                assert lemma.dominates(a, b) == dom.dominates(sa, sb), (seed, a, b)
                assert lemma.postdominates(b, a) == pdom.dominates(sb, sa), (seed, a, b)
    assert all(shapes.values()), shapes
    assert pairs > 10_000


def trail(result):
    regions = (
        None
        if result.pst is None
        else sorted((r.entry.eid, r.exit.eid) for r in result.pst.canonical_regions())
    )
    attempts = [(a.stage, a.path, a.outcome, a.detail) for a in result.diagnostic.attempts]
    return attempts, regions


def faulted_trail(site, seed):
    config = AnalysisConfig(faults=FaultPlan(sites=[site], seed=seed))
    return trail(run_analysis(generate_case(seed, size=12).cfg, config=config))


@pytest.mark.parametrize("site", ENGINE_SITES)
def test_fault_corrupted_psts_get_the_split_graph_verdict(site, monkeypatch):
    # The control-dependence sums run after the structure and dominance
    # checks; both dominance checks must reject the same attempts with the
    # same message and let the same PST through to the sums.
    seeds = range(150)
    ours = [faulted_trail(site, seed) for seed in seeds]
    monkeypatch.setattr(engine, "_check_sese_dominance", split_graph_check)
    theirs = [faulted_trail(site, seed) for seed in seeds]
    assert ours == theirs
    if site == "bracketlist/push-bottom":
        rejected = [
            attempts
            for attempts, _ in ours
            if any("dominate" in detail for *_, detail in attempts)
        ]
        assert len(rejected) >= 3


#: A fuzz graph of 22 edges and a random graph of 304.
GRAPHS = {
    "small": lambda: generate_case(0, size=12).cfg,
    "large": lambda: random_cfg(3, num_nodes=200, extra_edges=100),
}


def no_reference(*args, **kwargs):
    raise AssertionError("a check ran a slow reference")


@pytest.mark.parametrize("graph", GRAPHS)
def test_every_size_gets_one_check_and_no_reference(graph, monkeypatch):
    cfg = GRAPHS[graph]()
    observer = Observer(trace=False)
    with monkeypatch.context() as patch:
        patch.setattr(engine, "cycle_equivalence_bracket_sets", no_reference)
        patch.setattr(engine, "control_regions_cfs", no_reference)
        clean = run_analysis(cfg, config=AnalysisConfig(observer=observer))
    assert clean.ok and not clean.degraded, clean.diagnostic.render()
    # Two iterative runs (forward and reversed) serve every check: the
    # PST's dominance check, the Lengauer-Tarjan cross-check, and the
    # control-dependence sums that check both stages' classes.
    assert observer.metrics.count_of(
        "dispatch", component="immediate_dominators", impl="kernel"
    ) == 2.0

    faulted = run_analysis(
        cfg,
        config=AnalysisConfig(
            analyses=("pst",),
            faults=FaultPlan(sites=["bracketlist/push-bottom"], seed=0),
        ),
    )
    assert faulted.ok
    assert [(a.path, a.outcome) for a in faulted.diagnostic.attempts] == [
        ("fast", "postcondition"),
        ("fast-retry", "postcondition"),
        ("slow", "ok"),
    ]
    assert "entry does not dominate exit" in faulted.diagnostic.attempts[0].detail
    assert trail(faulted)[1] == trail(clean)[1]
