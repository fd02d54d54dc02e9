"""FrozenCFG CSR encoding: multigraph edge cases, staleness, snapshot caches."""

from __future__ import annotations

import gc
import weakref

from repro.cfg.builder import cfg_from_edges
from repro.cfg.graph import CFG
from repro.core.cycle_equiv import cycle_equivalence_of_cfg
from repro.kernel.csr import freeze
from repro.kernel.registry import shared_frozen


def diamond() -> CFG:
    return cfg_from_edges(
        [("start", "a"), ("start", "b"), ("a", "end"), ("b", "end")]
    )


def multigraph() -> CFG:
    """Parallel edges and a self-loop, the shapes CSR must not collapse."""
    cfg = CFG(start="start", end="end", name="multi")
    cfg.add_edge("start", "a", "T")
    cfg.add_edge("start", "a", "F")  # parallel to the edge above
    cfg.add_edge("a", "a")  # self-loop
    cfg.add_edge("a", "end")
    return cfg


def test_edge_arrays_are_positional():
    cfg = multigraph()
    frozen = freeze(cfg)
    assert frozen.num_nodes == len(cfg.nodes)
    assert frozen.num_edges == len(cfg.edges)
    for e, edge in enumerate(cfg.edges):
        assert frozen.node_ids[frozen.edge_src[e]] == edge.source
        assert frozen.node_ids[frozen.edge_dst[e]] == edge.target


def test_parallel_edges_stay_distinct():
    cfg = multigraph()
    frozen = freeze(cfg)
    start = frozen.index_of["start"]
    row = frozen.out_edge_indices(start)
    # Two distinct edge indices with equal endpoints, in insertion order.
    assert row == [0, 1]
    assert frozen.edge_src[0] == frozen.edge_src[1]
    assert frozen.edge_dst[0] == frozen.edge_dst[1]
    assert cfg.edges[0].label == "T" and cfg.edges[1].label == "F"


def test_self_loop_in_both_rows_and_self_loops_list():
    cfg = multigraph()
    frozen = freeze(cfg)
    a = frozen.index_of["a"]
    loop = next(
        e for e in range(frozen.num_edges)
        if frozen.edge_src[e] == a and frozen.edge_dst[e] == a
    )
    assert frozen.self_loops == [loop]
    assert loop in frozen.out_edge_indices(a)
    assert loop in frozen.in_edge_indices(a)


def test_csr_rows_partition_all_edges():
    cfg = multigraph()
    frozen = freeze(cfg)
    out_all = [
        e for v in range(frozen.num_nodes) for e in frozen.out_edge_indices(v)
    ]
    in_all = [
        e for v in range(frozen.num_nodes) for e in frozen.in_edge_indices(v)
    ]
    assert sorted(out_all) == list(range(frozen.num_edges))
    assert sorted(in_all) == list(range(frozen.num_edges))
    # Flat neighbor arrays mirror the edge rows.
    assert frozen.succ_dst == [frozen.edge_dst[e] for e in frozen.succ_edge]
    assert frozen.pred_src == [frozen.edge_src[e] for e in frozen.pred_edge]


def test_missing_start_end_encode_as_minus_one():
    cfg = CFG(name="bare")
    cfg.add_edge("a", "b")
    frozen = freeze(cfg)
    assert frozen.start == -1
    assert frozen.end == -1


def test_staleness_and_shared_snapshot_identity():
    cfg = diamond()
    frozen = shared_frozen(cfg)
    assert not frozen.is_stale()
    assert shared_frozen(cfg) is frozen  # same version -> same snapshot
    cfg.add_edge("a", "b")
    assert frozen.is_stale()
    refrozen = shared_frozen(cfg)
    assert refrozen is not frozen
    assert not refrozen.is_stale()
    assert refrozen.num_edges == frozen.num_edges + 1


def test_validation_is_memoized_per_snapshot():
    cfg = diamond()
    frozen = shared_frozen(cfg)
    assert frozen.validated is False
    cycle_equivalence_of_cfg(cfg)  # validate=True marks the snapshot
    assert frozen.validated is True
    cfg.add_edge("b", "a")  # mutation -> fresh, unvalidated snapshot
    assert shared_frozen(cfg).validated is False


def test_undirected_csr_cached_per_virtual_edge_tuple():
    cfg = diamond()
    cycle_equivalence_of_cfg(cfg)
    frozen = shared_frozen(cfg)
    assert len(frozen.undirected) == 1
    (key, cached) = next(iter(frozen.undirected.items()))
    assert key == ((frozen.end, frozen.start),)
    cycle_equivalence_of_cfg(cfg)
    assert frozen.undirected[key] is cached  # reused, not rebuilt


def test_a_dropped_graph_and_its_snapshot_are_freed_without_the_collector():
    """The graph keeps its snapshot; the snapshot holds the graph weakly.

    With no reference cycle between them, reference counting alone frees
    both the moment the caller drops the graph -- also after the public
    analyses and the engine have run on it.
    """
    from repro.controldep.regions_fast import control_regions
    from repro.core.pst import build_pst
    from repro.dominance.lengauer_tarjan import lengauer_tarjan
    from repro.resilience.engine import run_analysis
    from repro.synth.unstructured import random_cfg

    cfg = random_cfg(9, num_nodes=30, extra_edges=10)
    build_pst(cfg)
    lengauer_tarjan(cfg)
    control_regions(cfg)
    assert run_analysis(cfg).ok
    graph = weakref.ref(cfg)
    snapshot = weakref.ref(shared_frozen(cfg))
    gc.disable()
    try:
        del cfg
        assert graph() is None
        assert snapshot() is None
    finally:
        gc.enable()
