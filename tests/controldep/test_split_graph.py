"""Control regions over S', which splits only the nodes that need it.

A node of S = G + (end -> start) with one in-edge, or one out-edge, takes
that edge's class; only a node with several of each gets a representative
edge.  These tests hold both paths -- one Figure 4 pass over S', and the
read-off from S's own classes when no node needs a split -- to the
definition and to the full node expansion T(S).
"""

from repro.cfg.builder import cfg_from_edges
from repro.controldep.fow import control_regions_by_definition
from repro.controldep.regions_fast import control_regions, control_regions_reference
from repro.core.cycle_equiv import cycle_equivalence_of_cfg
from repro.fuzz.generator import generate_case
from repro.incremental import EditSession
from repro.kernel.cycle_equiv import kernel_control_region_classes
from repro.kernel.registry import shared_frozen


def regions_both_ways(cfg):
    """(standalone, given S's classes)."""
    equiv = cycle_equivalence_of_cfg(cfg)
    return control_regions(cfg), control_regions(cfg, equiv=equiv)


def test_a_self_loop_node_is_split(figure4_passes):
    # a: in-edges start->a and a->a, out-edges a->a and a->end.
    cfg = cfg_from_edges([("start", "a"), ("a", "a"), ("a", "end")])
    equiv = cycle_equivalence_of_cfg(cfg)
    del figure4_passes[:]
    given = control_regions(cfg, equiv=equiv)
    assert figure4_passes == [cfg.num_nodes + 1]  # S' != S: the classes are not reused
    assert given == control_regions(cfg) == control_regions_by_definition(cfg)
    assert given == [["a"], ["end", "start"]]


def test_a_loop_header_with_two_in_and_two_out_edges_is_split(figure4_passes):
    cfg = cfg_from_edges(
        [("start", "h"), ("h", "b"), ("b", "h"), ("h", "end")]
    )
    equiv = cycle_equivalence_of_cfg(cfg)
    del figure4_passes[:]
    given = control_regions(cfg, equiv=equiv)
    assert figure4_passes == [cfg.num_nodes + 1]
    # h runs on entry and again after every trip round the loop, so it
    # depends on its own branch as b does, but on the return edge too.
    assert given == [["b"], ["end", "start"], ["h"]]
    assert given == control_regions(cfg) == control_regions_by_definition(cfg)


def test_start_and_end_take_the_return_edge_class(figure4_passes):
    # start has two out-edges and end two in-edges: neither has a sole edge
    # of G, and only the end -> start edge of S gives them their group.
    cfg = cfg_from_edges(
        [("start", "a"), ("start", "b"), ("a", "end"), ("b", "end")]
    )
    equiv = cycle_equivalence_of_cfg(cfg)
    assert equiv.return_class is not None
    assert equiv.return_class not in equiv.positional
    del figure4_passes[:]
    given = control_regions(cfg, equiv=equiv)
    assert figure4_passes == []  # no node to split: S's classes are read off
    assert given == [["a"], ["b"], ["end", "start"]]
    assert given == control_regions(cfg) == control_regions_by_definition(cfg)


def test_demo_graph_splits_one_node_not_all(figure4_passes):
    cfg = cfg_from_edges(
        [
            ("start", "a"), ("a", "b"), ("a", "c"), ("b", "d"), ("c", "d"),
            ("d", "e"), ("e", "a"), ("e", "end"), ("start", "end"),
        ]
    )
    assert control_regions(cfg) == control_regions_reference(cfg)
    assert figure4_passes == [cfg.num_nodes + 1]  # only a is split; T(S) has 2N nodes


def test_a_spliced_equivalence_is_ignored(figure4_passes):
    cfg = generate_case(5, size=30, strategy="structured_skeleton").cfg
    session = EditSession(cfg)
    edge = next(
        e for e in cfg.edges if e.source != cfg.start and e.target != cfg.end
    )
    session.add_edge(edge.source, edge.target)
    assert session.stats.splices == 1
    assert session.equiv.positional is None
    assert session.equiv.return_class is None
    del figure4_passes[:]
    assert control_regions(cfg, equiv=session.equiv) == control_regions_reference(cfg)
    assert len(figure4_passes) == 1  # its own pass, not the spliced classes


def test_classes_of_an_older_snapshot_are_ignored(figure4_passes):
    # Removing an edge and adding it back keeps the edge count but moves
    # the edge to the end of the list, so old positions no longer fit.
    cfg = generate_case(2, size=10, strategy="deep_nesting").cfg
    equiv = cycle_equivalence_of_cfg(cfg)
    edge = cfg.edges[1]
    cfg.remove_edge(edge)
    cfg.add_edge(edge.source, edge.target, edge.label)
    frozen = shared_frozen(cfg)
    stale = kernel_control_region_classes(
        frozen, None, equiv.positional, equiv.return_class
    )
    reference = control_regions_reference(cfg)
    assert len(set(stale)) != len(reference)  # read off, they would be wrong
    del figure4_passes[:]
    assert control_regions(cfg, equiv=equiv) == reference
    assert len(figure4_passes) == 1


def test_both_paths_match_the_node_expansion_across_the_fuzz_strategies(figure4_passes):
    split = unsplit = 0
    for seed in range(120):
        for size in (6, 12, 30):
            case = generate_case(seed, size=size)
            cfg = case.cfg
            reference = control_regions_reference(cfg)
            standalone, given = regions_both_ways(cfg)
            assert standalone == reference, (case.strategy, seed, size)
            assert given == reference, (case.strategy, seed, size)
            # The given-classes call runs a pass only over a split graph.
            ran = figure4_passes[-1] if len(figure4_passes) == 3 else None
            if ran:
                assert ran > cfg.num_nodes
                split += 1
            else:
                unsplit += 1
            del figure4_passes[:]
    # Both paths run often: deep nesting never needs a split, irreducible
    # graphs always do, and the other strategies mix.
    assert split > 100 and unsplit > 100, (split, unsplit)
