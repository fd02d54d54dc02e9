"""Property tests for the PST: containment oracle, tree shape, Theorem 10."""

from hypothesis import given, settings

from repro.cfg.reducibility import is_reducible
from repro.cfg.subgraph import region_subgraph
from repro.cfg.validate import is_valid_cfg
from repro.core.pst import build_pst
from repro.dominance.tree import dominator_tree, postdominator_tree
from tests.conftest import valid_cfgs


@settings(max_examples=120, deadline=None)
@given(valid_cfgs())
def test_containment_matches_definition_6(cfg):
    """Node n is in region (a, b) iff a dominates n and b postdominates n."""
    pst = build_pst(cfg)
    split, edge_map = cfg.edge_split()
    dtree = dominator_tree(split)
    pdtree = postdominator_tree(split)
    for region in pst.canonical_regions():
        a = edge_map[region.entry]
        b = edge_map[region.exit]
        inside = set(region.nodes())
        for node in cfg.nodes:
            expected = dtree.dominates(a, node) and pdtree.dominates(b, node)
            assert (node in inside) == expected


@settings(max_examples=150, deadline=None)
@given(valid_cfgs())
def test_tree_shape_invariants(cfg):
    pst = build_pst(cfg)
    # every node has exactly one innermost region
    assert set(pst.region_of_node) == set(cfg.nodes)
    # regions partition the nodes via own_nodes
    seen = []
    for region in pst.regions():
        seen.extend(region.own_nodes)
    assert sorted(seen, key=repr) == sorted(cfg.nodes, key=repr)
    # parent/child links are consistent and acyclic
    for region in pst.canonical_regions():
        assert region in region.parent.children
        assert region.depth == region.parent.depth + 1


@settings(max_examples=100, deadline=None)
@given(valid_cfgs())
def test_nesting_theorem_1(cfg):
    """Canonical regions are node disjoint or nested (Theorem 1)."""
    pst = build_pst(cfg)
    regions = pst.canonical_regions()
    node_sets = {r.region_id: set(r.nodes()) for r in regions}
    for i, r1 in enumerate(regions):
        for r2 in regions[i + 1 :]:
            s1, s2 = node_sets[r1.region_id], node_sets[r2.region_id]
            if s1 & s2:
                assert s1 <= s2 or s2 <= s1


@settings(max_examples=100, deadline=None)
@given(valid_cfgs())
def test_theorem_10_reducible_regions(cfg):
    """Theorem 10: if G is reducible, all its SESE regions are reducible."""
    if not is_reducible(cfg):
        return
    pst = build_pst(cfg)
    for region in pst.canonical_regions():
        sub, _ = region_subgraph(cfg, region.entry, region.exit, region.nodes())
        assert is_reducible(sub)


@settings(max_examples=100, deadline=None)
@given(valid_cfgs())
def test_every_region_extracts_as_valid_cfg(cfg):
    """Each SESE region is a control flow graph in its own right (§6)."""
    pst = build_pst(cfg)
    for region in pst.canonical_regions():
        sub, _ = region_subgraph(cfg, region.entry, region.exit, region.nodes())
        assert is_valid_cfg(sub)


@settings(max_examples=100, deadline=None)
@given(valid_cfgs())
def test_collapsed_views_cover_every_edge_once(cfg):
    """Each CFG edge appears at exactly one region level."""
    pst = build_pst(cfg)
    covered = []
    for region in pst.regions():
        covered.extend(pst.level_edges(region))
    assert sorted(covered) == sorted(cfg.edges)


@settings(max_examples=100, deadline=None)
@given(valid_cfgs())
def test_layout_slices_and_level_records_match_the_tree(cfg):
    """Each region's interior is one slice of the preorder layout, and each
    level record names the children its edge enters and exits."""
    pst = build_pst(cfg)
    layout = pst.layout()

    def at(position):
        return layout.regions[position] if position >= 0 else None

    assert layout.regions == pst.regions()
    for i, region in enumerate(layout.regions):
        assert layout.nodes[layout.lo[i]:layout.own_hi[i]] == region.own_nodes
        assert sorted(map(repr, layout.nodes[layout.lo[i]:layout.hi[i]])) == sorted(
            map(repr, region.nodes())
        )
        for edge, entered, exited in layout.level[i]:
            assert pst.edge_level(edge) is region
            assert at(entered) is pst.entry_region.get(edge)
            assert at(exited) is pst.exit_region.get(edge)
        if i:
            assert at(layout.parent[i]) is region.parent
            assert at(layout.exit_next[i]) is pst.entry_region.get(region.exit)


@settings(max_examples=100, deadline=None)
@given(valid_cfgs())
def test_collapsed_views_are_valid_cfgs(cfg):
    pst = build_pst(cfg)
    for region in pst.regions():
        sub, _ = pst.collapsed_cfg(region)
        assert is_valid_cfg(sub), region.describe()
