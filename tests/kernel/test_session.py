"""AnalysisSession memoization: hits/misses, invalidation, registry identity."""

from __future__ import annotations

import gc
import weakref

from repro.cfg.builder import cfg_from_edges
from repro.cfg.graph import CFG
from repro.controldep.regions_fast import control_regions_reference
from repro.core.pst import build_pst_reference
from repro.dominance.lengauer_tarjan import lengauer_tarjan_reference
from repro.kernel.session import AnalysisSession, session_for


def diamond() -> CFG:
    return cfg_from_edges(
        [("start", "a"), ("start", "b"), ("a", "end"), ("b", "end")]
    )


def pst_signature(pst):
    """Preorder (depth, entry eid, exit eid, own_nodes) tuples."""
    out = []
    stack = [pst.root]
    while stack:
        region = stack.pop()
        out.append(
            (
                region.depth,
                region.entry.eid if region.entry is not None else None,
                region.exit.eid if region.exit is not None else None,
                tuple(region.own_nodes),
            )
        )
        stack.extend(reversed(region.children))
    return out


def test_pst_computed_once_then_served_from_cache():
    session = AnalysisSession(diamond())
    first = session.pst()
    # First call misses twice: the PST itself and its equiv prerequisite.
    assert session.cache_info() == {"hits": 0, "misses": 2, "size": 2, "stale": 0}
    assert session.pst() is first
    assert session.cache_info()["hits"] == 1


def test_mutation_invalidates_transparently():
    cfg = diamond()
    session = AnalysisSession(cfg)
    before = session.pst()
    cfg.add_edge("a", "b")
    after = session.pst()
    assert after is not before
    assert session.cache_info()["misses"] == 4  # both artifacts recomputed


def test_explicit_invalidate_drops_artifacts():
    session = AnalysisSession(diamond())
    session.dominators()
    assert session.cache_info()["size"] == 1
    session.invalidate()
    assert session.cache_info()["size"] == 0
    session.dominators()
    assert session.cache_info()["misses"] == 2


def test_session_for_is_per_cfg_identity():
    cfg, other = diamond(), diamond()
    session = session_for(cfg)
    assert session_for(cfg) is session
    assert session_for(other) is not session
    assert session.cfg is cfg


def test_session_for_dies_with_its_graph():
    """The shared session must not keep its graph alive: a registry keyed
    weakly by the graph, whose values hold the graph, never lets go."""
    cfg = diamond()
    session_for(cfg).pst()
    ref = weakref.ref(cfg)
    del cfg
    gc.collect()
    assert ref() is None


def test_cached_artifacts_match_references():
    cfg = cfg_from_edges(
        [
            ("start", "a"),
            ("a", "b", "T"),
            ("a", "c", "F"),
            ("b", "d"),
            ("c", "d"),
            ("d", "a"),  # back edge
            ("d", "end"),
        ]
    )
    session = AnalysisSession(cfg)
    assert session.dominators() == lengauer_tarjan_reference(cfg)
    assert pst_signature(session.pst()) == pst_signature(build_pst_reference(cfg))
    assert session.sese_regions() == session.pst().canonical_regions()


def test_postdominators_on_diamond():
    session = AnalysisSession(diamond())
    pdom = session.postdominators()
    assert pdom["start"] == "end"  # neither branch alone postdominates
    assert pdom["a"] == "end"
    assert pdom["b"] == "end"
    assert pdom["end"] == "end"  # idom[root] == root, same as dominators


def test_control_regions_read_the_memoized_equivalence(figure4_passes):
    cfg = diamond()  # no node needs a split
    session = AnalysisSession(cfg)
    assert session.control_regions() == control_regions_reference(cfg)
    assert figure4_passes == [cfg.num_nodes]  # the equivalence's; the regions add none
    assert session.cache_info()["size"] == 2  # equiv and cr


def test_control_regions_follow_an_edit_session_splice():
    from repro.incremental import EditSession
    from repro.synth.structured import random_lowered_procedure

    cfg = random_lowered_procedure(3, target_statements=60).cfg
    edit = EditSession(cfg)
    edge = next(e for e in cfg.edges if e.source != cfg.start and e.target != cfg.end)
    edit.add_edge(edge.source, edge.target)
    assert edit.stats.splices == 1
    assert session_for(cfg).control_regions() == control_regions_reference(cfg)
