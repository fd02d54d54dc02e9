"""EditSession: splice vs fallback accounting, verification, config surface."""

import pytest

from repro.cfg.builder import cfg_from_edges
from repro.config import AnalysisConfig
from repro.core.cycle_equiv import cycle_equivalence_of_cfg
from repro.core.pst import build_pst
from repro.dominance.lengauer_tarjan import lengauer_tarjan
from repro.incremental import DeltaValidationError, EditSession
from repro.incremental.compare import diff_artifacts
from repro.resilience.faults import FaultPlan, inject

DIAMOND = [
    ("start", "a"),
    ("a", "b"),
    ("b", "t"),
    ("b", "f"),
    ("t", "j"),
    ("f", "j"),
    ("j", "c"),
    ("c", "end"),
]


def diamond():
    return cfg_from_edges(DIAMOND, "start", "end")


def butterfly(arms=35):
    """One canonical region holding ``arms`` interior nodes (no nesting)."""
    edges = (
        [("start", "b")]
        + [("b", f"x{i}") for i in range(arms)]
        + [(f"x{i}", "c") for i in range(arms)]
        + [("c", "end")]
    )
    return cfg_from_edges(edges, "start", "end")


def assert_matches_scratch(session):
    scratch_equiv = cycle_equivalence_of_cfg(session.cfg, validate=False)
    scratch_pst = build_pst(session.cfg, scratch_equiv)
    detail = diff_artifacts(
        session.equiv.class_of, session.pst, scratch_equiv.class_of, scratch_pst
    )
    assert detail is None, detail


# ----------------------------------------------------------------------
# the maintenance ladder, rung by rung
# ----------------------------------------------------------------------

def test_interior_edit_splices_and_matches_scratch():
    session = EditSession(diamond())
    session.add_edge("t", "t")  # a self-loop, interior to t's region
    assert session.stats.splices == 1
    assert session.stats.full_recomputes == 0
    assert_matches_scratch(session)
    session.undo()
    assert session.stats.splices == 2
    assert session.stats.undos == 1
    assert_matches_scratch(session)


def test_region_escaping_edit_falls_back_to_full_recompute():
    session = EditSession(diamond())
    # a and c live in different top-level regions: the NCA is the root.
    session.add_edge("a", "c")
    assert session.stats.region_escapes == 1
    assert session.stats.full_recomputes == 1
    assert session.stats.splices == 0
    assert_matches_scratch(session)


def test_oversize_region_degrades_to_full_recompute_on_purpose():
    cfg = butterfly(35)  # region size 35 > max(32, 39 // 4)
    session = EditSession(cfg)
    session.add_edge("x1", "x2")
    assert session.stats.oversize_regions == 1
    assert session.stats.full_recomputes == 1
    assert session.stats.splices == 0
    assert_matches_scratch(session)


def test_injected_splice_fault_exercises_the_fallback_ladder():
    session = EditSession(diamond())
    with inject(FaultPlan(sites=["incremental/skip-splice"])) as plan:
        session.add_edge("t", "t")
        assert plan.fires["incremental/skip-splice"] == 1
    assert session.stats.splice_fallbacks == 1
    assert session.stats.full_recomputes == 1
    assert session.stats.splices == 0
    assert_matches_scratch(session)


def test_invalid_delta_is_rejected_with_exact_rollback():
    cfg = diamond()
    session = EditSession(cfg)
    eids_before = [e.eid for e in cfg.edges]
    with pytest.raises(DeltaValidationError, match="cannot reach end"):
        session.remove_edge("t", "j")  # severs t's only way out
    assert session.stats.rejected == 1
    assert session.stats.deltas_applied == 0
    assert session.applied_deltas == 0
    assert [e.eid for e in cfg.edges] == eids_before
    assert_matches_scratch(session)
    # the maintained artifacts were restamped: the next read is a hit
    hits_before = session.session.cache_info()["hits"]
    session.sese_regions()
    assert session.session.pst() is session.pst
    assert session.session.cache_info()["hits"] > hits_before


def test_undo_on_empty_log_raises():
    session = EditSession(diamond())
    with pytest.raises(DeltaValidationError, match="nothing to undo"):
        session.undo()


# ----------------------------------------------------------------------
# derived analyses stay correct across edits
# ----------------------------------------------------------------------

def test_dominators_follow_the_edited_graph():
    cfg = diamond()
    session = EditSession(cfg)
    assert session.dominators() == lengauer_tarjan(cfg)
    session.add_edge("t", "t")
    assert session.dominators() == lengauer_tarjan(cfg)
    session.add_edge("a", "c")  # full-recompute path
    assert session.dominators() == lengauer_tarjan(cfg)
    session.undo()
    session.undo()
    assert session.dominators() == lengauer_tarjan(cfg)
    assert session.postdominators() is not None
    assert session.control_regions() is not None


# ----------------------------------------------------------------------
# verification sampling
# ----------------------------------------------------------------------

def test_verify_rate_one_checks_every_splice_and_finds_no_mismatch():
    config = AnalysisConfig(incremental=True, verify_incremental_rate=1.0)
    session = EditSession(diamond(), config)
    session.add_edge("t", "t")
    session.undo()
    assert session.stats.splices == 2
    assert session.stats.verify_checks == 2
    assert session.stats.verify_mismatches == 0
    assert session.last_verify_detail is None


# ----------------------------------------------------------------------
# config surface
# ----------------------------------------------------------------------

def test_incremental_defaults_on_without_a_config():
    session = EditSession(diamond())
    assert session.config.incremental is True


def test_non_incremental_config_recomputes_every_delta():
    config = AnalysisConfig(incremental=False)
    session = EditSession(diamond(), config)
    session.add_edge("t", "t")
    session.undo()
    assert session.stats.splices == 0
    assert session.stats.full_recomputes == 2
    assert_matches_scratch(session)


def test_verify_rate_is_validated():
    with pytest.raises(ValueError, match="verify_incremental_rate"):
        AnalysisConfig(verify_incremental_rate=1.5)
