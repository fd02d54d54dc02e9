"""The canonical top-level surface: one spelling per promoted name."""

import importlib
import warnings

import pytest

import repro


def test_every_all_name_is_importable():
    public = [name for name in repro.__all__ if not name.startswith("_")]
    assert public == sorted(public)
    for name in repro.__all__:
        assert getattr(repro, name) is not None


def test_promoted_names_resolve_to_their_implementations():
    from repro.cfg.builder import cfg_from_edges
    from repro.config import AnalysisConfig
    from repro.kernel.session import AnalysisSession
    from repro.obs.observer import Observer
    from repro.resilience.batch import run_batch
    from repro.resilience.engine import run_analysis

    assert repro.build_cfg is cfg_from_edges
    assert repro.AnalysisConfig is AnalysisConfig
    assert repro.AnalysisSession is AnalysisSession
    assert repro.Observer is Observer
    assert repro.run_analysis is run_analysis
    assert repro.run_batch is run_batch


def test_lazy_exports_raise_clean_attribute_error():
    with pytest.raises(AttributeError, match="no attribute"):
        repro.definitely_not_a_thing


@pytest.mark.parametrize(
    "module, name",
    [
        ("repro.resilience", "run_analysis"),
        ("repro.resilience", "run_batch"),
        ("repro.kernel", "AnalysisSession"),
        ("repro.kernel", "session_for"),
        ("repro.dataflow", "IncrementalDataflow"),
        ("repro.dataflow", "StructuralSolver"),
        ("repro.dataflow", "solve_structural"),
        ("repro.dataflow", "solve_interval"),
        ("repro.cfg", "Interval"),
        ("repro.cfg", "derived_sequence"),
        ("repro.cfg", "interval_partition"),
        ("repro.cfg", "is_reducible_by_intervals"),
        ("repro.cfg", "NaturalLoop"),
        ("repro.cfg", "loop_nest_forest"),
        ("repro.cfg", "natural_loops"),
    ],
)
def test_removed_package_attribute_spellings_are_gone(module, name):
    package = importlib.import_module(module)
    with pytest.raises(AttributeError):
        getattr(package, name)
    assert name not in package.__all__


def test_undeprecated_resilience_names_stay_silent():
    package = importlib.import_module("repro.resilience")
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        package.FaultPlan
        package.inject
        package.Ticker


def test_top_level_quickstart_works_end_to_end():
    cfg = repro.build_cfg(
        [("start", "a"), ("a", "b"), ("a", "c"), ("b", "d"), ("c", "d"), ("d", "end")],
        "start",
        "end",
    )
    result = repro.run_analysis(cfg, config=repro.AnalysisConfig())
    assert result.ok
    assert result.pst is not None
    regions = repro.control_regions(cfg)
    assert regions is not None
