"""The incremental layer's public surface."""

import warnings

import pytest

import repro


def test_top_level_lazy_exports_resolve_to_the_incremental_layer():
    from repro.incremental.delta import DeltaValidationError
    from repro.incremental.session import EditSession, apply_delta

    assert repro.EditSession is EditSession
    assert repro.apply_delta is apply_delta
    assert repro.DeltaValidationError is DeltaValidationError
    for name in ("EditSession", "apply_delta", "DeltaValidationError"):
        assert name in repro.__all__


def test_incremental_package_all_is_importable():
    import repro.incremental as inc

    for name in inc.__all__:
        assert getattr(inc, name) is not None
    assert "IncrementalDataflow" in inc.__all__


def test_undeprecated_dataflow_names_stay_silent():
    import repro.dataflow as dataflow

    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        dataflow.solve_iterative
        dataflow.ReachingDefinitions


def test_quickstart_from_the_top_level():
    cfg = repro.build_cfg(
        [("start", "a"), ("a", "b"), ("a", "c"), ("b", "d"), ("c", "d"), ("d", "end")],
        "start",
        "end",
    )
    session = repro.EditSession(cfg)
    repro.apply_delta(session, {"op": "add_edge", "source": "b", "target": "c"})
    assert session.applied_deltas == 1
    with pytest.raises(repro.DeltaValidationError):
        repro.apply_delta(session, {"op": "remove_node", "node": "start"})
