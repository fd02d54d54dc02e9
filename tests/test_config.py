"""AnalysisConfig: the one frozen config."""

import dataclasses

import pytest

from repro.config import ALL_ANALYSES, AnalysisConfig


def test_config_is_frozen():
    config = AnalysisConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.deadline = 1.0


def test_replace_derives_without_mutating():
    base = AnalysisConfig(deadline=1.0)
    derived = base.replace(step_budget=100)
    assert base.step_budget is None
    assert derived.deadline == 1.0 and derived.step_budget == 100


def test_analyses_iterables_normalize_to_tuples():
    config = AnalysisConfig(analyses=["pst", "dominators"])
    assert config.analyses == ("pst", "dominators")
    assert hash(config.replace(observer=None))  # stays hashable


@pytest.mark.parametrize(
    "kwargs",
    [
        {"fast_retries": -1},
        {"retries": -1},
        {"workers": 0},
        {"check_every": 0},
        {"backoff": -0.1},
        {"backoff_factor": -1.0},
        {"step_budget": -5},
        {"deadline": -1.0},
        {"deadline": float("nan")},
    ],
)
def test_invalid_fields_raise_value_error(kwargs):
    with pytest.raises(ValueError):
        AnalysisConfig(**kwargs)


def test_engine_config_analyses_select_stages():
    from repro.cfg.builder import cfg_from_edges
    from repro.resilience.engine import run_analysis

    cfg = cfg_from_edges([("start", "a"), ("a", "end")], "start", "end")
    result = run_analysis(cfg, config=AnalysisConfig(analyses=("dominators",)))
    assert result.ok
    assert result.idom is not None
    assert result.pst is None
    assert set(result.diagnostic.paths) == {"dominators"}
    assert ALL_ANALYSES == ("pst", "dominators", "control-regions")
