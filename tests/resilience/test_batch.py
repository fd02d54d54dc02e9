"""Batch runs: isolation, retries/backoff, JSONL checkpoint/resume."""

import json

import pytest

from repro.cfg.builder import cfg_from_edges
from repro.config import AnalysisConfig
from repro.resilience import faults
from repro.resilience.batch import (
    BatchItemResult,
    load_checkpoint,
    run_batch,
)
from repro.resilience.faults import FaultPlan
from tests.resilience.conftest import RecordingSleep


@pytest.fixture(autouse=True)
def _no_leftover_plan():
    yield
    faults.uninstall()


def good_cfg():
    return cfg_from_edges(
        [("start", "a"), ("a", "b", "T"), ("a", "end", "F"), ("b", "a"), ("b", "end")]
    )


def bad_cfg():
    cfg = cfg_from_edges([("start", "end")])
    cfg.add_node("orphan")  # invalid: violates Definition 1
    return cfg


def crasher():
    raise RuntimeError("corpus item could not be loaded")


def items(*pairs):
    return list(pairs)


def test_all_good_items_succeed():
    report = run_batch(
        items(("a", good_cfg), ("b", good_cfg)), sleep=RecordingSleep()
    )
    assert report.ok
    assert [r.status for r in report.results] == ["ok", "ok"]
    assert all(r.tries == 1 for r in report.results)
    assert "2 ok" in report.render()


def test_item_crash_is_isolated_and_retried_with_backoff():
    sleep = RecordingSleep()
    report = run_batch(
        items(("boom", crasher), ("fine", good_cfg)),
        config=AnalysisConfig(retries=2, backoff=0.1, backoff_factor=2.0),
        sleep=sleep,
    )
    assert not report.ok
    boom, fine = report.results
    assert boom.status == "error" and boom.tries == 3
    assert "corpus item could not be loaded" in boom.error
    assert fine.status == "ok"  # the batch continued past the crash
    assert sleep.calls == [0.1, 0.2]  # exponential backoff


def test_invalid_cfg_marks_item_failed_not_error():
    report = run_batch(
        items(("bad", bad_cfg)),
        config=AnalysisConfig(retries=0),
        sleep=RecordingSleep(),
    )
    (result,) = report.results
    assert result.status == "failed"
    assert "invalid CFG" in result.error


def test_degraded_item_counted_as_success_with_paths():
    with faults.inject(FaultPlan(sites=["lengauer-tarjan/semi-skew"])):
        report = run_batch(items(("x", good_cfg)), sleep=RecordingSleep())
    assert report.ok
    (result,) = report.results
    assert result.status == "degraded"
    assert result.paths["dominators"] == "slow"
    assert "degraded x" in report.render()


def test_serial_fallback_warning_names_every_reason():
    from repro.config import AnalysisConfig
    from repro.resilience.batch import BatchSerialFallback, serial_fallback_reasons

    def engine(cfg, deadline=None, step_budget=None):
        from repro.resilience.engine import run_analysis

        return run_analysis(cfg)

    config = AnalysisConfig(
        workers=2, engine=engine, faults=FaultPlan(sites=[])
    )
    sleep = RecordingSleep()
    assert serial_fallback_reasons(config, sleep=sleep) == [
        "custom engine callable",
        "fault injection plan",
        "custom sleep callable",
    ]
    with pytest.warns(BatchSerialFallback) as caught:
        run_batch(items(("x", good_cfg)), config=config, sleep=sleep)
    (warning,) = [
        w.message for w in caught if isinstance(w.message, BatchSerialFallback)
    ]
    assert warning.reasons == (
        "custom engine callable",
        "fault injection plan",
        "custom sleep callable",
    )
    assert "workers=2" in str(warning)


def test_serial_run_never_warns_about_fallback():
    import warnings

    from repro.resilience.batch import BatchSerialFallback

    with warnings.catch_warnings():
        warnings.simplefilter("error", BatchSerialFallback)
        report = run_batch(items(("x", good_cfg)), sleep=RecordingSleep())
    assert report.ok


def test_retry_succeeds_after_transient_environment_failure():
    attempts = []

    def flaky():
        attempts.append(1)
        if len(attempts) == 1:
            raise OSError("transient filesystem hiccup")
        return good_cfg()

    report = run_batch(
        items(("flaky", flaky)),
        config=AnalysisConfig(retries=1),
        sleep=RecordingSleep(),
    )
    assert report.ok
    (result,) = report.results
    assert result.status == "ok" and result.tries == 2


# ----------------------------------------------------------------------
# checkpoint / resume
# ----------------------------------------------------------------------

def test_checkpoint_written_one_json_line_per_item(tmp_path):
    path = str(tmp_path / "ck.jsonl")
    run_batch(
        items(("a", good_cfg), ("b", bad_cfg)),
        checkpoint_path=path,
        config=AnalysisConfig(retries=0),
        sleep=RecordingSleep(),
    )
    lines = [json.loads(line) for line in open(path)]
    assert lines[0] == {"type": "checkpoint", "version": 1}
    items_written = lines[1:]
    assert [entry["key"] for entry in items_written] == ["a", "b"]
    assert items_written[0]["status"] == "ok"
    assert items_written[1]["status"] == "failed"


def test_resume_skips_completed_items(tmp_path):
    path = str(tmp_path / "ck.jsonl")
    computed = []

    def tracking(key):
        def thunk():
            computed.append(key)
            return good_cfg()
        return thunk

    run_batch(
        items(("a", tracking("a"))), checkpoint_path=path, sleep=RecordingSleep()
    )
    assert computed == ["a"]
    report = run_batch(
        items(("a", tracking("a")), ("b", tracking("b"))),
        checkpoint_path=path,
        sleep=RecordingSleep(),
    )
    assert computed == ["a", "b"]  # "a" was not recomputed
    a, b = report.results
    assert a.resumed and not b.resumed
    assert "1 resumed from checkpoint" in report.render()
    # the new item was appended to the same checkpoint (after the header)
    keys = [
        entry["key"]
        for entry in map(json.loads, open(path))
        if entry.get("type") != "checkpoint"
    ]
    assert keys == ["a", "b"]


def test_no_resume_truncates_and_recomputes(tmp_path):
    path = str(tmp_path / "ck.jsonl")
    run_batch(items(("a", good_cfg)), checkpoint_path=path, sleep=RecordingSleep())
    report = run_batch(
        items(("a", good_cfg)),
        checkpoint_path=path,
        resume=False,
        sleep=RecordingSleep(),
    )
    (result,) = report.results
    assert not result.resumed
    # truncated file holds the version header plus the one recomputed item
    assert len(open(path).readlines()) == 2


def test_torn_checkpoint_lines_are_skipped(tmp_path):
    path = tmp_path / "ck.jsonl"
    good = BatchItemResult(key="a", status="ok").to_json()
    path.write_text(good + "\n" + '{"key": "b", "status"' + "\n")
    done = load_checkpoint(str(path))
    assert set(done) == {"a"}
    assert done["a"].resumed


def test_missing_checkpoint_is_empty():
    assert load_checkpoint("/nonexistent/ck.jsonl") == {}


def test_on_item_observer_sees_fresh_results_and_cannot_break_the_batch():
    seen = []

    def observer(result):
        seen.append(result.key)
        raise RuntimeError("observer bug")

    report = run_batch(
        items(("a", good_cfg), ("b", good_cfg)),
        on_item=observer,
        sleep=RecordingSleep(),
    )
    assert report.ok
    assert seen == ["a", "b"]


def test_item_result_json_roundtrip():
    original = BatchItemResult(
        key="f.mini::main",
        status="degraded",
        elapsed=0.25,
        tries=2,
        paths={"pst": "slow"},
        error=None,
    )
    restored = BatchItemResult.from_json(original.to_json())
    assert restored.key == original.key
    assert restored.status == original.status
    assert restored.paths == original.paths
    assert restored.tries == original.tries
    assert restored.resumed
