"""CLI robustness: exit codes, structured diagnostics, batch, fail-fast."""

import io
import json

import pytest

import repro.cli as cli
import repro.core.pst as core_pst
from repro.cfg.graph import InvalidCFGError
from repro.errors import AnalysisError, BudgetExceeded
from repro.fuzz.oracles import ORACLES_BY_NAME, Oracle
from repro.fuzz.runner import run_fuzz

SOURCE = """
proc f(n) {
    s = 0;
    while (s < n) {
        if (n > 10) { s = s + 2; } else { s = s + 1; }
    }
    return s;
}
proc g(n) {
    return n;
}
"""


@pytest.fixture
def source_file(tmp_path):
    path = tmp_path / "prog.mini"
    path.write_text(SOURCE)
    return str(path)


def run(argv):
    out = io.StringIO()
    code = cli.main(argv, out=out)
    return code, out.getvalue()


# ----------------------------------------------------------------------
# per-procedure error handling and exit codes
# ----------------------------------------------------------------------

def _boom(error):
    def fake_build_pst(cfg, *args, **kwargs):
        raise error

    return fake_build_pst


def test_invalid_cfg_exits_3_with_structured_line(source_file, monkeypatch, capsys):
    # The CLI builds its PST through an AnalysisSession, which resolves
    # build_pst from repro.core.pst at call time -- patch it there.
    monkeypatch.setattr(core_pst, "build_pst", _boom(InvalidCFGError("no end node")))
    code, _ = run([source_file])
    assert code == 3
    err = capsys.readouterr().err
    assert "error[invalid-cfg]: proc f: no end node" in err
    assert "Traceback" not in err


def test_analysis_error_exits_4(source_file, monkeypatch, capsys):
    monkeypatch.setattr(core_pst, "build_pst", _boom(AnalysisError("divergence")))
    code, _ = run([source_file])
    assert code == 4
    assert "error[analysis]: proc f: divergence" in capsys.readouterr().err


def test_resource_exhausted_exits_4(source_file, monkeypatch, capsys):
    monkeypatch.setattr(core_pst, "build_pst", _boom(BudgetExceeded("budget")))
    code, _ = run([source_file])
    assert code == 4
    assert "error[resource]" in capsys.readouterr().err


def test_internal_crash_exits_4_without_traceback(source_file, monkeypatch, capsys):
    monkeypatch.setattr(core_pst, "build_pst", _boom(AssertionError("stack discipline")))
    code, _ = run([source_file])
    assert code == 4
    err = capsys.readouterr().err
    assert "error[internal]: proc f: AssertionError: stack discipline" in err
    assert "Traceback" not in err


def test_failing_procedure_does_not_block_the_next_one(
    source_file, monkeypatch, capsys
):
    real_build_pst = core_pst.build_pst
    calls = []

    def flaky(cfg, *args, **kwargs):
        calls.append(cfg)
        if len(calls) == 1:
            raise InvalidCFGError("first proc is broken")
        return real_build_pst(cfg, *args, **kwargs)

    monkeypatch.setattr(core_pst, "build_pst", flaky)
    code, text = run([source_file])
    assert code == 3  # worst code wins, but...
    assert "proc g:" in text  # ...proc g was still analyzed and reported
    assert "error[invalid-cfg]: proc f" in capsys.readouterr().err


def test_preexisting_exit_codes_unchanged(tmp_path, source_file):
    bad = tmp_path / "bad.mini"
    bad.write_text("proc broken( {")
    assert run([str(bad)])[0] == 1  # parse diagnostics
    assert run([str(tmp_path / "missing.mini")])[0] == 2  # I/O
    assert run([source_file, "--proc", "nope"])[0] == 1  # no such proc
    assert run([source_file])[0] == 0


# ----------------------------------------------------------------------
# the batch subcommand
# ----------------------------------------------------------------------

def test_batch_happy_path(source_file):
    code, text = run(["batch", source_file])
    assert code == 0
    assert "2 ok" in text


def test_batch_isolates_a_broken_file_and_exits_4(tmp_path, source_file):
    bad = tmp_path / "bad.mini"
    bad.write_text("proc broken( {")
    code, text = run(["batch", source_file, str(bad)])
    assert code == 4
    assert "2 ok" in text  # the good file's procedures still ran
    assert "ERROR" in text and "bad.mini" in text


def test_batch_checkpoint_resume(tmp_path, source_file):
    ck = str(tmp_path / "ck.jsonl")
    code, _ = run(["batch", source_file, "--checkpoint", ck])
    assert code == 0
    entries = [json.loads(line) for line in open(ck)]
    assert entries[0] == {"type": "checkpoint", "version": 1}
    assert {e["key"].split("::")[1] for e in entries[1:]} == {"f", "g"}
    code, text = run(["batch", source_file, "--checkpoint", ck])
    assert code == 0
    assert "2 resumed from checkpoint" in text
    # header + 2 items; nothing recomputed or re-appended
    assert len(open(ck).readlines()) == 3


def test_batch_trace_records_merged_parallel_trace(tmp_path, source_file):
    trace_path = str(tmp_path / "batch.jsonl")
    code, _ = run(
        ["batch", source_file, "--workers", "2", "--trace", trace_path]
    )
    assert code == 0
    code, text = run(["trace", "--check", trace_path])
    assert code == 0 and "valid" in text
    records = [json.loads(line) for line in open(trace_path)]
    spans = [r for r in records if r["type"] == "span"]
    assert any(s["name"] == "run_batch" for s in spans)
    # The per-item engine spans recorded in the workers are stitched in.
    assert sum(1 for s in spans if s["name"] == "run_analysis") == 2
    assert any(r["type"] == "metrics_dump" for r in records)


def test_batch_rejects_negative_retries(source_file, capsys):
    assert run(["batch", source_file, "--retries", "-1"])[0] == 2
    assert "--retries" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, named",
    [
        (["batch", "--step-budget", "-1"], "--step-budget"),
        (["batch", "--backoff", "-1"], "--backoff"),
        (["batch", "--deadline", "nan"], "--deadline"),
        (["trace", "--step-budget", "-1"], "--step-budget"),
        (["serve", "--port", "0", "--default-deadline", "nan"], "--default-deadline"),
        (["soak", "--duration", "0.1", "--max-inflight", "0"], "--max-inflight"),
        (["soak", "--duration", "0.1", "--max-cache-bytes", "-1"], "--max-cache-bytes"),
        (["serve", "--port", "0", "--burst", "0"], "--burst"),
        (["serve", "--port", "0", "--rate", "0"], "--rate"),
        (["serve", "--port", "-1"], "--port"),
        (["soak", "--duration", "0.1", "--burst", "0"], "--burst"),
        (["soak", "--duration", "0.1", "--fault-rate", "2"], "--fault-rate"),
        (["soak", "--duration", "0.1", "--clients", "0"], "--clients"),
        (["soak", "--duration", "nan"], "--duration"),
        (["soak", "--duration", "0.1", "--edit-rate", "2"], "--edit-rate"),
    ],
)
def test_a_bad_config_flag_is_one_error_line_and_exit_2(
    argv, named, source_file, monkeypatch, capsys
):
    from repro.service.server import AnalysisServer

    monkeypatch.setattr(
        AnalysisServer, "start", lambda self: pytest.fail("a server started")
    )
    if argv[0] in ("batch", "trace"):
        argv = [argv[0], source_file, *argv[1:]]
    assert run(argv) == (2, "")
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert named in err


def test_batch_unwritable_checkpoint_exits_2(source_file, capsys):
    code, _ = run(["batch", source_file, "--checkpoint", "/nonexistent/dir/ck.jsonl"])
    assert code == 2


# ----------------------------------------------------------------------
# fuzz --fail-fast
# ----------------------------------------------------------------------

def test_run_fuzz_fail_fast_stops_at_first_divergence(monkeypatch):
    always_bad = Oracle("test/always-bad", lambda case: "synthetic divergence")
    monkeypatch.setitem(ORACLES_BY_NAME, always_bad.name, always_bad)
    report = run_fuzz(seed=0, count=10, size=6, oracles=[always_bad], fail_fast=True)
    assert report.cases_run == 1
    assert len(report.divergences) == 1
    full = run_fuzz(seed=0, count=5, size=6, oracles=[always_bad], fail_fast=False)
    assert full.cases_run == 5


def test_fuzz_cli_accepts_fail_fast_flag():
    code, text = run(["fuzz", "--seed", "0", "--count", "3", "--fail-fast"])
    assert code == 0  # no divergences expected on a healthy tree
    assert "divergences: none" in text
