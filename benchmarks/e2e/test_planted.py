"""A planted wrong expected answer fails the run; the true one passes."""

import json

import pytest

import run
import stdlib_corpus


@pytest.mark.parametrize("planted", [False, True])
def test_output_checks_decide_the_exit_status(planted, monkeypatch, capsys):
    corpus = stdlib_corpus.load_corpus()
    if planted:
        corpus = [dict(g, expected=[g["expected"][0] + 1] + g["expected"][1:]) for g in corpus]
    monkeypatch.setattr(stdlib_corpus, "load_corpus", lambda: corpus)
    status = run.main(["--workload", "analyze_small", "--seed", "5", "--seconds", "1"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] > 0
    if planted:
        assert status == 1 and result["correct"] is False
        assert result["failed"] == result["attempted"]
    else:
        assert status == 0 and result["correct"] is True and result["failed"] == 0
