"""POST /apply_delta: live per-client edit sessions over real HTTP."""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.service.server import AnalysisServer, ServiceConfig


@pytest.fixture
def server(tmp_path):
    config = ServiceConfig(
        port=0,
        max_inflight=8,
        soft_inflight=4,
        rate=10_000.0,
        burst=1_000,
        trace_path=str(tmp_path / "trace.jsonl"),
    )
    srv = AnalysisServer(config)
    httpd = srv.start()
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    try:
        yield srv
    finally:
        srv.shutdown()
        thread.join(timeout=10)


def post(server, path, body):
    host, port = server.address
    request = urllib.request.Request(
        f"http://{host}:{port}" + path,
        data=json.dumps(body).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def test_apply_delta_by_graph_spelling_creates_a_live_session(server):
    status, body = post(
        server,
        "/apply_delta",
        {
            "client": "me",
            "synth": {"seed": 1, "size": 40},
            "deltas": [{"op": "add_edge", "source": "n1", "target": "n2"}],
        },
    )
    assert status == 200
    assert body["ok"] is True
    assert body["applied"] == 1
    assert body["edit_stats"]["deltas_applied"] == 1
    assert body["pst"]["regions"] > 0
    assert body["key"].startswith("synth:1:40")


def test_edits_by_key_mutate_the_cached_graph_and_drop_stale_responses(server):
    status, first = post(
        server, "/run_analysis", {"client": "me", "synth": {"seed": 1, "size": 40}}
    )
    assert status == 200
    key = first["key"]
    edges_before = first["graph"]["edges"]

    status, edited = post(
        server,
        "/apply_delta",
        {
            "client": "me",
            "key": key,
            "deltas": [{"op": "add_edge", "source": "n1", "target": "n2"}],
        },
    )
    assert status == 200
    assert edited["graph"]["edges"] == edges_before + 1

    # the memoized response was dropped: re-analysis sees the edited graph
    status, second = post(
        server, "/run_analysis", {"client": "me", "synth": {"seed": 1, "size": 40}}
    )
    assert status == 200
    assert second["cached"] is False
    assert second["graph"]["edges"] == edges_before + 1


def test_invalid_delta_stops_the_batch_with_422(server):
    status, body = post(
        server,
        "/apply_delta",
        {
            "client": "me",
            "synth": {"seed": 1, "size": 40},
            "deltas": [
                {"op": "add_edge", "source": "n1", "target": "n2"},
                {"op": "add_edge", "source": "end", "target": "n2"},
                {"op": "add_edge", "source": "n2", "target": "n3"},
            ],
        },
    )
    assert status == 422
    assert body["ok"] is False
    assert body["error"] == "invalid_delta"
    assert body["index"] == 1
    assert body["applied"] == 1
    assert "no successors" in body["message"]
    assert body["edit_stats"]["rejected"] == 1


def test_unknown_key_is_a_400(server):
    status, body = post(
        server,
        "/apply_delta",
        {
            "client": "me",
            "key": "synth:9:9:9",
            "deltas": [{"op": "add_edge", "source": "n1", "target": "n2"}],
        },
    )
    assert status == 400
    assert body["error"] == "unknown_key"


def test_key_and_spelling_together_is_a_400(server):
    status, body = post(
        server,
        "/apply_delta",
        {
            "client": "me",
            "key": "synth:1:40:20",
            "synth": {"seed": 1, "size": 40},
            "deltas": [{"op": "add_edge", "source": "n1", "target": "n2"}],
        },
    )
    assert status == 400
    assert "not both" in body["message"]


def test_empty_deltas_is_a_400(server):
    status, body = post(
        server,
        "/apply_delta",
        {"client": "me", "synth": {"seed": 1, "size": 40}, "deltas": []},
    )
    assert status == 400


def test_concurrent_edits_and_analyses_stay_coherent(server):
    """Hammer one key from edit and analyze threads; every response must be
    internally consistent (the server serializes on the entry lock)."""
    status, first = post(
        server, "/run_analysis", {"client": "me", "synth": {"seed": 2, "size": 30}}
    )
    assert status == 200
    key = first["key"]
    errors = []

    def edit_loop():
        for _ in range(10):
            status, body = post(
                server,
                "/apply_delta",
                {
                    "client": "me",
                    "key": key,
                    "deltas": [{"op": "add_edge", "source": "n1", "target": "n2"}],
                },
            )
            if status != 200:
                errors.append(("edit", status, body))

    def analyze_loop():
        for _ in range(10):
            status, body = post(
                server,
                "/run_analysis",
                {"client": "me", "synth": {"seed": 2, "size": 30}},
            )
            if status != 200 or not body["ok"]:
                errors.append(("analyze", status, body))

    threads = [threading.Thread(target=edit_loop), threading.Thread(target=analyze_loop)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors

    status, final = post(
        server, "/run_analysis", {"client": "me", "synth": {"seed": 2, "size": 30}}
    )
    assert status == 200
    assert final["graph"]["edges"] == first["graph"]["edges"] + 10


def test_an_invalid_cfg_spelling_is_a_400(server):
    status, body = post(
        server,
        "/apply_delta",
        {
            "client": "me",
            "cfg": {"edges": [["start", "a"], ["b", "end"]]},
            "deltas": [{"op": "add_edge", "source": "a", "target": "end"}],
        },
    )
    assert status == 400
    assert body["error"] == "bad_request"
    assert "not a valid CFG" in body["message"]


def test_an_edit_after_the_engine_run_leaves_no_stale_memo(server, monkeypatch):
    import repro.service.server as server_mod

    spelling = {
        "client": "me",
        "cfg": {"edges": [["start", "a"], ["a", "b"], ["a", "end"], ["b", "end"]]},
    }
    status, seeded = post(server, "/run_analysis", dict(spelling, analyses=["pst"]))
    assert status == 200 and seeded["graph"] == {"nodes": 4, "edges": 4}
    entry = server.sessions.shard("me").get(seeded["key"])
    edit = {
        "client": "me",
        "key": seeded["key"],
        "deltas": [{"op": "add_node", "node": "c", "preds": ["a"], "succs": ["b"]}],
    }
    editors = []
    real_summarize = server_mod._summarize

    def summarize_then_edit(result, analyses):
        # Runs after the engine, before the request answers: the window in
        # which an edit must not slip between the engine and its memo.
        if not editors:
            editor = threading.Thread(target=server.handle_apply_delta, args=(edit,))
            editors.append(editor)
            editor.start()
            if not entry.lock.locked():
                editor.join(timeout=30)  # nothing holds the edit back
        return real_summarize(result, analyses)

    monkeypatch.setattr(server_mod, "_summarize", summarize_then_edit)
    status, first = post(server, "/run_analysis", spelling)
    assert status == 200 and first["cached"] is False
    editors[0].join(timeout=30)
    assert not editors[0].is_alive()

    status, second = post(server, "/run_analysis", spelling)
    assert status == 200
    assert second["graph"] == {"nodes": 5, "edges": 6}
    assert second["cached"] is False


# ----------------------------------------------------------------------
# through the handler methods: version-stamped memos, delta validation
# ----------------------------------------------------------------------

@pytest.fixture
def handlers():
    return AnalysisServer(ServiceConfig(rate=10_000.0, burst=1_000))


SYNTH = {"client": "me", "synth": {"seed": 2, "size": 30}}


def test_a_batch_rejected_after_an_applied_delta_leaves_no_stale_memo(handlers):
    status, first = handlers.handle_run_analysis(dict(SYNTH))
    assert status == 200
    status, body = handlers.handle_apply_delta(
        dict(
            SYNTH,
            deltas=[
                {"op": "add_edge", "source": "n1", "target": "n2"},
                {"op": "add_edge", "source": ["x"], "target": "n2"},
            ],
        )
    )
    assert status == 422
    assert body["error"] == "invalid_delta"
    assert (body["index"], body["applied"]) == (1, 1)

    status, after = handlers.handle_run_analysis(dict(SYNTH))
    assert status == 200
    assert after["cached"] is False
    assert after["graph"]["edges"] == first["graph"]["edges"] + 1


def test_an_edit_that_crashes_mid_batch_still_retires_the_memo(handlers, monkeypatch):
    """A memo is served only while its version stamp matches the graph, so
    no code path between an edit and the next analysis has to clear it."""
    from repro.incremental import EditSession

    status, first = handlers.handle_run_analysis(dict(SYNTH))
    assert status == 200
    real_apply = EditSession.apply
    calls = []

    def apply_then_crash(self, delta):
        calls.append(delta)
        if len(calls) > 1:
            raise RuntimeError("worker crashed mid-batch")
        return real_apply(self, delta)

    monkeypatch.setattr(EditSession, "apply", apply_then_crash)
    delta = {"op": "add_edge", "source": "n1", "target": "n2"}
    with pytest.raises(RuntimeError):
        handlers.handle_apply_delta(dict(SYNTH, deltas=[delta, delta]))

    status, after = handlers.handle_run_analysis(dict(SYNTH))
    assert after["cached"] is False
    assert after["graph"]["edges"] == first["graph"]["edges"] + 1


@pytest.mark.parametrize(
    "delta",
    [
        {"op": "add_edge", "source": ["x"], "target": "n2"},
        {"op": "remove_edge", "source": "n1", "target": {"n": 2}},
        {"op": "remove_node", "node": ["n1"]},
        {"op": "add_node", "node": {"id": "q"}, "preds": ["n1"], "succs": ["n2"]},
        {"op": "add_node", "node": "q", "preds": [["n1"]], "succs": ["n2"]},
        {"op": "add_edge", "source": True, "target": "n2"},
    ],
)
def test_a_non_scalar_node_id_is_a_422_naming_the_delta(handlers, delta):
    status, body = handlers.handle_apply_delta(
        dict(SYNTH, deltas=[{"op": "add_edge", "source": "n1", "target": "n2"}, delta])
    )
    assert status == 422
    assert body["error"] == "invalid_delta"
    assert (body["index"], body["applied"]) == (1, 1)
    assert "node id" in body["message"]


def test_preds_and_succs_must_be_lists(handlers):
    # A string would be iterated character by character: "b" would pass
    # for ["b"] on a graph with single-letter node names.
    spelling = {
        "client": "me",
        "cfg": {"edges": [["start", "a"], ["a", "b"], ["b", "end"]]},
    }
    status, body = handlers.handle_apply_delta(
        dict(
            spelling,
            deltas=[{"op": "add_node", "node": "c", "preds": ["a"], "succs": "b"}],
        )
    )
    assert status == 422
    assert body["applied"] == 0
    assert "succs must be a list" in body["message"]


@pytest.mark.parametrize("field", ["start", "end"])
@pytest.mark.parametrize("value", [["start"], {"id": "start"}, 7])
def test_a_non_string_cfg_start_or_end_is_a_400(handlers, field, value):
    from repro.service.server import _BadRequest

    spec = {"edges": [["start", "a"], ["a", "end"]], field: value}
    for handle in (handlers.handle_run_analysis, handlers.handle_apply_delta):
        body = {
            "client": "me",
            "cfg": spec,
            "deltas": [{"op": "add_edge", "source": "a", "target": "a"}],
        }
        with pytest.raises(_BadRequest, match="start and end must be strings"):
            handle(body)
