"""AnalysisServer over real HTTP: pipeline, shedding, draining, tracing."""

import io
import json
import threading
import urllib.error
import urllib.request

import pytest

import repro.cli as cli
from repro.errors import EXIT_DRAINING, EXIT_SHED
from repro.obs.export import lint_exposition
from repro.service.server import AnalysisServer, ServiceConfig

SOURCE = """
proc f(n) {
    s = 0;
    while (s < n) {
        if (n > 10) { s = s + 2; } else { s = s + 1; }
    }
    return s;
}
"""


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


def base(server):
    host, port = server.address
    return f"http://{host}:{port}"


def post(server, path, body):
    """(status, parsed body, headers); HTTP errors become data."""
    request = urllib.request.Request(
        base(server) + path,
        data=json.dumps(body).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read()), response.headers
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read()), error.headers


def get(server, path):
    try:
        with urllib.request.urlopen(base(server) + path, timeout=30) as response:
            return response.status, response.read().decode()
    except urllib.error.HTTPError as error:
        return error.code, error.read().decode()


# ----------------------------------------------------------------------
# the happy pipeline
# ----------------------------------------------------------------------

def test_synth_request_returns_summaries_and_caches_the_repeat(server):
    body = {"client": "t", "synth": {"seed": 1, "size": 20}}
    status, first, _ = post(server, "/run_analysis", body)
    assert status == 200 and first["ok"]
    assert first["mode"] == "full" and not first["cached"]
    assert first["analyses"]["pst"]["regions"] > 0
    assert first["analyses"]["dominators"]["entries"] > 0
    assert first["graph"]["nodes"] >= 20
    status, second, _ = post(server, "/run_analysis", body)
    assert status == 200 and second["cached"]
    assert second["key"] == first["key"] == "synth:1:20:10"
    assert second["analyses"] == first["analyses"]


def test_source_and_cfg_spellings_work(server):
    status, body, _ = post(server, "/run_analysis", {"source": SOURCE})
    assert status == 200 and body["ok"] and body["key"].startswith("source:")
    status, body, _ = post(
        server,
        "/run_analysis",
        {"cfg": {"edges": [["start", "a"], ["a", "end"]]}},
    )
    assert status == 200 and body["ok"] and body["key"].startswith("cfg:")


def test_analyses_subset_only_summarizes_what_was_asked(server):
    status, body, _ = post(
        server,
        "/run_analysis",
        {"synth": {"seed": 2, "size": 10}, "analyses": ["dominators"]},
    )
    assert status == 200
    assert list(body["analyses"]) == ["dominators"]


def test_batch_runs_items_and_inherits_the_client(server):
    status, body, _ = post(
        server,
        "/run_batch",
        {
            "client": "batcher",
            "items": [
                {"synth": {"seed": 1, "size": 10}},
                {"synth": {"seed": 2, "size": 10}},
                {"bogus": True},
            ],
        },
    )
    assert status == 200
    assert body["count"] == 3 and not body["ok"]
    assert [item["status"] for item in body["items"]] == [200, 200, 400]
    assert body["items"][0]["body"]["client"] == "batcher"


# ----------------------------------------------------------------------
# client errors
# ----------------------------------------------------------------------

def test_bad_requests_get_structured_400s(server):
    cases = [
        {},  # no graph spelling
        {"synth": {"seed": 0}, "source": SOURCE},  # two spellings
        {"synth": {"seed": "x", "size": "y"}},
        {"synth": {"seed": 0, "size": -1}},
        {"synth": {"seed": 0, "size": 5}, "analyses": ["nope"]},
        {"synth": {"seed": 0, "size": 5}, "deadline": -2},
        {"cfg": {"edges": "not-a-list"}},
    ]
    for case in cases:
        status, body, _ = post(server, "/run_analysis", case)
        assert status == 400, case
        assert body["error"] == "bad_request" and body["message"]


def test_a_non_finite_deadline_is_a_400(server):
    # json.loads accepts NaN and Infinity; a NaN deadline never expires, so
    # it would slip past max_deadline and run unbounded.
    for deadline in (float("nan"), float("inf")):
        status, body, _ = post(
            server,
            "/run_analysis",
            {"synth": {"seed": 0, "size": 5}, "deadline": deadline},
        )
        assert status == 400, deadline
        assert body["error"] == "bad_request" and "deadline" in body["message"]


def test_a_bad_deadline_is_a_400_even_when_the_response_is_cached(server):
    request = {"client": "memo", "synth": {"seed": 1, "size": 5}}
    assert post(server, "/run_analysis", request)[0] == 200
    status, body, _ = post(server, "/run_analysis", dict(request, deadline="soon"))
    assert status == 400 and "deadline" in body["message"]


@pytest.mark.parametrize("extra_edges", ["x", -1, 100_001, float("inf")])
def test_an_unchecked_extra_edges_is_a_400(server, extra_edges):
    status, body, _ = post(
        server,
        "/run_analysis",
        {"synth": {"seed": 0, "size": 10, "extra_edges": extra_edges}},
    )
    assert status == 400, extra_edges
    assert body["error"] == "bad_request" and "extra_edges" in body["message"]


def test_metric_series_do_not_grow_with_distinct_clients():
    srv = AnalysisServer(ServiceConfig(port=0, rate=10_000.0, burst=100_000))
    httpd = srv.start()
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    try:
        def series_after(clients):
            for client in clients:
                status, _ = srv.handle_run_analysis(
                    {"client": client, "synth": {"seed": 0, "size": 6}}
                )
                assert status == 200
            text = srv.observer.metrics.render_prometheus()
            return sum(1 for line in text.splitlines() if not line.startswith("#"))

        after_100 = series_after(f"c{i}" for i in range(100))
        after_1000 = series_after(f"c{i}" for i in range(100, 1000))
    finally:
        srv.shutdown()
        thread.join(timeout=10)
    assert after_1000 == after_100
    assert srv.sessions.stats()["clients"] == srv.config.max_clients


def test_oversized_batch_is_refused(server):
    items = [{"synth": {"seed": i, "size": 5}} for i in range(65)]
    status, body, _ = post(server, "/run_batch", {"items": items})
    assert status == 400
    assert "max_batch_items" in body["message"]


def test_unknown_route_is_a_json_404(server):
    status, body, _ = post(server, "/no_such_route", {})
    assert status == 404 and body["error"] == "not_found"


# ----------------------------------------------------------------------
# admission: degradation and shedding
# ----------------------------------------------------------------------

def test_requests_past_the_soft_threshold_run_degraded(server):
    # Occupy slots up to the soft threshold, then call the handler
    # directly -- the next admit lands above soft_inflight.
    for _ in range(server.config.soft_inflight):
        server.admission.acquire()
    try:
        status, body = server.handle_run_analysis(
            {"synth": {"seed": 7, "size": 12}}
        )
    finally:
        for _ in range(server.config.soft_inflight):
            server.admission.release()
    assert status == 200 and body["ok"]
    assert body["mode"] == "degraded"


@pytest.mark.parametrize(
    "kwargs",
    [
        # A NaN default lets a request without a deadline run unbounded; a
        # negative one answers every such request 422 "deadline exceeded".
        {"default_deadline": float("nan")},
        {"default_deadline": -1.0},
        {"default_deadline": 0.0},
        {"default_deadline": float("inf")},
        {"max_deadline": float("nan")},
        {"max_deadline": 0.0},
        {"max_cache_bytes": -1},
        {"port": -1},
        {"burst": 0},
    ],
)
def test_service_config_rejects_bad_fields(kwargs):
    with pytest.raises(ValueError, match=next(iter(kwargs))):
        ServiceConfig(**kwargs)


def test_rate_shed_is_a_structured_429_with_retry_after_header(server):
    bucket = server.admission.bucket
    saved_rate = bucket.rate
    bucket.rate = 1e-9
    bucket.drain_tokens()
    try:
        status, body, headers = post(
            server, "/run_analysis", {"synth": {"seed": 0, "size": 5}}
        )
    finally:
        bucket.rate = saved_rate
        bucket.fill_tokens()
    assert status == 429
    assert body["error"] == "shed" and body["reason"] == "rate"
    assert body["exit_code"] == EXIT_SHED
    assert body["retry_after"] > 0
    assert int(headers["Retry-After"]) >= 1


def test_depth_shed_is_a_structured_503(server):
    held = server.config.max_inflight
    for _ in range(held):
        server.admission.acquire()
    try:
        status, body, _ = post(
            server, "/run_analysis", {"synth": {"seed": 0, "size": 5}}
        )
    finally:
        for _ in range(held):
            server.admission.release()
    assert status == 503
    assert body["error"] == "shed" and body["reason"] == "depth"
    assert body["exit_code"] == EXIT_SHED


def test_draining_server_refuses_new_work_with_exit_code_6(server):
    server.drain.request_drain(reason="test")
    status, text = get(server, "/healthz")
    assert status == 503 and "draining" in text
    status, body, _ = post(
        server, "/run_analysis", {"synth": {"seed": 0, "size": 5}}
    )
    assert status == 503
    assert body["error"] == "draining"
    assert body["exit_code"] == EXIT_DRAINING


# ----------------------------------------------------------------------
# observability endpoints
# ----------------------------------------------------------------------

def test_metrics_endpoint_is_lint_clean_prometheus(server):
    post(server, "/run_analysis", {"synth": {"seed": 3, "size": 15}})
    status, text = get(server, "/metrics")
    assert status == 200
    assert lint_exposition(text) == []
    assert "service_request_seconds" in text
    assert "service_admit" in text


def test_statusz_reports_admission_cache_and_registry_state(server):
    post(server, "/run_analysis", {"client": "s", "synth": {"seed": 4, "size": 15}})
    status, text = get(server, "/statusz")
    assert status == 200
    data = json.loads(text)
    assert data["ok"] and not data["draining"]
    assert data["requests"] >= 1
    assert data["admission"]["admitted"] >= 1
    assert data["sessions"]["clients"] >= 1


def test_healthz_is_ok_while_serving(server):
    assert get(server, "/healthz") == (200, "ok\n")


def test_drain_flushes_a_schema_valid_trace(tmp_path):
    trace_path = str(tmp_path / "svc.jsonl")
    srv = AnalysisServer(ServiceConfig(port=0, trace_path=trace_path))
    httpd = srv.start()
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    try:
        for seed in range(3):
            status, body, _ = post(
                srv, "/run_analysis", {"synth": {"seed": seed, "size": 10}}
            )
            assert status == 200, body
    finally:
        srv.shutdown()
        thread.join(timeout=10)
    out = io.StringIO()
    assert cli.main(["trace", "--check", trace_path], out=out) == 0
    assert "valid" in out.getvalue()
    records = [json.loads(line) for line in open(trace_path)]
    spans = [r for r in records if r["type"] == "span"]
    assert sum(1 for s in spans if s["name"] == "service.request") == 3
    assert any(r["type"] == "metrics_dump" for r in records)


# ----------------------------------------------------------------------
# invalid client graphs
# ----------------------------------------------------------------------

#: Breaks Definition 1: ``a`` cannot reach ``end`` and ``b`` is unreachable.
INVALID_CFG = {"edges": [["start", "a"], ["b", "end"]]}


def test_an_invalid_cfg_spelling_is_a_400_on_run_analysis(server):
    status, body, _ = post(server, "/run_analysis", {"cfg": INVALID_CFG})
    assert status == 400
    assert body["error"] == "bad_request"
    assert "not a valid CFG" in body["message"]
    source = "proc f(n) { break; return n; }"  # lowers to an invalid CFG
    status, body, _ = post(server, "/run_analysis", {"source": source})
    assert status == 400 and body["error"] == "bad_request"
    assert server.observer.metrics.counts_matching("service.error") == {}


def test_an_invalid_cfg_item_fails_only_its_own_batch_slot(server):
    items = [{"synth": {"seed": 2, "size": 8}}, {"cfg": INVALID_CFG}]
    status, body, _ = post(server, "/run_batch", {"items": items})
    assert status == 200
    assert [item["status"] for item in body["items"]] == [200, 400]
    assert body["items"][1]["body"]["error"] == "bad_request"


# ----------------------------------------------------------------------
# transport and span collection
# ----------------------------------------------------------------------

class _RecordingConnection:
    """A socket stand-in that serves one request and records each send."""

    def __init__(self, request: bytes):
        self.request = request
        self.sends = []

    def makefile(self, mode, buffering=None):
        return io.BytesIO(self.request)

    def sendall(self, data):
        self.sends.append(bytes(data))


def serve_one(server, request: bytes):
    httpd = server.start()  # already started: returns the bound server
    connection = _RecordingConnection(request)
    httpd.RequestHandlerClass(connection, ("127.0.0.1", 0), httpd)
    return connection.sends


def test_each_response_reaches_the_socket_in_one_write(server):
    # Headers and body in separate writes let Nagle's algorithm hold the
    # body until the client's delayed ACK.
    sends = serve_one(server, b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
    assert len(sends) == 1
    assert sends[0].startswith(b"HTTP/1.1 200 OK\r\n")
    assert sends[0].endswith(b"\r\n\r\nok\n")

    payload = json.dumps({"synth": {"seed": 4, "size": 8}}).encode()
    request = (
        b"POST /run_analysis HTTP/1.1\r\nHost: t\r\n"
        b"Content-Length: " + str(len(payload)).encode() + b"\r\n\r\n" + payload
    )
    sends = serve_one(server, request)
    assert len(sends) == 1
    head, _, body = sends[0].partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 200 OK\r\n")
    assert b"Content-Type: application/json" in head
    assert f"Content-Length: {len(body)}".encode() in head
    assert json.loads(body)["ok"] is True


def test_a_server_without_a_trace_path_keeps_no_request_spans():
    srv = AnalysisServer(ServiceConfig(port=0, rate=10_000.0, burst=1_000))
    httpd = srv.start()
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    try:
        for seed in range(6):
            status, _, _ = post(srv, "/run_analysis", {"synth": {"seed": seed, "size": 8}})
            assert status == 200
        assert srv._collector.records == []
        latency = srv.observer.metrics.histogram(
            "service.request.seconds", mode="full", cached="false"
        )
        assert latency.count == 6
    finally:
        srv.shutdown()
        thread.join(timeout=10)
    assert not thread.is_alive()


def test_a_burst_of_connects_is_queued_while_nothing_accepts():
    """A burst of clients connecting while the accept loop is busy must wait
    in the listen backlog.  Past a full backlog the kernel drops the SYN and
    the client's connect retries a second later."""
    import socket

    srv = AnalysisServer(ServiceConfig(port=0))
    httpd = srv.start()  # listening; no thread accepts yet
    connections = []
    try:
        for _ in range(16):
            connections.append(socket.create_connection(srv.address, timeout=0.5))
    finally:
        for connection in connections:
            connection.close()
        httpd.server_close()
        srv._teardown()
    assert len(connections) == 16


# ----------------------------------------------------------------------
# Definition 1 is checked once per built graph
# ----------------------------------------------------------------------

@pytest.fixture
def checks(monkeypatch):
    """Every check_cfg call, whoever makes it: validate_cfg or the engine."""
    import repro.cfg.validate as validate_mod
    import repro.resilience.engine as engine_mod

    calls = []
    real = validate_mod.check_cfg

    def counting(cfg):
        calls.append(cfg)
        return real(cfg)

    monkeypatch.setattr(validate_mod, "check_cfg", counting)
    monkeypatch.setattr(engine_mod, "check_cfg", counting)
    return calls


@pytest.mark.parametrize(
    "spelling",
    [
        {"cfg": {"edges": [["start", "a"], ["a", "b"], ["a", "end"], ["b", "a"]]}},
        {"source": SOURCE},
        {"synth": {"seed": 3, "size": 20}},
    ],
    ids=["cfg", "source", "synth"],
)
def test_a_built_graph_is_checked_once_per_request(checks, spelling):
    # The cfg and source builders validate; the engine then skips its own
    # check of the same snapshot.  A synth graph is checked by the engine.
    handlers = AnalysisServer(ServiceConfig(rate=10_000.0, burst=1_000))
    status, body = handlers.handle_run_analysis(dict(spelling, client="me"))
    assert status == 200 and body["ok"]
    assert len(checks) == 1
    # An edit makes a new snapshot, which the next analysis checks again.
    delta = {"op": "add_edge", "source": "start", "target": "end"}
    status, _ = handlers.handle_apply_delta(dict(spelling, client="me", deltas=[delta]))
    assert status == 200
    del checks[:]
    status, body = handlers.handle_run_analysis(dict(spelling, client="me"))
    assert status == 200 and body["ok"] and not body["cached"]
    assert len(checks) == 1


def test_an_invalid_graph_answers_as_before(checks):
    handlers = AnalysisServer(ServiceConfig(rate=10_000.0, burst=1_000))
    from repro.service.server import _BadRequest

    with pytest.raises(_BadRequest, match="not a valid CFG"):
        handlers.handle_run_analysis(
            {"client": "me", "cfg": {"edges": [["start", "a"], ["a", "a"]]}}
        )
    assert len(checks) == 1
