"""The load generator never exceeds nproc threads or connections."""

import http.server
import json
import os
import threading

import pytest

from loadgen import Client, closed_loop


class Recorder(http.server.BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    lock = threading.Lock()
    peers = set()
    inflight = 0
    peak = 0

    def do_POST(self):  # noqa: N802 - stdlib naming
        cls = type(self)
        with cls.lock:
            cls.peers.add(self.client_address)
            cls.inflight += 1
            cls.peak = max(cls.peak, cls.inflight)
        self.rfile.read(int(self.headers["Content-Length"]))
        payload = json.dumps({"ok": True}).encode()
        self.send_response(200)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)
        with cls.lock:
            cls.inflight -= 1

    def log_message(self, *args):
        pass


@pytest.fixture
def server():
    httpd = http.server.ThreadingHTTPServer(("127.0.0.1", 0), Recorder)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    yield httpd
    httpd.shutdown()
    httpd.server_close()
    thread.join(timeout=10)
    assert not thread.is_alive()


def test_closed_loop_stays_within_nproc(server):
    nproc = os.cpu_count() or 1
    host, port = server.server_address[:2]
    conns = [Client(host, port) for _ in range(nproc)]
    threads = set()
    lock = threading.Lock()
    busy = [0, 0]  # in flight now, most ever in flight

    def step(client, n):
        with lock:
            threads.add(threading.get_ident())
            busy[0] += 1
            busy[1] = max(busy)
        status, body, t0, seconds = conns[client].post("/x", b"{}")
        with lock:
            busy[0] -= 1
        assert status == 200 and body == {"ok": True}
        return [{"t0": t0, "seconds": seconds}]

    try:
        window, window_s = closed_loop(nproc, step, warmup=0.1, seconds=0.4)
    finally:
        for conn in conns:
            conn.close()
    assert window and window_s > 0.4
    assert len(threads) <= nproc and busy[1] <= nproc
    assert len(Recorder.peers) <= nproc  # one keep-alive connection per client
    assert Recorder.peak <= nproc


def test_more_clients_than_cpus_is_refused():
    with pytest.raises(ValueError):
        closed_loop((os.cpu_count() or 1) + 1, lambda c, n: [], warmup=0, seconds=0)
