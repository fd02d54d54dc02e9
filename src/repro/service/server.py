"""The admission-controlled analysis server (``repro serve``).

A stdlib-only, long-lived JSON-over-HTTP front end for the resilience
engine.  ``ThreadingHTTPServer`` handles each request on its own thread;
every request passes, in order, through

1. the :class:`~repro.service.drain.DrainController` -- a draining server
   answers 503 ``draining`` (exit-code taxonomy: ``EXIT_DRAINING``) and
   does no work;
2. the :class:`~repro.service.admission.AdmissionController` -- over-rate
   requests get 429, a saturated pool gets 503 (``EXIT_SHED``), both with
   structured bodies carrying ``retry_after``;
3. graceful degradation -- requests admitted past the soft inflight
   threshold run a cheaper engine configuration (no fast retries, clamped
   deadline): the kernel -> reference -> reject ladder's middle rung,
   visible as ``"mode": "degraded"`` in responses;
4. the per-client session cache -- a
   :class:`~repro.service.cache.ShardedSessionCache` keyed by a stable
   graph key, holding the CFG, its live edit session, and version-stamped
   cached responses, byte-bounded by ``ServiceConfig.max_cache_bytes``.
   This is the server's one memory bound: each graph's snapshot and
   analysis session live on the graph and are freed with it.  A request
   resolves its graph with one atomic get-or-create, so concurrent first
   requests share one live graph, and the CFG is built only on a miss.

Endpoints:

``POST /run_analysis``
    Body: ``{"client": str?, "synth": {"seed", "size", "extra_edges"?}? |
    "source": str? | "cfg": {"edges", "start"?, "end"?}?, "analyses": [...]?,
    "deadline": seconds?}``.  Exactly one graph spelling is required;
    ``size`` and ``extra_edges`` are integers in [0, 100000], ``cfg`` edge
    endpoints, ``start`` and ``end`` are strings, ``deadline`` is finite
    and positive.
``POST /run_batch``
    ``{"items": [<run_analysis body>, ...]}`` (capped at
    :data:`MAX_BATCH_ITEMS`); responses are per-item, admission is per-item.
``POST /apply_delta``
    ``{"client": str?, "key": str? | <graph spelling>, "deltas": [...]}``.
    Applies CFG edit deltas (the JSON wire form of
    :mod:`repro.incremental.delta`) to the client's *live*
    :class:`~repro.incremental.EditSession` for that graph, maintaining
    the PST incrementally; ``"key"`` addresses a graph cached by a prior
    request, a graph spelling creates the entry.  Deltas apply in order;
    the first invalid one (node ids must be strings or integers,
    ``preds``/``succs`` lists) stops the batch with 422 (its own edit
    rolled back exactly, earlier deltas remain applied).  Admission and
    drain rules are identical to ``/run_analysis``.
``GET /metrics``
    Prometheus text exposition of the server's registry.
``GET /healthz``
    200 ``ok`` normally, 503 ``draining`` during drain (load balancers
    stop routing before the socket closes).
``GET /statusz``
    JSON snapshot of admission/cache/drain state.

Every ``/run_analysis`` and ``/apply_delta`` body carries ``edits``: the
deltas applied to this live graph since the server built it.  A graph
rebuilt after eviction says 0, so a client can see its edits are gone.

Observability: the server installs one *metrics-only* ambient observer for
its lifetime (``TraceRecorder`` is single-threaded by design, so tracing
cannot be ambient under a thread pool); when ``ServiceConfig.trace_path``
is set, each request instead records its own span into a private recorder
that is absorbed into a shared collector under a lock.  At drain the
collector -- now one schema-valid trace of every request span plus a
mergeable metrics dump -- is flushed to that path.
"""

from __future__ import annotations

import hashlib
import json
import math
import threading
import time
from dataclasses import dataclass
from http import HTTPStatus
from typing import Any, Callable, Dict, Optional, Tuple

from repro.cfg.graph import InvalidCFGError
from repro.config import ALL_ANALYSES, AnalysisConfig
from repro.errors import EXIT_DRAINING, EXIT_SHED, ServiceDraining, ServiceShed
from repro.obs import observer as _obs
from repro.obs.observer import Observer
from repro.obs.trace import TraceRecorder
from repro.service.admission import AdmissionController
from repro.service.cache import ShardedSessionCache, cfg_cost_bytes
from repro.service.drain import DrainController

#: Analyses a degraded request still runs the full set of -- degradation
#: changes *how* stages run (ladder depth, deadline), never the answer.
_DEGRADED_OVERRIDES = dict(fast_retries=0)

#: Deadline clamp, in seconds, for degraded-mode requests.
DEGRADED_DEADLINE = 1.0
#: Most items one ``/run_batch`` request may carry.
MAX_BATCH_ITEMS = 64
#: Largest request body read, in bytes.
MAX_BODY_BYTES = 4 * 1024 * 1024
#: How long a drain waits for in-flight requests, in seconds.
DRAIN_TIMEOUT = 30.0


@dataclass(frozen=True)
class ServiceConfig:
    """Tuning for one :class:`AnalysisServer`: the fields ``repro serve``
    sets from its flags, one each."""

    host: str = "127.0.0.1"
    port: int = 0
    #: Total byte budget for per-client session shards.
    max_cache_bytes: int = 32 * 1024 * 1024
    max_clients: int = 64
    #: Steady-state requests/second (None = no rate limit) and burst size.
    rate: Optional[float] = None
    burst: Optional[int] = None
    #: Hard inflight cap (shed past it) and soft threshold (degrade past it).
    max_inflight: int = 8
    soft_inflight: Optional[int] = None
    #: Per-request deadline defaults/caps, seconds.
    default_deadline: float = 5.0
    max_deadline: float = 30.0
    #: Where the drain flush writes the request trace (None = nowhere).
    trace_path: Optional[str] = None

    def __post_init__(self) -> None:
        # A NaN default would let requests without a deadline run
        # unbounded; a non-positive one would expire every such request.
        for name in ("default_deadline", "max_deadline"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be a finite number > 0")
        if self.max_cache_bytes < 0:
            raise ValueError("max_cache_bytes must be >= 0")
        if not 0 <= self.port <= 65535:
            raise ValueError("port must be within [0, 65535]")
        if self.burst is not None and self.burst < 1:
            raise ValueError("burst must be >= 1")


class _BadRequest(ValueError):
    """Client error in the request body -> HTTP 400 with the message."""


#: POST path -> the :class:`AnalysisServer` method answering it, each
#: ``(body) -> (status, response body)``.
_POST_ROUTES = {
    "/run_analysis": "handle_run_analysis",
    "/run_batch": "handle_run_batch",
    "/apply_delta": "handle_apply_delta",
}


def _graph_from_request(body: Dict[str, Any]) -> Tuple[str, Callable[[], Any]]:
    """(stable cache key, CFG builder) for the request's graph spelling.

    Exactly one of ``synth`` / ``source`` / ``cfg`` must be present.  The
    key is deterministic across processes (seeds, or a digest of the
    source/edge list), so a client's repeat requests hit its shard.  Every
    check that needs no graph happens here; the builder generates, or
    parses and lowers, or validates the CFG, and raises
    :class:`_BadRequest` for a spelling that is not a valid CFG.  The
    server calls it only when the key misses.
    """
    spellings = [k for k in ("synth", "source", "cfg") if body.get(k) is not None]
    if len(spellings) != 1:
        raise _BadRequest(
            "request must carry exactly one of 'synth', 'source', or 'cfg' "
            f"(got {spellings or 'none'})"
        )
    kind = spellings[0]
    if kind == "synth":
        spec = body["synth"]
        if not isinstance(spec, dict):
            raise _BadRequest("'synth' must be an object")
        try:
            seed = int(spec.get("seed", 0))
            size = int(spec.get("size", 20))
            extra = int(spec.get("extra_edges", max(1, size // 2)))
        except (TypeError, ValueError, OverflowError):
            raise _BadRequest(
                "'synth' seed/size/extra_edges must be integers"
            ) from None
        if size < 0 or size > 100_000:
            raise _BadRequest("'synth' size must be in [0, 100000]")
        if extra < 0 or extra > 100_000:
            raise _BadRequest("'synth' extra_edges must be in [0, 100000]")

        def build_synth():
            from repro.synth.unstructured import random_cfg

            return random_cfg(seed, num_nodes=size, extra_edges=extra)

        return f"synth:{seed}:{size}:{extra}", build_synth
    if kind == "source":
        source = body["source"]
        if not isinstance(source, str):
            raise _BadRequest("'source' must be a MiniLang string")

        def build_source():
            from repro.lang.lower import lower_procedure
            from repro.lang.parser import parse_procedure

            try:
                return lower_procedure(parse_procedure(source)).cfg
            except Exception as error:
                raise _BadRequest(f"MiniLang parse/lower failed: {error}") from None

        digest = hashlib.sha256(source.encode("utf-8")).hexdigest()[:16]
        return f"source:{digest}", build_source
    spec = body["cfg"]
    if not isinstance(spec, dict) or not isinstance(spec.get("edges"), list):
        raise _BadRequest("'cfg' must be an object with an 'edges' list")
    edges = []
    for pair in spec["edges"]:
        if (
            not isinstance(pair, (list, tuple))
            or len(pair) not in (2, 3)
            or not all(isinstance(x, str) for x in pair[:2])
        ):
            raise _BadRequest(f"bad edge spec {pair!r}")
        edges.append(tuple(pair))
    start = spec.get("start", "start")
    end = spec.get("end", "end")
    if not isinstance(start, str) or not isinstance(end, str):
        raise _BadRequest("'cfg' start and end must be strings")

    def build_cfg():
        from repro.cfg.builder import cfg_from_edges

        try:
            return cfg_from_edges(edges, start=start, end=end, validate=True)
        except InvalidCFGError as error:
            raise _BadRequest(f"'cfg' is not a valid CFG: {error}") from None

    canonical = json.dumps([list(e) for e in edges] + [start, end], sort_keys=True)
    digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]
    return f"cfg:{digest}", build_cfg


def _deadline_from_request(body: Dict[str, Any], config: ServiceConfig) -> float:
    """The request's deadline in seconds, clamped to ``max_deadline``.

    Must be finite: ``json.loads`` accepts ``NaN`` and ``Infinity``, and a
    NaN deadline would never expire (every comparison with it is false).
    """
    deadline = body.get("deadline")
    if deadline is None:
        return min(config.default_deadline, config.max_deadline)
    try:
        deadline = float(deadline)
    except (TypeError, ValueError):
        raise _BadRequest("'deadline' must be a number") from None
    if not math.isfinite(deadline) or deadline <= 0:
        raise _BadRequest("'deadline' must be a finite number > 0")
    return min(deadline, config.max_deadline)


def _analyses_from_request(body: Dict[str, Any]) -> Tuple[str, ...]:
    analyses = body.get("analyses")
    if analyses is None:
        return ALL_ANALYSES
    if not isinstance(analyses, list) or not all(
        isinstance(a, str) for a in analyses
    ):
        raise _BadRequest("'analyses' must be a list of stage names")
    unknown = [a for a in analyses if a not in ALL_ANALYSES]
    if unknown:
        raise _BadRequest(
            f"unknown analyses {unknown}; choose from {list(ALL_ANALYSES)}"
        )
    return tuple(analyses)


class _ClientEntry:
    """One cached graph of one client: CFG + prior responses.

    ``responses`` memoizes ``/run_analysis`` bodies per analyses tuple,
    each stamped with the ``cfg.version`` its engine run saw; a memo is
    served only while its stamp equals the graph's current version, so an
    edit makes it stale without anyone clearing it.  ``edit`` is the
    client's live :class:`~repro.incremental.EditSession` for this graph,
    created lazily by the first ``/apply_delta``; ``lock`` serializes edits
    and engine runs against each other (each request thread edits the
    shared graph in place), and guards ``responses``.
    """

    __slots__ = ("cfg", "responses", "edit", "lock")

    def __init__(self, cfg):
        self.cfg = cfg
        self.responses: Dict[Tuple[str, ...], Tuple[int, Dict[str, Any]]] = {}
        self.edit = None
        self.lock = threading.Lock()

    @property
    def edits(self) -> int:
        """Deltas applied to this live graph since the server built it."""
        return 0 if self.edit is None else self.edit.applied_deltas


class AnalysisServer:
    """Own the HTTP server, caches, admission, drain, and observability."""

    def __init__(self, config: Optional[ServiceConfig] = None):
        self.config = config if config is not None else ServiceConfig()
        self.observer = Observer(trace=False, metrics=True)
        self.admission = AdmissionController(
            rate=self.config.rate,
            burst=self.config.burst,
            max_inflight=self.config.max_inflight,
            soft_inflight=self.config.soft_inflight,
        )
        self.drain = DrainController()
        self.sessions = ShardedSessionCache(
            self.config.max_cache_bytes, max_clients=self.config.max_clients
        )
        self._collector = TraceRecorder(trace_id="service")
        self._collector_lock = threading.Lock()
        self._uninstall: Optional[Any] = None
        self._httpd = None
        self.requests = 0
        self._requests_lock = threading.Lock()
        self.drain.add_flush_hook(self._flush_trace)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self):
        """Bind the socket and install the ambient metrics observer."""
        from http.server import ThreadingHTTPServer

        if self._httpd is not None:
            return self._httpd
        server = self

        class Handler(_make_handler_base()):
            def handle_one(self, method):
                server._handle(self, method)

        class HTTPServer(ThreadingHTTPServer):
            # The stdlib's listen backlog of 5 overflows when a few clients
            # connect while the accept loop waits for the GIL; the kernel
            # then drops their SYNs and each connect retries a second later.
            request_queue_size = 128

        self._httpd = HTTPServer((self.config.host, self.config.port), Handler)
        self._obs_ctx = _obs.observe(self.observer)
        self._obs_ctx.__enter__()
        return self._httpd

    @property
    def address(self) -> Tuple[str, int]:
        if self._httpd is None:
            raise RuntimeError("server not started")
        host, port = self._httpd.server_address[:2]
        return host, port

    def serve_forever(self, announce=None) -> DrainController:
        """Serve until SIGINT/SIGTERM (or request_drain), then drain."""
        from repro.service.drain import serve_until_shutdown

        httpd = self.start()
        if announce is not None:
            host, port = self.address
            print(
                f"serving analysis API on http://{host}:{port}/run_analysis",
                file=announce,
                flush=True,
            )
        try:
            return serve_until_shutdown(
                httpd,
                self.drain,
                announce=announce,
                drain_timeout=DRAIN_TIMEOUT,
            )
        finally:
            self._teardown()

    def shutdown(self) -> None:
        """Drain + stop an in-process server (the test/soak path)."""
        self.drain.request_drain(reason="shutdown")
        if self._httpd is not None:
            self._httpd.shutdown()
            self.drain.wait_idle(timeout=DRAIN_TIMEOUT)
            self.drain.flush()
            self._httpd.server_close()
        self._teardown()

    def _teardown(self) -> None:
        if getattr(self, "_obs_ctx", None) is not None:
            self._obs_ctx.__exit__(None, None, None)
            self._obs_ctx = None
        self._httpd = None

    def _flush_trace(self) -> None:
        if self.config.trace_path is None:
            return
        with self._collector_lock:
            with open(self.config.trace_path, "w", encoding="utf-8") as handle:
                self._collector.write_jsonl(
                    handle,
                    metrics_snapshot=self.observer.metrics.snapshot(),
                    metrics_dump=self.observer.metrics.dump(),
                )

    # ------------------------------------------------------------------
    # request handling
    # ------------------------------------------------------------------
    def _handle(self, handler, method: str) -> None:
        """Route one HTTP request; never lets an exception escape."""
        path = handler.path.split("?", 1)[0]
        try:
            if method == "GET" and path == "/metrics":
                from repro.obs.export import CONTENT_TYPE

                body = self.observer.metrics.render_prometheus().encode("utf-8")
                _send(handler, 200, body, CONTENT_TYPE)
                return
            if method == "GET" and path == "/healthz":
                if self.drain.draining:
                    _send(handler, 503, b"draining\n", "text/plain; charset=utf-8")
                else:
                    _send(handler, 200, b"ok\n", "text/plain; charset=utf-8")
                return
            if method == "GET" and path == "/statusz":
                _send_json(handler, 200, self.statusz())
                return
            if method == "POST" and path in _POST_ROUTES:
                route = getattr(self, _POST_ROUTES[path])
                status, body = route(_read_json(handler))
                _send_json(handler, status, body)
                return
            _send_json(
                handler,
                404,
                {"ok": False, "error": "not_found", "message": f"no route {path}"},
            )
        except _BadRequest as error:
            _send_json(
                handler,
                400,
                {"ok": False, "error": "bad_request", "message": str(error)},
            )
        except Exception as error:  # the service must never crash a worker
            self.observer.count("service.error", kind=type(error).__name__)
            try:
                _send_json(
                    handler,
                    500,
                    {
                        "ok": False,
                        "error": "internal",
                        "message": f"{type(error).__name__}: {error}",
                    },
                )
            except Exception:
                pass  # client went away mid-error: nothing left to tell it

    def statusz(self) -> Dict[str, Any]:
        with self._requests_lock:
            requests = self.requests
        return {
            "ok": True,
            "draining": self.drain.draining,
            "requests": requests,
            "admission": self.admission.stats(),
            "sessions": self.sessions.stats(),
        }

    def handle_run_analysis(
        self, body: Dict[str, Any]
    ) -> Tuple[int, Dict[str, Any]]:
        """The full admission -> degrade -> cache -> engine pipeline.

        Returns ``(http_status, response_body)``; raises only
        :class:`_BadRequest` (malformed input).  Shed/drain outcomes are
        *returned* as structured bodies, not raised -- they are expected
        operating states, not errors.
        """
        return self._admitted(body, self._run_analysis)

    def handle_apply_delta(
        self, body: Dict[str, Any]
    ) -> Tuple[int, Dict[str, Any]]:
        """Apply edit deltas to a client's live edit session.

        Same admission/drain pipeline as ``/run_analysis``; the work
        itself runs under the entry's lock (one editor per graph at a
        time).  Invalid deltas answer 422 ``invalid_delta`` naming the
        failing index; the failing delta is rolled back exactly, earlier
        deltas in the batch remain applied.
        """
        return self._admitted(body, self._apply_delta)

    def _admitted(
        self, body: Dict[str, Any], work: Callable[..., Tuple[int, str, Dict[str, Any]]]
    ) -> Tuple[int, Dict[str, Any]]:
        """The one request path of ``/run_analysis`` and ``/apply_delta``.

        Checks the body and its client, tracks the request for drain, admits
        it, counts it, and runs ``work(body, client, mode)``, which returns
        ``(status, graph key, response body)``.  Stamps the body with the
        client, key, mode and elapsed seconds, and records the request.
        """
        if not isinstance(body, dict):
            raise _BadRequest("request body must be a JSON object")
        client = body.get("client") or "anonymous"
        if not isinstance(client, str):
            raise _BadRequest("'client' must be a string")
        try:
            with self.drain.track():
                with self.admission.admit() as decision:
                    started = time.perf_counter()
                    with self._requests_lock:
                        self.requests += 1
                    mode = decision.mode
                    status, key, result_body = work(body, client, mode)
        except (ServiceDraining, ServiceShed) as error:
            return error.http_status, _unavailable_body(error)
        elapsed = time.perf_counter() - started
        result_body.update(
            {"client": client, "key": key, "mode": mode, "elapsed": round(elapsed, 6)}
        )
        self._record_request(
            body_key=key,
            client=client,
            mode=mode,
            cached=result_body.get("cached", False),
            ok=bool(result_body.get("ok")),
            elapsed=elapsed,
            nodes=result_body.get("graph", {}).get("nodes"),
        )
        return status, result_body

    def _entry(self, client: str, key: str, build: Callable[[], Any]) -> _ClientEntry:
        """The client's live entry for ``key``; ``build`` runs only on a miss."""

        def create():
            cfg = build()
            return _ClientEntry(cfg), cfg_cost_bytes(cfg)

        return self.sessions.shard(client).get_or_create(key, create)

    def _run_analysis(self, body: Dict[str, Any], client: str, mode: str):
        from repro.resilience.engine import run_analysis

        analyses = _analyses_from_request(body)
        deadline = _deadline_from_request(body, self.config)
        key, build = _graph_from_request(body)
        entry = self._entry(client, key, build)
        overrides: Dict[str, Any] = {"deadline": deadline, "analyses": analyses}
        if mode == "degraded":
            overrides.update(_DEGRADED_OVERRIDES)
            overrides["deadline"] = min(deadline, DEGRADED_DEADLINE)
        # entry.cfg, not the request's spelling: /apply_delta may have
        # edited the client's live graph since it was first cached.  The
        # entry lock keeps the engine from racing a concurrent edit, and the
        # memo's version stamp keeps an answer from outliving its graph.
        with entry.lock:
            version = entry.cfg.version
            memo = entry.responses.get(analyses)
            cached = memo is not None and memo[0] == version
            if cached:
                result_body = dict(memo[1])
            else:
                result = run_analysis(entry.cfg, config=AnalysisConfig(**overrides))
                result_body = {
                    "ok": result.ok,
                    "error": result.error,
                    "degraded_ladder": result.degraded,
                    "graph": {
                        "nodes": entry.cfg.num_nodes,
                        "edges": entry.cfg.num_edges,
                    },
                    "analyses": _summarize(result, analyses),
                    "attempts": [
                        {
                            "stage": a.stage,
                            "path": a.path,
                            "outcome": a.outcome,
                            "elapsed": a.elapsed,
                        }
                        for a in result.diagnostic.attempts
                    ],
                }
                if result.ok:
                    entry.responses[analyses] = (version, dict(result_body))
            result_body["edits"] = entry.edits
        result_body["cached"] = cached
        return (200 if result_body.get("ok") else 422), key, result_body

    def _apply_delta(self, body: Dict[str, Any], client: str, mode: str):
        from repro.incremental import DeltaValidationError, EditSession

        deltas = body.get("deltas")
        if not isinstance(deltas, list) or not deltas:
            raise _BadRequest("'deltas' must be a non-empty list of delta objects")
        key = body.get("key")
        if key is None:
            key, build = _graph_from_request(body)
            entry = self._entry(client, key, build)
        else:
            if not isinstance(key, str):
                raise _BadRequest("'key' must be a string")
            if any(body.get(k) is not None for k in ("synth", "source", "cfg")):
                raise _BadRequest("give either 'key' or a graph spelling, not both")
            entry = self.sessions.shard(client).get(key)
            if entry is None:
                return 400, key, {
                    "ok": False,
                    "error": "unknown_key",
                    "message": f"client {client!r} has no cached graph {key!r}; "
                    "send a graph spelling to create one",
                }

        with entry.lock:
            if entry.edit is None:
                entry.edit = EditSession(entry.cfg)
            edit = entry.edit
            applied = 0
            failure: Optional[Dict[str, Any]] = None
            for index, spec in enumerate(deltas):
                if not isinstance(spec, dict):
                    failure = {"index": index, "message": "delta must be an object"}
                    break
                try:
                    edit.apply(spec)
                except DeltaValidationError as error:
                    failure = {"index": index, "message": str(error)}
                    break
                applied += 1
            result_body: Dict[str, Any] = {
                "ok": failure is None,
                "applied": applied,
                "edits": entry.edits,
                "graph": {"nodes": entry.cfg.num_nodes, "edges": entry.cfg.num_edges},
                "edit_stats": edit.stats.as_dict(),
                "pst": {"regions": len(edit.pst.canonical_regions())},
            }
        if failure is not None:
            result_body["error"] = "invalid_delta"
            result_body["index"] = failure["index"]
            result_body["message"] = failure["message"]
        return (200 if failure is None else 422), key, result_body

    def handle_run_batch(self, body: Dict[str, Any]) -> Tuple[int, Dict[str, Any]]:
        if not isinstance(body, dict) or not isinstance(body.get("items"), list):
            raise _BadRequest("batch body must be {'items': [...]}")
        items = body["items"]
        if len(items) > MAX_BATCH_ITEMS:
            raise _BadRequest(
                f"batch of {len(items)} exceeds max_batch_items={MAX_BATCH_ITEMS}"
            )
        client = body.get("client")
        results = []
        for item in items:
            if not isinstance(item, dict):
                results.append(
                    {
                        "status": 400,
                        "body": {"ok": False, "error": "bad_request",
                                 "message": "batch item must be an object"},
                    }
                )
                continue
            if client is not None and "client" not in item:
                item = dict(item, client=client)
            try:
                status, item_body = self.handle_run_analysis(item)
            except _BadRequest as error:
                status, item_body = 400, {
                    "ok": False, "error": "bad_request", "message": str(error),
                }
            results.append({"status": status, "body": item_body})
        ok = all(r["status"] == 200 for r in results)
        return 200, {"ok": ok, "count": len(results), "items": results}

    # ------------------------------------------------------------------
    def _record_request(self, **attrs) -> None:
        """The request's latency histogram, plus one span absorbed into the
        shared collector when there is a trace to flush it to."""
        elapsed = attrs.pop("elapsed")
        self.observer.observe_value(
            "service.request.seconds",
            elapsed,
            mode=attrs["mode"],
            cached=str(attrs["cached"]).lower(),
        )
        if self.config.trace_path is None:
            return  # only the drain flush reads the collector
        recorder = TraceRecorder()
        span = recorder.start("service.request", **attrs)
        span.finish()
        record = recorder.records[-1]
        # The request's real duration (the recorder only saw an instant).
        record["start"] = 0.0
        record["end"] = round(elapsed, 9)
        record["elapsed"] = round(elapsed, 9)
        with self._collector_lock:
            self._collector.absorb(recorder.records)


def _summarize(result, analyses: Tuple[str, ...]) -> Dict[str, Any]:
    """Small JSON-able summaries of each stage's artifact (never the
    artifact itself -- responses must stay O(1) in graph size)."""
    summary: Dict[str, Any] = {}
    if "pst" in analyses:
        summary["pst"] = (
            {"regions": len(result.pst.canonical_regions())}
            if result.pst is not None
            else None
        )
    if "dominators" in analyses:
        summary["dominators"] = (
            {"entries": len(result.idom)} if result.idom is not None else None
        )
    if "control-regions" in analyses:
        summary["control-regions"] = (
            {"classes": len(result.control_regions)}
            if result.control_regions is not None
            else None
        )
    return summary


def _unavailable_body(error) -> Dict[str, Any]:
    body = {
        "ok": False,
        "message": str(error),
        "exit_code": EXIT_DRAINING
        if isinstance(error, ServiceDraining)
        else EXIT_SHED,
    }
    if isinstance(error, ServiceDraining):
        body["error"] = "draining"
    else:
        body["error"] = "shed"
        body["reason"] = getattr(error, "reason", "rate")
    retry_after = getattr(error, "retry_after", None)
    if retry_after is not None:
        body["retry_after"] = retry_after
    return body


# ----------------------------------------------------------------------
# http.server plumbing
# ----------------------------------------------------------------------

def _make_handler_base():
    from http.server import BaseHTTPRequestHandler

    class Base(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def do_GET(self):  # noqa: N802 - stdlib naming convention
            self.handle_one("GET")

        def do_POST(self):  # noqa: N802
            self.handle_one("POST")

        def log_message(self, format, *args):  # metrics, not stderr spam
            pass

    return Base


def _read_json(handler) -> Dict[str, Any]:
    length = handler.headers.get("Content-Length")
    try:
        length = int(length)
    except (TypeError, ValueError):
        raise _BadRequest("Content-Length required") from None
    if length < 0 or length > MAX_BODY_BYTES:
        raise _BadRequest(f"body of {length} bytes exceeds cap {MAX_BODY_BYTES}")
    raw = handler.rfile.read(length)
    try:
        return json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as error:
        raise _BadRequest(f"body is not valid JSON: {error}") from None


def _send(
    handler,
    status: int,
    body: bytes,
    content_type: str,
    retry_after: Optional[int] = None,
) -> None:
    """Write one response -- status line, headers and body -- in one write.

    ``end_headers()`` would flush the headers in a write of their own, and
    Nagle's algorithm then holds the body back until the client's delayed
    ACK, about 40 ms later.
    """
    lines = [
        f"{handler.protocol_version} {status} {HTTPStatus(status).phrase}",
        f"Server: {handler.version_string()}",
        f"Date: {handler.date_time_string()}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
    ]
    if retry_after is not None:
        lines.append(f"Retry-After: {retry_after}")
    head = "\r\n".join(lines) + "\r\n\r\n"
    handler.wfile.write(head.encode("latin-1") + body)


def _send_json(handler, status: int, body: Dict[str, Any]) -> None:
    payload = json.dumps(body, sort_keys=True).encode("utf-8")
    retry_after = None
    if status in (429, 503) and "retry_after" in body:
        retry_after = max(1, round(body["retry_after"]))
    _send(handler, status, payload, "application/json", retry_after)
