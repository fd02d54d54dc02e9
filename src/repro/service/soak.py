"""Deterministic chaos soak for the analysis service (``repro soak``).

Starts an in-process :class:`~repro.service.server.AnalysisServer`, drives
it with ``clients`` concurrent seeded workload threads over real HTTP for
``duration`` seconds while a seeded
:class:`~repro.resilience.faults.FaultPlan` corrupts the fast kernels
underneath, then runs three *deterministic* probes that timing alone
cannot be trusted to produce:

* **rate probe** -- empty the token bucket, issue one request, require a
  structured 429 with ``Retry-After``;
* **depth probe** -- claim every inflight slot, issue one request, require
  a structured 503 (reason ``depth``);
* **drain probe** -- park a request in flight, begin draining, require
  ``/healthz`` 503 + new work refused with a ``draining`` body *and* the
  parked request to complete normally.

The report asserts the service's whole robustness contract: zero
unhandled server exceptions (no HTTP 500s, no client-visible connection
resets), 200 bodies that agree with the client's acknowledged edits, RSS
growth bounded by the cache budget plus a fixed slack, and per-size-band
p99 latency within the SLO budgets.  The SLO rows are
written into ``benchmarks/results/BENCH_perf.json`` under ``service_slo``
so ``repro bench --slo`` can gate them in CI.

Everything is seeded: workload streams per client, fault schedule, and
graph shapes are all functions of ``SoakConfig.seed``.
"""

from __future__ import annotations

import json
import math
import os
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.resilience.faults import FaultPlan, inject
from repro.service.server import AnalysisServer, ServiceConfig

#: Workload size bands: (band name, interior nodes, p99 budget seconds).
#: Budgets are generous on purpose -- the gate exists to catch order-of-
#: magnitude regressions (a lost cache, an accidental O(n^2)), not jitter.
DEFAULT_BANDS: Tuple[Tuple[str, int, float], ...] = (
    ("small", 12, 1.0),
    ("medium", 60, 2.0),
    ("large", 240, 5.0),
)


@dataclass(frozen=True)
class SoakConfig:
    """One soak run, fully determined by its fields."""

    duration: float = 10.0
    clients: int = 8
    seed: int = 0
    #: Graphs per client per band -- small pool so session caches get hits.
    graphs_per_band: int = 4
    bands: Tuple[Tuple[str, int, float], ...] = DEFAULT_BANDS
    #: Fault injection: per-execution firing probability of every site.
    fault_rate: float = 0.02
    #: Probability a workload iteration POSTs /apply_delta (a random edge
    #: insertion on the client's live graph) instead of /run_analysis --
    #: the mixed edit/analyze profile.  0 restores the pure-analyze soak.
    edit_rate: float = 0.25
    #: Service knobs under test.
    max_cache_bytes: int = 8 * 1024 * 1024
    max_inflight: int = 12
    soft_inflight: Optional[int] = None
    rate: Optional[float] = 400.0
    burst: Optional[int] = 100
    #: RSS growth allowance beyond max_cache_bytes (thread stacks, arena
    #: fragmentation, interned request machinery).
    rss_slack_bytes: int = 192 * 1024 * 1024
    trace_path: Optional[str] = None

    def __post_init__(self) -> None:
        if not (math.isfinite(self.duration) and self.duration > 0):
            raise ValueError("duration must be a finite number > 0")
        if self.clients < 1:
            raise ValueError("clients must be >= 1")
        for name in ("fault_rate", "edit_rate"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be within [0, 1]")


@dataclass
class SoakReport:
    """What happened, what was asserted, and whether it all held."""

    config: Dict[str, Any] = field(default_factory=dict)
    requests: int = 0
    ok: int = 0
    analysis_failed: int = 0
    shed: int = 0
    draining_refused: int = 0
    client_errors: int = 0
    server_errors: int = 0
    transport_errors: int = 0
    fault_fires: int = 0
    cache_hits: int = 0
    edits: int = 0
    edit_rejected: int = 0
    body_mismatches: int = 0
    rebuilt: int = 0
    probes: Dict[str, bool] = field(default_factory=dict)
    slo: List[Dict[str, Any]] = field(default_factory=list)
    rss_start_bytes: Optional[int] = None
    rss_end_bytes: Optional[int] = None
    rss_bound_bytes: Optional[int] = None
    failures: List[str] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json(self) -> Dict[str, Any]:
        data = dict(self.__dict__)
        data["passed"] = self.passed
        return data

    def render(self) -> str:
        lines = [
            f"soak: {self.requests} requests over {self.elapsed:.1f}s "
            f"({self.ok} ok, {self.shed} shed, {self.analysis_failed} failed, "
            f"{self.server_errors} server errors, {self.fault_fires} faults fired, "
            f"{self.edits} edits applied, {self.edit_rejected} edits rejected)",
            f"  bodies: {self.body_mismatches} mismatches, "
            f"{self.rebuilt} graphs visibly rebuilt without their edits",
        ]
        for row in self.slo:
            verdict = "ok" if row["ok"] else "OVER BUDGET"
            lines.append(
                f"  slo {row['band']:<7} n={row['n']:<5} p50={row['p50_s']:.4f}s "
                f"p99={row['p99_s']:.4f}s budget={row['budget_s']:.2f}s {verdict}"
            )
        for name, ok in sorted(self.probes.items()):
            lines.append(f"  probe {name}: {'ok' if ok else 'FAILED'}")
        if self.rss_start_bytes is not None and self.rss_end_bytes is not None:
            lines.append(
                f"  rss {self.rss_start_bytes / 1e6:.1f}MB -> "
                f"{self.rss_end_bytes / 1e6:.1f}MB "
                f"(bound {self.rss_bound_bytes / 1e6:.1f}MB growth)"
            )
        lines.append("PASS" if self.passed else "FAIL: " + "; ".join(self.failures))
        return "\n".join(lines)


def _rss_bytes() -> Optional[int]:
    """Resident set size from /proc (None where unavailable)."""
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        return None
    return None


def _post(base: str, path: str, body: Dict[str, Any], timeout: float = 30.0):
    """(status, parsed body) for one POST; HTTP errors are data, not raises."""
    request = urllib.request.Request(
        base + path,
        data=json.dumps(body).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        try:
            return error.code, json.loads(error.read())
        except ValueError:
            return error.code, {}


def _percentile(samples: List[float], q: float) -> float:
    if not samples:
        return 0.0
    ordered = sorted(samples)
    index = min(len(ordered) - 1, max(0, int(round(q * (len(ordered) - 1)))))
    return ordered[index]


class _ClientStats:
    """Per-thread tallies (merged single-threadedly after join)."""

    def __init__(self):
        self.requests = 0
        self.ok = 0
        self.analysis_failed = 0
        self.shed = 0
        self.draining_refused = 0
        self.client_errors = 0
        self.server_errors = 0
        self.transport_errors = 0
        self.cache_hits = 0
        self.edits = 0
        self.edit_rejected = 0
        self.body_mismatches = 0
        self.rebuilt = 0
        #: graph -> (edges of the unedited graph, edits the client expects)
        self.graphs: Dict[Any, Tuple[int, int]] = {}
        self.latency: Dict[str, List[float]] = {}
        self.problems: List[str] = []

    def check_body(self, graph: Any, body: Dict[str, Any], edited: bool) -> None:
        """Check one 200 body for ``graph`` against the acknowledged edits.

        Every soak delta adds exactly one edge, so ``graph.edges - edits``
        is the unedited graph's edge count in every body, and ``edits`` is
        at most the edits this client had acknowledged (``edited``: this
        body acknowledges one more).  A lower ``edits`` means the server
        rebuilt the graph and said so: the expectation restarts from it.
        """
        edges = (body.get("graph") or {}).get("edges")
        edits = body.get("edits")
        base, expected = self.graphs.pop(graph, (None, 0))
        expected += edited
        if (
            not (isinstance(edges, int) and isinstance(edits, int))
            or edits > expected
            or base not in (None, edges - edits)
        ):
            self.body_mismatches += 1
            self.problems.append(
                f"body mismatch for {graph}: {edges} edges with {edits} edits, "
                f"expected {base} unedited edges and at most {expected} edits"
            )
            return  # the next body starts a fresh expectation
        if edits < expected:
            self.rebuilt += 1
        self.graphs[graph] = (edges - edits, edits)


def _client_loop(
    index: int,
    config: SoakConfig,
    base: str,
    stop_at: float,
    stats: _ClientStats,
) -> None:
    import random

    rng = random.Random(config.seed * 1000 + index)
    while time.monotonic() < stop_at:
        band, size, _budget = config.bands[rng.randrange(len(config.bands))]
        graph_seed = rng.randrange(config.graphs_per_band)
        body = {
            "client": f"soak-{index}",
            "synth": {"seed": graph_seed, "size": size},
        }
        editing = rng.random() < config.edit_rate
        if editing:
            # random_cfg's interior nodes are n0..n{size-1}: an interior
            # pair is always a valid insertion.  One edit in eight uses the
            # end node as source -- statically invalid -- to exercise the
            # 422 rejection/rollback path on purpose.
            path = "/apply_delta"
            source = "end" if rng.randrange(8) == 0 else f"n{rng.randrange(size)}"
            body["deltas"] = [
                {
                    "op": "add_edge",
                    "source": source,
                    "target": f"n{rng.randrange(size)}",
                }
            ]
        else:
            path = "/run_analysis"
        started = time.perf_counter()
        try:
            status, response = _post(base, path, body)
        except Exception as error:  # connection reset / refused = a failure
            stats.transport_errors += 1
            stats.problems.append(f"transport: {type(error).__name__}: {error}")
            continue
        elapsed = time.perf_counter() - started
        stats.requests += 1
        if status == 200:
            stats.ok += 1
            stats.latency.setdefault(band, []).append(elapsed)
            stats.check_body((size, graph_seed), response, editing)
            if editing:
                stats.edits += 1
            elif response.get("cached"):
                stats.cache_hits += 1
        elif status == 422 and editing and response.get("error") == "invalid_delta":
            stats.edit_rejected += 1
        elif status == 400 and editing and response.get("error") == "unknown_key":
            stats.edit_rejected += 1
        elif status == 422:
            stats.analysis_failed += 1
        elif status in (429, 503) and response.get("error") == "shed":
            stats.shed += 1
            if "retry_after" not in response or "exit_code" not in response:
                stats.problems.append(f"unstructured shed body: {response}")
        elif status == 503 and response.get("error") == "draining":
            stats.draining_refused += 1
        elif status == 400:
            stats.client_errors += 1
            stats.problems.append(f"unexpected 400: {response}")
        else:
            stats.server_errors += 1
            stats.problems.append(f"status {status}: {response}")


def run_soak(config: Optional[SoakConfig] = None, out=None) -> SoakReport:
    """Run one chaos soak; always returns a report once it has started.

    A service knob the server rejects raises its ``ValueError``, which
    opens with the field's name, before anything starts.
    """
    config = config if config is not None else SoakConfig()
    report = SoakReport(config=dict(config.__dict__, bands=list(config.bands)))
    started = time.monotonic()
    report.rss_start_bytes = _rss_bytes()

    plan = FaultPlan(seed=config.seed, rate=config.fault_rate)
    server = AnalysisServer(
        ServiceConfig(
            port=0,
            max_cache_bytes=config.max_cache_bytes,
            max_inflight=config.max_inflight,
            soft_inflight=config.soft_inflight,
            rate=config.rate,
            burst=config.burst,
            trace_path=config.trace_path,
        )
    )
    httpd = server.start()
    serve_thread = threading.Thread(
        target=httpd.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    serve_thread.start()
    host, port = server.address
    base = f"http://{host}:{port}"

    stats = [_ClientStats() for _ in range(config.clients)]
    stop_at = time.monotonic() + config.duration
    try:
        with inject(plan):
            threads = [
                threading.Thread(
                    target=_client_loop,
                    args=(i, config, base, stop_at, stats[i]),
                    name=f"soak-client-{i}",
                )
                for i in range(config.clients)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

            _probe_rate(server, base, report)
            _probe_depth(server, base, report)
        _probe_drain(server, base, report)
    finally:
        try:
            server.shutdown()
        except Exception as error:
            report.failures.append(f"shutdown failed: {error}")

    for s in stats:
        report.requests += s.requests
        report.ok += s.ok
        report.analysis_failed += s.analysis_failed
        report.shed += s.shed
        report.draining_refused += s.draining_refused
        report.client_errors += s.client_errors
        report.server_errors += s.server_errors
        report.transport_errors += s.transport_errors
        report.cache_hits += s.cache_hits
        report.edits += s.edits
        report.edit_rejected += s.edit_rejected
        report.body_mismatches += s.body_mismatches
        report.rebuilt += s.rebuilt
        report.failures.extend(s.problems[:5])
    report.fault_fires = plan.total_fires()

    latency: Dict[str, List[float]] = {}
    for s in stats:
        for band, samples in s.latency.items():
            latency.setdefault(band, []).extend(samples)
    for band, _size, budget in config.bands:
        samples = latency.get(band, [])
        row = {
            "band": band,
            "n": len(samples),
            "p50_s": round(_percentile(samples, 0.50), 6),
            "p99_s": round(_percentile(samples, 0.99), 6),
            "budget_s": budget,
        }
        row["ok"] = row["p99_s"] <= budget
        report.slo.append(row)
        if not row["ok"]:
            report.failures.append(
                f"slo: {band} p99 {row['p99_s']:.3f}s > budget {budget:.2f}s"
            )

    if report.server_errors:
        report.failures.append(f"{report.server_errors} unhandled server error(s)")
    if report.body_mismatches:
        report.failures.append(f"{report.body_mismatches} response body mismatch(es)")
    if report.transport_errors:
        report.failures.append(
            f"{report.transport_errors} transport error(s) (connection resets?)"
        )
    if report.requests == 0:
        report.failures.append("workload made no requests")

    report.rss_end_bytes = _rss_bytes()
    if report.rss_start_bytes is not None and report.rss_end_bytes is not None:
        report.rss_bound_bytes = config.max_cache_bytes + config.rss_slack_bytes
        growth = report.rss_end_bytes - report.rss_start_bytes
        if growth > report.rss_bound_bytes:
            report.failures.append(
                f"rss grew {growth / 1e6:.1f}MB > bound "
                f"{report.rss_bound_bytes / 1e6:.1f}MB"
            )

    report.elapsed = time.monotonic() - started
    if out is not None:
        print(report.render(), file=out, flush=True)
    return report


# ----------------------------------------------------------------------
# deterministic probes
# ----------------------------------------------------------------------

def _probe_rate(server: AnalysisServer, base: str, report: SoakReport) -> None:
    """An empty token bucket must yield a structured 429 with Retry-After."""
    if server.config.rate is None:
        report.probes["shed_rate"] = True
        return
    bucket = server.admission.bucket
    previous_rate = bucket.rate
    # Freeze refill for the probe's duration: at production rates a token
    # trickles back during the HTTP round-trip and the shed never fires.
    bucket.rate = 1e-6
    bucket.drain_tokens()
    try:
        status, body = _post(
            base, "/run_analysis", {"synth": {"seed": 0, "size": 4}}
        )
    finally:
        bucket.rate = previous_rate
        bucket.fill_tokens()
    ok = (
        status == 429
        and body.get("error") == "shed"
        and body.get("reason") == "rate"
        and body.get("retry_after") is not None
        and body.get("exit_code") is not None
    )
    report.probes["shed_rate"] = ok
    if not ok:
        report.failures.append(f"rate probe: expected structured 429, got {status} {body}")


def _probe_depth(server: AnalysisServer, base: str, report: SoakReport) -> None:
    """A saturated pool must yield a structured 503 (reason depth)."""
    server.admission.bucket.fill_tokens()  # rate must not mask the depth shed
    held = 0
    try:
        for _ in range(server.config.max_inflight):
            server.admission.acquire()
            held += 1
    except Exception:
        pass  # someone else's request holds a slot; ours suffice
    try:
        status, body = _post(base, "/run_analysis", {"synth": {"seed": 0, "size": 4}})
    finally:
        for _ in range(held):
            server.admission.release()
    ok = (
        status == 503
        and body.get("error") == "shed"
        and body.get("reason") == "depth"
        and body.get("exit_code") is not None
    )
    report.probes["shed_depth"] = ok
    if not ok:
        report.failures.append(f"depth probe: expected structured 503, got {status} {body}")


def _probe_drain(server: AnalysisServer, base: str, report: SoakReport) -> None:
    """Draining must finish in-flight work and refuse new work, visibly."""
    inflight_result: Dict[str, Any] = {}
    release = threading.Event()
    entered = threading.Event()

    def parked() -> None:
        # Hold an inflight slot through the drain transition, exactly as a
        # long request would, then finish normally.
        try:
            with server.drain.track():
                entered.set()
                release.wait(timeout=10.0)
            inflight_result["ok"] = True
        except Exception as error:
            inflight_result["error"] = str(error)

    thread = threading.Thread(target=parked)
    thread.start()
    entered.wait(timeout=5.0)
    server.drain.request_drain(reason="soak-probe")

    ok = True
    try:
        with urllib.request.urlopen(base + "/healthz", timeout=5.0) as response:
            ok = False  # draining /healthz must not be 200
            report.failures.append(f"drain probe: healthz {response.status} while draining")
    except urllib.error.HTTPError as error:
        if error.code != 503:
            ok = False
            report.failures.append(f"drain probe: healthz {error.code}, wanted 503")

    status, body = _post(base, "/run_analysis", {"synth": {"seed": 0, "size": 4}})
    if status != 503 or body.get("error") != "draining":
        ok = False
        report.failures.append(
            f"drain probe: new work got {status} {body}, wanted 503 draining"
        )

    release.set()
    thread.join(timeout=10.0)
    if not inflight_result.get("ok"):
        ok = False
        report.failures.append(
            f"drain probe: in-flight work did not complete: {inflight_result}"
        )
    report.probes["drain"] = ok


# ----------------------------------------------------------------------
# BENCH_perf.json integration
# ----------------------------------------------------------------------

def update_bench_perf(report: SoakReport, path: str) -> None:
    """Write the report's SLO rows into ``BENCH_perf.json`` (key
    ``service_slo``), creating the file if needed, preserving the rest."""
    data: Dict[str, Any] = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    data["service_slo"] = {
        "requests": report.requests,
        "clients": report.config.get("clients"),
        "seed": report.config.get("seed"),
        "fault_fires": report.fault_fires,
        "rows": report.slo,
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
        handle.write("\n")
