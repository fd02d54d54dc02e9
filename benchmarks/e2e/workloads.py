"""The six workloads: seeded operation streams, timed windows, output checks.

A workload is a stream of operations per client.  An operation carries
its input graph and the HTTP requests it implies, so the timed run
(:func:`run_workload`) and the traced replay (:mod:`layers`) walk the same
seeded sequence.  Each ``run_*`` returns ``{"metrics": {...},
"attempted": n, "failed": k, "notes": {...}}`` with every end-to-end
metric of ``BENCHMARK.json``; ``notes`` carries facts printed beside the
metrics (sample counts, edit latency, memo hits) that no bound applies to.
"""

from __future__ import annotations

import collections
import itertools
import json
import os
import random
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from inputs import (
    POOL_BANDS,
    body_summary,
    deck_of,
    edit_pair,
    edit_sites,
    escapes,
    expected_summary,
    load_pool,
    pool_draws,
    spelling,
    to_cfg,
)
from loadgen import Child, Server, closed_loop, measure_setup, percentile

SERVICE = ("analyze_large", "analyze_small", "edit_stream")
LIBRARY = ("batch_small", "batch_large", "dataflow")

#: Items per ``run_batch`` call: about a second of work at the seed; for
#: ``batch_large`` exactly one stratified copy of the pool.
BATCH_CHUNK = {"batch_small": 1024, "batch_large": 16}

#: Share of ``analyze_small`` requests that re-send one of the client's
#: last ``RESEND_WINDOW`` graphs: a fixed memo-hit share at any rate.
RESEND_SHARE = 0.10
RESEND_WINDOW = 100


#: Closed-loop clients per service workload (capped at the CPU count).
#: The server runs Python under one interpreter lock, so on the two
#: CPU-heavy workloads a second client adds lock contention rather than
#: parallel work, and widened the run-to-run spread 1.5-2x in interleaved
#: trials; on ``analyze_small`` the server mostly waits, and two clients
#: overlap those waits.
CLIENTS = {"analyze_large": 1, "analyze_small": 2, "edit_stream": 1}


def clients(workload: str) -> int:
    return min(CLIENTS[workload], os.cpu_count() or 1)


@dataclass
class Request:
    path: str
    body: dict
    #: Extra edges of the graph state this request sees (edit_stream);
    #: ``None`` means the operation's base graph.
    extra: Optional[List[List[str]]] = None
    serial: Optional[int] = None


@dataclass
class Op:
    """One operation: an input graph and the requests it sends."""

    graph: dict
    prefix: str
    requests: List[Request] = field(default_factory=list)
    #: Deltas the operation applies (edit_stream), in order.
    deltas: List[dict] = field(default_factory=list)


def analyze_request(client: int, graph: dict, prefix: str) -> Request:
    return Request("/run_analysis", {"client": f"c{client}", "cfg": {"edges": spelling(graph, prefix)}})


def edit_graph(seed: int, client: int) -> Tuple[dict, str]:
    """Client ``client``'s live edit_stream graph: a 4k-statement pool graph,
    and its node prefix."""
    return load_pool()[POOL_BANDS[0][1] + client], f"s{seed}c{client}_"


def service_streams(workload: str, seed: int, n_clients: int, keys=None) -> List[Iterator[Op]]:
    """One endless, seeded operation stream per client.

    ``keys`` (edit_stream only) are the service's cache keys of each
    client's live graph, returned by the priming ``/run_analysis``.  The
    inputs load here, before any clock starts.
    """
    if workload == "analyze_small":
        from stdlib_corpus import load_corpus

        graphs = load_corpus()
    else:
        graphs = load_pool()
    return [_stream(workload, graphs, seed, c, n_clients, keys) for c in range(n_clients)]


def _stream(workload, graphs, seed, client, n_clients, keys) -> Iterator[Op]:
    rng = random.Random(f"{seed}:{client}")
    if workload == "analyze_large":
        for n, index in enumerate(pool_draws(rng)):
            graph, prefix = graphs[index], f"s{seed}c{client}n{n}_"
            yield Op(graph, prefix, [analyze_request(client, graph, prefix)])
    elif workload == "analyze_small":
        order = list(range(len(graphs)))
        random.Random(seed).shuffle(order)
        history: collections.deque = collections.deque(maxlen=RESEND_WINDOW)
        fresh = itertools.cycle(order[client::n_clients])
        for n in itertools.count():
            if history and rng.random() < RESEND_SHARE:
                yield rng.choice(history)
                continue
            graph, prefix = graphs[next(fresh)], f"s{seed}c{client}n{n}_"
            op = Op(graph, prefix, [analyze_request(client, graph, prefix)])
            history.append(op)
            yield op
    else:
        # edit_stream: one delta pair per operation -- apply, analyze the
        # edited graph, apply the inverse, analyze the restored graph.
        graph, prefix = edit_graph(seed, client)
        sites = edit_sites(graph)
        analyze = analyze_request(client, graph, prefix)
        for serial, escape in enumerate(escapes(rng)):
            pair = edit_pair(graph, prefix, serial, rng, escape, sites)
            edited = pair["extra"]
            apply, inverse = (
                Request(
                    "/apply_delta",
                    {"client": f"c{client}", "key": keys[client], "deltas": [delta]},
                    extra,
                    serial,
                )
                for delta, extra in ((pair["apply"], edited), (pair["inverse"], None))
            )
            reread = Request(analyze.path, analyze.body, edited, serial)
            yield Op(graph, prefix, [apply, reread, inverse, analyze], [pair["apply"], pair["inverse"]])


def library_draws(workload: str, seed: int) -> Iterator[Tuple[dict, str]]:
    """The batch workloads' seeded inputs as ``(graph, prefix)`` pairs.

    ``batch_small`` walks the stdlib corpus, every graph once per pass;
    ``batch_large`` walks relabeled copies of the large pool in stratified
    draws (every 16 draws are the whole pool).
    """
    rng = random.Random(seed)
    if workload == "batch_small":
        from stdlib_corpus import load_corpus

        graphs = load_corpus()
        for n, graph in enumerate(deck_of(graphs, rng)):
            yield graph, f"t{n}_"
    else:
        graphs = load_pool()
        for n, index in enumerate(pool_draws(rng)):
            yield graphs[index], f"i{n}_"


def batch_items(draws) -> List[tuple]:
    """``run_batch`` items for ``(graph, prefix)`` draws: keys and CFG thunks."""
    return [(prefix, lambda g=graph, p=prefix: to_cfg(g, p)) for graph, prefix in draws]


def dataflow_procedures(rng: random.Random):
    """Endless draws from ``standard_corpus()``, the 254-procedure corpus
    shaped like the paper's §4 table, each procedure once per shuffled pass.

    The corpus is the same for every seed and a window walks it in whole
    passes, so the seed's order does not change the work; seeds choose
    the order and the checked sample.
    """
    from repro.synth.corpus import all_procedures, standard_corpus

    return deck_of(all_procedures(standard_corpus()), rng)


def fresh_procedure(source):
    """``source`` over a fresh copy of its CFG, so no snapshot or PST cached
    for an earlier operation on the same procedure is reused."""
    from repro.ir import LoweredProcedure

    return LoweredProcedure(source.name, source.cfg.copy(), source.blocks)


def dataflow_wrong(proc, reaching, sparse: dict) -> bool:
    """Whether a dataflow operation's solutions differ from
    ``solve_iterative_reference``: ``reaching`` for full reaching
    definitions, ``sparse`` (variable -> ``solve_qpg`` result) per variable."""
    from repro.dataflow import ReachingDefinitions, VariableReachingDefs
    from repro.dataflow.iterative import solve_iterative_reference

    if reaching != solve_iterative_reference(proc.cfg, ReachingDefinitions(proc)):
        return True
    return any(
        result.solution != solve_iterative_reference(proc.cfg, VariableReachingDefs(proc, var))
        for var, result in sparse.items()
    )


# ----------------------------------------------------------------------
# checks
# ----------------------------------------------------------------------

def send(conn, request: Request, op: Op) -> dict:
    """POST one request of ``op``; return its record for checks and metrics."""
    status, body, t0, seconds = conn.post(request.path, json.dumps(request.body).encode())
    return {
        "path": request.path,
        "status": status,
        "t0": t0,
        "seconds": seconds,
        "body": body,
        "request": request,
        "op": op,
    }


def expected_states(records: List[dict]) -> List[dict]:
    """Attach each record's expected answer, rebuilt from a shadow graph.

    A state is the operation's base graph plus the extra edges of the
    delta applied at that point; each distinct state is rebuilt from its
    edge list and analysed once by the reference implementations.
    """
    from repro.cfg.builder import cfg_from_edges

    cache: Dict[tuple, tuple] = {}
    for rec in records:
        request: Request = rec["request"]
        graph, prefix = rec["op"].graph, rec["op"].prefix
        state = (id(graph), prefix, request.serial if request.extra is not None else None)
        if state not in cache:
            if request.extra is None:
                cache[state] = (graph["expected"], [len(graph["nodes"]), len(graph["edges"])])
            else:
                cfg = cfg_from_edges(spelling(graph, prefix) + request.extra, validate=False)
                cache[state] = (expected_summary(cfg), [cfg.num_nodes, cfg.num_edges])
        rec["expected"], rec["size"] = cache[state]
    return records


def record_failed(rec: dict) -> bool:
    """A request fails unless it answers 200 with the expected body."""
    body = rec["body"]
    if rec["status"] != 200 or not isinstance(body, dict) or not body.get("ok"):
        return True
    graph = body.get("graph") or {}
    if [graph.get("nodes"), graph.get("edges")] != rec["size"]:
        return True
    if rec["path"] == "/apply_delta":
        return body.get("applied") != 1 or (body.get("pst") or {}).get("regions") != rec["expected"][0]
    return body_summary(body) != rec["expected"]


# ----------------------------------------------------------------------
# timed runs
# ----------------------------------------------------------------------

def prime_edit_graphs(seed: int, conns) -> Tuple[List[str], List[dict]]:
    """Create each client's live graph on the server; return keys and records."""
    keys, records = [], []
    for client, conn in enumerate(conns):
        graph, prefix = edit_graph(seed, client)
        request = analyze_request(client, graph, prefix)
        rec = send(conn, request, Op(graph, prefix, [request]))
        records.append(rec)
        keys.append((rec["body"] or {}).get("key", ""))
    return keys, records


def run_service(workload: str, seed: int, seconds: float, warmup: float) -> dict:
    server, setup_s = measure_setup(Server)
    try:
        conns = [server.connect() for _ in range(clients(workload))]
        try:
            keys, primed = prime_edit_graphs(seed, conns) if workload == "edit_stream" else (None, [])
            streams = service_streams(workload, seed, len(conns), keys)

            def step(client: int, n: int) -> List[dict]:
                op = next(streams[client])
                return [send(conns[client], request, op) for request in op.requests]

            window, window_s = closed_loop(len(conns), step, warmup, seconds)
        finally:
            for conn in conns:
                conn.close()
        rss = server.peak_rss_mb()
    finally:
        server.stop()
    checked = expected_states(window + primed)
    failed = sum(record_failed(r) for r in checked)
    analyze = [r["seconds"] * 1000.0 for r in window if r["path"] == "/run_analysis"]
    edits = [r["seconds"] * 1000.0 for r in window if r["path"] == "/apply_delta"]
    notes = {
        "requests": len(window),
        "latency_samples": len(analyze),
        "memo_hits": sum(1 for r in window if (r["body"] or {}).get("cached")),
        "shed": sum(1 for r in window if r["status"] in (429, 503)),
    }
    if edits:
        notes["edit_latency_p50_ms"] = percentile(edits, 50)
        notes["edit_latency_p90_ms"] = percentile(edits, 90)
    notes.update(tail_note(analyze))
    return {
        "metrics": {
            "setup_s": setup_s,
            "ops_per_s": len(window) / window_s,
            "latency_p50_ms": percentile(analyze, 50),
            "peak_rss_mb": rss,
        },
        "attempted": len(checked),
        "failed": failed,
        "notes": notes,
    }


def run_library(workload: str, seed: int, seconds: float, warmup: float) -> dict:
    child, setup_s = measure_setup(lambda: Child(workload))
    # Room for the input build, warm-up, the window and the checks after it.
    result = child.run({"seed": seed, "seconds": seconds, "warmup": warmup}, timeout=60 + 3 * seconds)
    latencies = result["latencies_ms"]
    return {
        "metrics": {
            "setup_s": setup_s,
            "ops_per_s": result["ops"] / result["wall_s"],
            "latency_p50_ms": percentile(latencies, 50),
            "peak_rss_mb": result["peak_rss_mb"],
        },
        "attempted": result["attempted"],
        "failed": result["failed"],
        "notes": {"latency_samples": len(latencies), **result["notes"], **tail_note(latencies)},
    }


def tail_note(latencies_ms: List[float]) -> Dict[str, float]:
    """p90 and p99, each printed where at least ten samples lie beyond it.

    Neither is an end-to-end metric: the tail follows the host's speed
    spells more than the median does, and in ten-run series p90 spread
    beyond the largest bound on five of the six workloads.
    """
    return {
        f"latency_p{q}_ms": percentile(latencies_ms, q)
        for q in (90, 99)
        if len(latencies_ms) * (100 - q) >= 10 * 100
    }


def run_workload(workload: str, seed: int, seconds: float, warmup: float) -> dict:
    if workload in SERVICE:
        return run_service(workload, seed, seconds, warmup)
    return run_library(workload, seed, seconds, warmup)
