"""The traced run: each workload's operations, timed layer by layer.

``run.py --trace 1`` replays a fixed count of a workload's seeded
operations (fewer if ``--seconds`` runs out) with one client.  Every
operation gets a root span and a trace id; under it the benchmark times,
from outside, the public calls that operation implies:

* ``analyze_large``, ``analyze_small``: the HTTP round trip to a ``repro
  serve`` child, then in-process on the same graph ``cfg_from_edges``,
  ``shared_frozen``, ``check_cfg``, the four kernels
  (``cycle_equivalence_of_cfg``, ``build_pst``, ``lengauer_tarjan``,
  ``control_regions``), and ``run_analysis`` untraced and again under
  ``Observer(trace=True)``, whose spans nest under the benchmark's span
  as a cross-check;
* ``edit_stream``: the same for each ``/run_analysis`` of the operation,
  on the graph state it saw, plus ``EditSession.apply`` for its deltas;
* ``batch_small``, ``batch_large``: the in-process chain above for one
  batch item, and after the operations one ``run_batch`` call as the
  timed run makes it;
* ``dataflow``: ``shared_frozen``, cycle equivalence and ``build_pst``
  for the procedure, ``solve_iterative`` on full reaching definitions,
  and ``build_qpg`` and ``solve_qpg`` for every variable.

A layer a workload does not call reports what was measured: no calls and
0 ms.  Residual rows (``service.transport``, ``service.handler``,
``engine.checks``) are derived from the spans, and ``unattributed`` is
operation time no top-level span covers.  Spans go to JSONL; one layer
table per workload goes to standard output.
"""

from __future__ import annotations

import itertools
import os
import random
import time
from typing import Dict, List

from inputs import cache_dir, spelling
from loadgen import Server
from workloads import (
    BATCH_CHUNK,
    SERVICE,
    Op,
    batch_items,
    dataflow_procedures,
    dataflow_wrong,
    expected_states,
    fresh_procedure,
    library_draws,
    prime_edit_graphs,
    record_failed,
    send,
    service_streams,
)

#: Operations replayed per traced run (fewer, but at least one, when
#: ``--seconds`` runs out).
TRACE_OPS = {
    "analyze_large": 5,
    "analyze_small": 150,
    "edit_stream": 5,
    "batch_small": 150,
    "batch_large": 5,
    "dataflow": 150,
}


def trace_workload(workload: str, seed: int, seconds: float) -> dict:
    """Replay ``workload`` traced; return per-layer metrics and the table."""
    from repro.obs.trace import TraceRecorder

    recorder = TraceRecorder()
    tally = Tally()

    def replay_all(ops, replay_one) -> None:
        # One untraced operation first: lazy imports and first-call set-up
        # land there, not in the first traced operation.
        replay_one(TraceRecorder(), Tally(), next(ops))
        deadline = time.perf_counter() + seconds
        for n, op in enumerate(ops):
            if n >= TRACE_OPS[workload] or (n and time.perf_counter() > deadline):
                break
            recorder.trace_id = f"{workload}:{seed}:{n}"
            replay_one(recorder, tally, op)

    if workload in SERVICE:
        server = Server()
        try:
            conn = server.connect()
            try:
                keys, primed = (
                    prime_edit_graphs(seed, [conn]) if workload == "edit_stream" else (None, [])
                )
                tally.failed += sum(record_failed(r) for r in expected_states(primed))
                ops = service_streams(workload, seed, 1, keys)[0]
                replay_all(ops, lambda rec, tal, op: replay(rec, tal, op, conn))
            finally:
                conn.close()
        finally:
            server.stop()
    elif workload == "dataflow":
        replay_all(dataflow_procedures(random.Random(seed)), replay_dataflow)
    else:
        draws = library_draws(workload, seed)
        replay_all((Op(graph, prefix) for graph, prefix in draws), replay)
        recorder.trace_id = f"{workload}:{seed}:batch"
        trace_batch(recorder, tally, batch_items(itertools.islice(draws, BATCH_CHUNK[workload])))

    spans_path = os.path.join(cache_dir(), f"spans-{workload}-{seed}.jsonl")
    with open(spans_path, "w") as handle:
        recorder.write_jsonl(handle)
    for line in tally.table(workload):
        print(line)
    return {
        "metrics": tally.metrics(),
        "attempted": tally.ops + tally.batch_items,
        "failed": tally.failed,
        "notes": {"ops": tally.ops, "batch_items": tally.batch_items, "spans": spans_path},
    }


def analyze_in_process(recorder, edges):
    """The in-process chain of one analysis: build, freeze, validate, the
    four kernels, ``run_analysis`` untraced and traced.

    Returns the three answers' summaries, ``check_cfg``'s problems and the
    untraced ``run_analysis`` result.
    """
    from repro import AnalysisConfig, Observer, control_regions, run_analysis
    from repro.cfg.builder import cfg_from_edges
    from repro.cfg.validate import check_cfg
    from repro.core.cycle_equiv import cycle_equivalence_of_cfg
    from repro.core.pst import build_pst
    from repro.dominance.lengauer_tarjan import lengauer_tarjan
    from repro.kernel.registry import shared_frozen

    span = recorder.start
    with span("cfg.build"):
        cfg = cfg_from_edges(edges, validate=False)
    # check_cfg freezes the graph itself, so the freeze is timed first.
    with span("kernel.freeze"):
        shared_frozen(cfg)
    with span("cfg.validate"):
        problems = check_cfg(cfg)
    with span("kernel.cycle_equiv"):
        equiv = cycle_equivalence_of_cfg(cfg, validate=False)
    with span("kernel.build_pst"):
        pst = build_pst(cfg, equiv)
    with span("kernel.lengauer_tarjan"):
        idom = lengauer_tarjan(cfg)
    with span("kernel.control_regions"):
        groups = control_regions(cfg, validate=False)
    with span("engine.run"):
        result = run_analysis(cfg)
    observer = Observer(trace=True, metrics=False)
    with span("engine.run_traced"):
        traced = run_analysis(cfg, config=AnalysisConfig(observer=observer))
        recorder.absorb(observer.recorder.records)
    summaries = [[len(pst.canonical_regions()), len(idom), len(groups)]] + [
        [len(r.pst.canonical_regions()), len(r.idom), len(r.control_regions)] if r.ok else None
        for r in (result, traced)
    ]
    return summaries, problems, result


def replay(recorder, tally: "Tally", op: Op, conn=None) -> None:
    """One traced service or batch-item operation."""
    from repro import EditSession
    from repro.cfg.builder import cfg_from_edges

    edges = spelling(op.graph, op.prefix)
    # A batch item is one analysis of its graph; a service operation runs
    # one per /run_analysis request, on the graph state that request saw.
    states = [r.extra for r in op.requests if r.path == "/run_analysis"] or [None]
    first = len(recorder.records)
    records, analyses, stats = [], [], None
    with recorder.start("op") as root:
        for request in op.requests:
            with recorder.start("service.round_trip", path=request.path):
                records.append(send(conn, request, op))
        for extra in states:
            analyses.append(analyze_in_process(recorder, edges + (extra or [])))
        if op.deltas:
            with recorder.start("incremental.session"):
                session = EditSession(cfg_from_edges(edges, validate=False))
            for delta in op.deltas:
                with recorder.start("incremental.apply"):
                    session.apply(delta)
            stats = session.stats

    checked = expected_states(records)
    answers = [r["expected"] for r in checked if r["path"] == "/run_analysis"] or [
        op.graph["expected"]
    ]
    wrong = any(record_failed(r) for r in checked)
    for (summaries, problems, _), expected in zip(analyses, answers):
        wrong = wrong or bool(problems) or any(s != expected for s in summaries)
    if stats is not None:
        wrong = wrong or len(session.pst.canonical_regions()) != op.graph["expected"][0]
    tally.add_op(
        recorder.records[first:], root.span_id, records, [a[2] for a in analyses], stats, wrong
    )


def replay_dataflow(recorder, tally: "Tally", source) -> None:
    """One traced dataflow operation: one procedure of the corpus."""
    from repro.core.cycle_equiv import cycle_equivalence_of_cfg
    from repro.core.pst import build_pst
    from repro.dataflow import (
        ReachingDefinitions,
        VariableReachingDefs,
        build_qpg,
        solve_iterative,
        solve_qpg,
    )
    from repro.kernel.registry import shared_frozen

    span = recorder.start
    first = len(recorder.records)
    sparse = {}
    with span("op") as root:
        with span("dataflow.problems"):
            proc = fresh_procedure(source)
            cfg = proc.cfg
            reaching_problem = ReachingDefinitions(proc)
            problems = {v: VariableReachingDefs(proc, v) for v in proc.variables()}
        with span("kernel.freeze"):
            shared_frozen(cfg)
        with span("kernel.cycle_equiv"):
            equiv = cycle_equivalence_of_cfg(cfg, validate=False)
        with span("kernel.build_pst"):
            pst = build_pst(cfg, equiv)
        with span("dataflow.iterative"):
            reaching = solve_iterative(cfg, reaching_problem)
        for var, problem in problems.items():
            with span("dataflow.qpg_build"):
                qpg = build_qpg(cfg, problem, pst)[0]
            with span("dataflow.qpg_solve"):
                sparse[var] = solve_qpg(cfg, problem, pst)
            tally.qpg_nodes += qpg.num_nodes
            tally.qpg_cfg_nodes += cfg.num_nodes
    tally.add_op(recorder.records[first:], root.span_id, [], [], None,
                 dataflow_wrong(proc, reaching, sparse))


def trace_batch(recorder, tally: "Tally", items: list) -> None:
    """One ``run_batch`` call, as the timed run makes it."""
    from repro import AnalysisConfig, run_batch

    workers = os.cpu_count() or 1
    with recorder.start("batch.run_batch", items=len(items), workers=workers):
        started = time.perf_counter()
        report = run_batch(items, config=AnalysisConfig(workers=workers))
        tally.batch_wall += time.perf_counter() - started
    tally.workers = workers
    tally.batch_items += len(report.results)
    tally.batch_item_s += sum(r.elapsed for r in report.results)
    tally.failed += sum(1 for r in report.results if r.status != "ok")


class Tally:
    """Accumulates per-layer sums over a traced run."""

    #: Top-level spans under an operation root, in table order.
    ROWS = (
        "service.round_trip",
        "dataflow.problems",
        "cfg.build",
        "kernel.freeze",
        "cfg.validate",
        "kernel.cycle_equiv",
        "kernel.build_pst",
        "kernel.lengauer_tarjan",
        "kernel.control_regions",
        "engine.run",
        "engine.run_traced",
        "dataflow.iterative",
        "dataflow.qpg_build",
        "dataflow.qpg_solve",
        "incremental.session",
        "incremental.apply",
    )
    #: Rows ``run_analysis`` repeats inside itself; the rest of it is checks.
    ENGINE_PARTS = (
        "cfg.validate",
        "kernel.cycle_equiv",
        "kernel.build_pst",
        "kernel.lengauer_tarjan",
        "kernel.control_regions",
    )

    def __init__(self) -> None:
        self.ops = 0
        self.failed = 0
        self.op_s = 0.0
        self.rows: Dict[str, float] = {name: 0.0 for name in self.ROWS}
        self.calls: Dict[str, int] = {name: 0 for name in self.ROWS}
        self.requests = 0
        self.transport_s = 0.0
        self.analyze_requests = 0
        self.handler_s = 0.0
        self.server_engine_s = 0.0
        self.server_cfg_s = 0.0
        self.server_edit_s = 0.0
        self.cache_hits = 0
        self.shed = 0
        self.attempts = 0
        self.stages = 0
        self.edits: Dict[str, int] = {}
        self.qpg_nodes = 0
        self.qpg_cfg_nodes = 0
        self.workers = 0
        self.batch_wall = 0.0
        self.batch_items = 0
        self.batch_item_s = 0.0

    def add_op(self, spans: List[dict], root: int, records, results, edit_stats, wrong: bool) -> None:
        """Fold one operation's spans, responses and engine/edit counters in."""
        self.ops += 1
        self.failed += wrong
        builds = []
        for r in spans:
            if r["span"] == root:
                self.op_s += r["elapsed"]
            elif r["parent"] == root:
                self.rows[r["name"]] += r["elapsed"]
                self.calls[r["name"]] += 1
                if r["name"] == "cfg.build":
                    builds.append(r["elapsed"])
        builds = iter(builds)
        for rec in records:
            self.requests += 1
            body = rec["body"] if isinstance(rec["body"], dict) else {}
            if rec["status"] in (429, 503):
                self.shed += 1
            server_s = body.get("elapsed")
            if rec["path"] == "/run_analysis":
                # The server rebuilds the spelling on every request; the
                # in-process cfg_from_edges of the same state stands in for it.
                build = next(builds)
            if server_s is None:
                continue
            self.transport_s += rec["seconds"] - server_s
            if rec["path"] == "/apply_delta":
                self.server_edit_s += server_s
                continue
            self.analyze_requests += 1
            attempts = 0.0 if body.get("cached") else sum(a["elapsed"] for a in body.get("attempts", []))
            self.cache_hits += bool(body.get("cached"))
            self.server_engine_s += attempts
            self.server_cfg_s += build
            self.handler_s += server_s - attempts - build
        for result in results:
            stage_attempts = [a for a in result.diagnostic.attempts if a.stage != "validate"]
            self.attempts += len(stage_attempts)
            self.stages += len({a.stage for a in stage_attempts})
        if edit_stats is not None:
            for name, value in edit_stats.as_dict().items():
                self.edits[name] = self.edits.get(name, 0) + value

    def _checks_s(self) -> float:
        if not self.calls["engine.run"]:
            return 0.0
        return self.rows["engine.run"] - sum(self.rows[name] for name in self.ENGINE_PARTS)

    def unattributed_s(self) -> float:
        return self.op_s - sum(self.rows.values())

    def per_call_ms(self, name: str) -> float:
        return 1000.0 * self.rows[name] / max(1, self.calls[name])

    def metrics(self) -> Dict[str, float]:
        applied = self.edits.get("deltas_applied", 0)
        capacity = self.batch_wall * self.workers
        return {
            "service.transport_ms": 1000.0 * self.transport_s / max(1, self.requests),
            "service.handler_ms": 1000.0 * self.handler_s / max(1, self.analyze_requests),
            "service.cache_hit_ratio": self.cache_hits / max(1, self.analyze_requests),
            "service.shed": self.shed,
            "cfg.build_ms": self.per_call_ms("cfg.build"),
            "cfg.validate_ms": self.per_call_ms("cfg.validate"),
            "kernel.freeze_ms": self.per_call_ms("kernel.freeze"),
            "kernel.cycle_equiv_ms": self.per_call_ms("kernel.cycle_equiv"),
            "kernel.build_pst_ms": self.per_call_ms("kernel.build_pst"),
            "kernel.lengauer_tarjan_ms": self.per_call_ms("kernel.lengauer_tarjan"),
            "kernel.control_regions_ms": self.per_call_ms("kernel.control_regions"),
            "engine.run_ms": self.per_call_ms("engine.run"),
            "engine.checks_ms": 1000.0 * self._checks_s() / max(1, self.calls["engine.run"]),
            "engine.attempts_per_stage": self.attempts / max(1, self.stages),
            "incremental.apply_ms": self.per_call_ms("incremental.apply"),
            "incremental.splice_ratio": self.edits.get("splices", 0) / max(1, applied),
            "incremental.full_recomputes": self.edits.get("full_recomputes", 0),
            "incremental.region_escapes": self.edits.get("region_escapes", 0),
            "incremental.oversize_regions": self.edits.get("oversize_regions", 0),
            "batch.item_engine_ms": 1000.0 * self.batch_item_s / max(1, self.batch_items),
            "batch.overhead_ms": 1000.0 * (capacity - self.batch_item_s) / max(1, self.batch_items),
            "batch.parallel_efficiency": self.batch_item_s / capacity if capacity else 0.0,
            "dataflow.iterative_ms": self.per_call_ms("dataflow.iterative"),
            "dataflow.qpg_build_ms": self.per_call_ms("dataflow.qpg_build"),
            "dataflow.qpg_solve_ms": self.per_call_ms("dataflow.qpg_solve"),
            "dataflow.qpg_node_ratio": self.qpg_nodes / max(1, self.qpg_cfg_nodes),
            "trace.unattributed_ms": 1000.0 * self.unattributed_s() / max(1, self.ops),
            "trace.overhead_ratio": self.rows["engine.run_traced"] / self.rows["engine.run"]
            if self.rows["engine.run"]
            else 0.0,
        }

    def table(self, workload: str) -> List[str]:
        """The layer table: top-level rows, residual sub-rows, unattributed."""
        ops = max(1, self.ops)
        total = self.op_s or 1.0
        lines = [
            f"# layer table: {workload}, {self.ops} traced operations, "
            f"{1000.0 * self.op_s / ops:.3f} ms per operation",
            f"# {'row':34s} {'calls':>6s} {'total_ms':>11s} {'ms/op':>10s} {'share':>7s}",
        ]

        def row(name: str, seconds: float, calls="", indent: str = "") -> None:
            lines.append(
                f"# {indent + name:34s} {calls!s:>6s} {1000.0 * seconds:11.3f} "
                f"{1000.0 * seconds / ops:10.3f} {100.0 * seconds / total:6.2f}%"
            )

        for name in self.ROWS:
            if not self.calls[name]:
                continue
            row(name, self.rows[name], self.calls[name])
            if name == "service.round_trip":
                row("service.transport", self.transport_s, indent="  ")
                row("service.handler", self.handler_s, indent="  ")
                row("service.engine_attempts", self.server_engine_s, indent="  ")
                row("service.cfg_build", self.server_cfg_s, indent="  ")
                row("service.apply_delta", self.server_edit_s, indent="  ")
            elif name == "engine.run":
                row("engine.checks", self._checks_s(), indent="  ")
        row("unattributed", self.unattributed_s())
        if self.batch_items:
            lines.append(
                f"# batch: {self.batch_items} items in {1000.0 * self.batch_wall:.3f} ms "
                f"(item engine {1000.0 * self.batch_item_s:.3f} ms)"
            )
        return lines
