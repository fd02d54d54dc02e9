"""Command-line interface: run the paper's analyses on MiniLang sources.

Usage (also via ``python -m repro``)::

    python -m repro program.mini                # summary of every procedure
    python -m repro program.mini --pst          # print the PST
    python -m repro program.mini --regions      # canonical SESE regions
    python -m repro program.mini --control-regions
    python -m repro program.mini --ssa          # SSA form (PST φ-placement)
    python -m repro program.mini --dot          # CFG as Graphviz DOT
    python -m repro program.mini --proc name    # restrict to one procedure

With ``-`` as the file name, source is read from stdin.

The ``fuzz`` subcommand runs the differential fuzzing harness (see
:mod:`repro.fuzz` and ``docs/TESTING.md``)::

    python -m repro fuzz --seed 0 --count 500   # a full campaign
    python -m repro fuzz --oracle dominators/matrix --budget 10
    python -m repro fuzz --count 1000 --fail-fast

The ``batch`` subcommand runs the resilient analysis engine over a corpus
of source files with per-item isolation and JSONL checkpoint/resume (see
:mod:`repro.resilience.batch` and ``docs/ROBUSTNESS.md``)::

    python -m repro batch corpus/*.mini --checkpoint run.jsonl

The ``bench`` subcommand times the array kernels against their
object-graph references and writes machine-readable JSON under
``benchmarks/results/`` (see :mod:`repro.analysis.bench` and
``docs/PERFORMANCE.md``)::

    python -m repro bench --sizes 500 2000
    python -m repro bench --check benchmarks/results/perf_smoke_baseline.json

The ``trace`` subcommand runs the guarded engine with a full
:class:`~repro.obs.observer.Observer` attached and emits the trace as JSONL
(see :mod:`repro.obs` and ``docs/OBSERVABILITY.md``)::

    python -m repro trace program.mini --out run.jsonl
    python -m repro trace --synth-seed 0 --synth-size 40 --render
    python -m repro trace --check run.jsonl     # validate against the schema
    python -m repro trace --aggregate run.jsonl other.jsonl --render
    python -m repro trace --check-linearity a.jsonl b.jsonl c.jsonl

``--aggregate`` computes per-span-name latency statistics and critical
paths over one or many recorded traces; ``--check-linearity`` fits a
log-log duration-vs-size exponent per analysis phase (spans carry
``n_nodes``/``n_edges`` attributes) and fails with exit 3 when any phase
scales worse than ``--max-exponent`` (default 1.3) -- the paper's O(E)
claim as a continuously enforceable gate.

The ``metrics`` subcommand turns the metric dumps embedded in trace files
into Prometheus text exposition (format 0.0.4)::

    python -m repro metrics render run.jsonl          # print exposition
    python -m repro metrics lint exposition.txt       # format lint
    python -m repro metrics serve run.jsonl --port 0  # stdlib HTTP exporter

The ``serve`` subcommand runs the admission-controlled analysis service
(JSON over HTTP, stdlib only; see :mod:`repro.service` and
``docs/ROBUSTNESS.md``), and ``soak`` its deterministic chaos harness.
Besides ``/run_analysis`` and ``/run_batch`` the service exposes
``POST /apply_delta``: incremental CFG edits against a per-client live
:class:`~repro.incremental.EditSession` (see ``docs/INCREMENTAL.md``);
the soak mixes edits into its workload at ``--edit-rate``::

    python -m repro serve --port 8014 --rate 200 --max-inflight 16
    python -m repro soak --duration 60 --clients 8 --seed 0 --edit-rate 0.25 \
        --out soak.json --update-bench benchmarks/results/BENCH_perf.json

Exit codes (all commands; a multi-procedure run reports the worst):

====  ==============================================================
0     success
1     parse/lowering diagnostics, no such procedure, fuzz divergence,
      trace schema violations, exposition lint problems
2     usage or I/O errors (unreadable file, bad flag value, a batch
      checkpoint written by a newer format version)
3     a declared budget was exceeded: a procedure's CFG violates
      Definition 1 (invalid CFG), ``bench --check`` measured a perf
      ratio over its regression budget, ``bench --slo`` found a p99
      over its band budget, or ``trace --check-linearity`` fitted a
      scaling exponent over --max-exponent
4     analysis failure: internal error, guard trip, or divergence
      detected while analyzing a valid CFG; batch items failed; a
      chaos soak's assertions failed
5     request shed by admission control (HTTP 429/503; the
      ``service.shed`` taxonomy)
6     request refused because the server is draining (HTTP 503)
====  ==============================================================

Analysis errors never surface as raw tracebacks: each procedure is
isolated, and failures print one structured ``error[...]`` line naming the
procedure and the failure class.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.cfg.dot import cfg_to_dot, pst_to_dot
from repro.cfg.graph import InvalidCFGError
from repro.core.region_kinds import classify_pst
from repro.kernel.session import session_for
from repro.errors import (
    EXIT_ANALYSIS_FAILED,
    EXIT_BUDGET_EXCEEDED,
    EXIT_DIAGNOSTICS,
    EXIT_OK,
    EXIT_USAGE_IO,
    AnalysisError,
    ReproError,
    ResourceExhausted,
    exit_code_for,
)
from repro.ir import LoweredProcedure
from repro.lang import lower_program, parse_program
from repro.ssa.pst_phi import place_phis_pst
from repro.ssa.rename import construct_ssa
from repro.ssa.verify import verify_ssa

# Historical alias: an invalid CFG is the "budget" of Definition 1 being
# exceeded; both spellings map to the same documented exit code 3.
EXIT_INVALID_CFG = EXIT_BUDGET_EXCEEDED


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Program Structure Tree analyses (Johnson, Pearson & Pingali, PLDI 1994)",
    )
    parser.add_argument("source", help="MiniLang source file, or '-' for stdin")
    parser.add_argument("--proc", help="analyze only the procedure with this name")
    parser.add_argument("--pst", action="store_true", help="print the program structure tree")
    parser.add_argument("--regions", action="store_true", help="list canonical SESE regions")
    parser.add_argument(
        "--control-regions", action="store_true", help="print control regions (O(E) algorithm)"
    )
    parser.add_argument("--ssa", action="store_true", help="print the SSA form")
    parser.add_argument("--dot", action="store_true", help="print the CFG in Graphviz DOT")
    return parser


def build_fuzz_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro fuzz",
        description="Differential fuzzing: cross-check every fast/slow algorithm pair",
    )
    parser.add_argument("--seed", type=int, default=0, help="base seed (case i uses seed+i)")
    parser.add_argument("--count", type=int, default=100, help="number of CFGs to generate")
    parser.add_argument("--size", type=int, default=10, help="approximate interior node budget")
    parser.add_argument(
        "--budget", type=float, default=None, metavar="SECONDS",
        help="stop the campaign early after this many seconds",
    )
    parser.add_argument(
        "--oracle", action="append", default=None, metavar="NAME",
        help="restrict to one oracle (repeatable); see --list-oracles",
    )
    parser.add_argument(
        "--list-oracles", action="store_true", help="list oracle names and exit"
    )
    parser.add_argument(
        "--emit-tests", metavar="PATH", default=None,
        help="append shrunk regression tests for any divergences to PATH",
    )
    parser.add_argument(
        "--fail-fast", action="store_true",
        help="stop the campaign at the first diverging case",
    )
    return parser


def build_batch_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro batch",
        description="Resilient corpus run: analyze every procedure of every "
        "file through the guarded engine, with per-item isolation, retries, "
        "and JSONL checkpoint/resume",
    )
    parser.add_argument("sources", nargs="+", help="MiniLang source files")
    parser.add_argument(
        "--checkpoint", metavar="PATH", default=None,
        help="JSONL checkpoint file: completed items are appended and "
        "skipped on re-runs",
    )
    parser.add_argument(
        "--no-resume", action="store_true",
        help="ignore (and truncate) an existing checkpoint instead of resuming",
    )
    parser.add_argument(
        "--retries", type=int, default=1,
        help="extra batch-level tries for failed items (default 1)",
    )
    parser.add_argument(
        "--backoff", type=float, default=0.05, metavar="SECONDS",
        help="initial backoff between retries, doubled each time (default 0.05)",
    )
    parser.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="per-item wall-clock deadline forwarded to the engine",
    )
    parser.add_argument(
        "--step-budget", type=int, default=None, metavar="STEPS",
        help="per-attempt step budget forwarded to the engine",
    )
    parser.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="analyze items on N worker processes (default 1: serial)",
    )
    parser.add_argument(
        "--trace", metavar="PATH", default=None,
        help="record the batch under an observer and write the merged "
        "trace (spans + metrics footers) as JSONL here; with --workers, "
        "worker shards are stitched under the batch span",
    )
    return parser


def build_trace_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro trace",
        description="Run the guarded engine with tracing + metrics attached "
        "and emit the trace as JSONL (one trace per procedure), or validate "
        "an existing trace file against docs/trace_schema.json",
    )
    parser.add_argument(
        "source", nargs="?", default=None,
        help="MiniLang source file, or '-' for stdin (omit with --synth-seed "
        "or --check)",
    )
    parser.add_argument("--proc", help="trace only the procedure with this name")
    parser.add_argument(
        "--synth-seed", type=int, default=None, metavar="SEED",
        help="trace a synthetic procedure generated from SEED instead of a file",
    )
    parser.add_argument(
        "--synth-size", type=int, default=30, metavar="STATEMENTS",
        help="target statement count for --synth-seed (default 30)",
    )
    parser.add_argument(
        "--out", metavar="PATH", default=None,
        help="write the JSONL trace here (default: stdout)",
    )
    parser.add_argument(
        "--render", action="store_true",
        help="print the indented span tree instead of raw JSONL",
    )
    parser.add_argument(
        "--check", metavar="PATH", default=None,
        help="validate an existing JSONL trace file against the schema and exit",
    )
    parser.add_argument(
        "--schema", metavar="PATH", default=None,
        help="schema to validate against (default: docs/trace_schema.json)",
    )
    parser.add_argument(
        "--aggregate", nargs="+", metavar="PATH", default=None,
        help="aggregate one or more recorded trace files: per-span-name "
        "latency stats and critical paths, as JSONL (or a table with "
        "--render)",
    )
    parser.add_argument(
        "--check-linearity", nargs="+", metavar="PATH", default=None,
        dest="check_linearity",
        help="fit duration-vs-size exponents per analysis phase over the "
        "given trace files; exit 3 if any exceeds --max-exponent",
    )
    parser.add_argument(
        "--max-exponent", type=float, default=None, metavar="X",
        help="scaling-exponent budget for --check-linearity (default 1.3)",
    )
    parser.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="per-procedure engine deadline",
    )
    parser.add_argument(
        "--step-budget", type=int, default=None, metavar="STEPS",
        help="per-attempt engine step budget",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="arm per-phase ticker timers (attached to attempt spans)",
    )
    return parser


def trace_main(argv: List[str], out) -> int:
    from repro.config import AnalysisConfig
    from repro.obs.observer import Observer
    from repro.obs.schema import default_schema_path, load_schema, validate_trace
    from repro.obs.trace import read_jsonl, render_trace
    from repro.resilience.engine import run_analysis

    args = build_trace_arg_parser().parse_args(argv)

    # --- aggregate / linearity modes: analytics over recorded traces ------
    if args.aggregate is not None or args.check_linearity is not None:
        import json as _json

        from repro.obs.aggregate import (
            MAX_EXPONENT,
            aggregate_spans,
            critical_paths,
            fit_linearity,
            linearity_violations,
            render_aggregate,
            render_linearity,
        )

        paths = args.aggregate if args.aggregate is not None else args.check_linearity
        record_lists = []
        try:
            for path in paths:
                with open(path) as handle:
                    record_lists.append(read_jsonl(handle))
        except (OSError, ValueError) as error:
            print(f"error: {error}", file=sys.stderr)
            return EXIT_USAGE_IO
        if args.check_linearity is not None:
            budget = args.max_exponent if args.max_exponent is not None else MAX_EXPONENT
            fits = fit_linearity(record_lists)
            if args.render:
                print(render_linearity(fits, budget), file=out)
            else:
                for fit in fits:
                    print(_json.dumps(fit, sort_keys=True), file=out)
            violations = linearity_violations(fits, budget)
            if violations:
                names = ", ".join(str(v["name"]) for v in violations)
                print(
                    f"linearity budget exceeded (> {budget:g}): {names}",
                    file=sys.stderr,
                )
                return EXIT_BUDGET_EXCEEDED
            return EXIT_OK
        aggregates = aggregate_spans(record_lists)
        chains = critical_paths(record_lists)
        if args.render:
            print(render_aggregate(aggregates, chains), file=out)
        else:
            for record in aggregates + chains:
                print(_json.dumps(record, sort_keys=True), file=out)
        return EXIT_OK

    # --- check mode: validate an existing trace file ----------------------
    if args.check is not None:
        try:
            schema = load_schema(args.schema or default_schema_path())
            with open(args.check) as handle:
                records = read_jsonl(handle)
        except (OSError, ValueError) as error:
            print(f"error: {error}", file=sys.stderr)
            return EXIT_USAGE_IO
        problems = validate_trace(records, schema)
        if problems:
            for problem in problems:
                print(f"schema violation: {problem}", file=out)
            print(f"{args.check}: {len(problems)} problem(s)", file=out)
            return EXIT_DIAGNOSTICS
        spans = sum(1 for r in records if r.get("type") == "span")
        print(f"{args.check}: valid ({spans} span(s))", file=out)
        return EXIT_OK

    # --- record mode: run the engine under an observer --------------------
    try:
        config = AnalysisConfig(deadline=args.deadline, step_budget=args.step_budget)
    except ValueError as error:
        return _bad_flag(error)
    if (args.source is None) == (args.synth_seed is None):
        print(
            "error: give exactly one of a source file or --synth-seed",
            file=sys.stderr,
        )
        return EXIT_USAGE_IO
    if args.synth_seed is not None:
        from repro.synth.structured import random_lowered_procedure

        procedures = [
            random_lowered_procedure(args.synth_seed, args.synth_size)
        ]
    else:
        if args.source == "-":
            source = sys.stdin.read()
        else:
            try:
                with open(args.source) as handle:
                    source = handle.read()
            except OSError as error:
                print(f"error: {error}", file=sys.stderr)
                return EXIT_USAGE_IO
        try:
            procedures = lower_program(parse_program(source))
        except Exception as error:
            print(f"error: {error}", file=sys.stderr)
            return EXIT_DIAGNOSTICS
        if args.proc is not None:
            procedures = [p for p in procedures if p.name == args.proc]
            if not procedures:
                print(f"error: no procedure named {args.proc!r}", file=sys.stderr)
                return EXIT_DIAGNOSTICS

    sink = None
    if args.out is not None:
        try:
            sink = open(args.out, "w")
        except OSError as error:
            print(f"error: {error}", file=sys.stderr)
            return EXIT_USAGE_IO
    worst = EXIT_OK
    try:
        for proc in procedures:
            observer = Observer(profile=args.profile)
            result = run_analysis(
                proc.cfg, config=config.replace(observer=observer)
            )
            if not result.ok:
                print(
                    f"error[analysis]: proc {proc.name}: {result.error}",
                    file=sys.stderr,
                )
                worst = max(worst, EXIT_ANALYSIS_FAILED)
            if args.render:
                records = read_jsonl(observer.recorder.jsonl_lines(
                    observer.metrics_snapshot()
                ))
                print(render_trace(records), file=out)
            else:
                observer.write_jsonl(sink if sink is not None else out)
    finally:
        if sink is not None:
            sink.close()
    return worst


def batch_main(argv: List[str], out) -> int:
    from repro.config import AnalysisConfig
    from repro.obs.observer import Observer
    from repro.resilience.batch import run_batch

    args = build_batch_arg_parser().parse_args(argv)
    observer = Observer() if args.trace is not None else None
    try:
        config = AnalysisConfig(
            retries=args.retries,
            backoff=args.backoff,
            deadline=args.deadline,
            step_budget=args.step_budget,
            workers=args.workers,
            observer=observer,
        )
    except ValueError as error:
        return _bad_flag(error)

    def items():
        for path in args.sources:
            try:
                with open(path) as handle:
                    source = handle.read()
                procedures = lower_program(parse_program(source))
            except Exception as error:
                # The whole file is one failed item; the batch moves on.
                message = f"{type(error).__name__}: {error}"
                yield path, _raiser(RuntimeError(f"cannot load {path}: {message}"))
                continue
            for proc in procedures:
                yield f"{path}::{proc.name}", (lambda p=proc: p.cfg)

    try:
        report = run_batch(
            items(),
            checkpoint_path=args.checkpoint,
            resume=not args.no_resume,
            config=config,
        )
    except OSError as error:  # checkpoint file unusable
        print(f"error: {error}", file=sys.stderr)
        return EXIT_USAGE_IO
    except ReproError as error:  # e.g. a newer-version checkpoint
        print(f"error[{type(error).__name__}]: {error}", file=sys.stderr)
        return exit_code_for(error)
    if observer is not None:
        try:
            with open(args.trace, "w") as handle:
                observer.write_jsonl(handle)
        except OSError as error:
            print(f"error: {error}", file=sys.stderr)
            return EXIT_USAGE_IO
    print(report.render(), file=out)
    return EXIT_OK if report.ok else EXIT_ANALYSIS_FAILED


def _bad_flag(error: ValueError) -> int:
    """Report a config error, whose message opens with a field, as its flag's."""
    field, _, rest = str(error).partition(" ")
    print(f"error: --{field.replace('_', '-')} {rest}", file=sys.stderr)
    return EXIT_USAGE_IO


def _raiser(error: Exception):
    def thunk():
        raise error

    return thunk


def build_metrics_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro metrics",
        description="Prometheus text exposition (format 0.0.4) from the "
        "metric dumps embedded in recorded trace files",
    )
    parser.add_argument(
        "action", choices=("render", "serve", "lint"),
        help="render: print the exposition; serve: stdlib HTTP exporter "
        "(/metrics, /healthz); lint: check an exposition file's format",
    )
    parser.add_argument(
        "paths", nargs="+", metavar="PATH",
        help="trace JSONL files (render/serve; metric dumps are merged), "
        "or one exposition text file, '-' for stdin (lint)",
    )
    parser.add_argument(
        "--host", default="127.0.0.1", help="bind address for serve"
    )
    parser.add_argument(
        "--port", type=int, default=9464,
        help="bind port for serve (0 picks an ephemeral port; default 9464)",
    )
    return parser


def metrics_main(argv: List[str], out) -> int:
    from repro.obs.export import (
        dumps_from_trace_records,
        lint_exposition,
        registry_from_dumps,
        serve_metrics,
    )
    from repro.obs.trace import read_jsonl

    args = build_metrics_arg_parser().parse_args(argv)

    if args.action == "lint":
        if len(args.paths) != 1:
            print("error: lint takes exactly one exposition file", file=sys.stderr)
            return EXIT_USAGE_IO
        try:
            if args.paths[0] == "-":
                text = sys.stdin.read()
            else:
                with open(args.paths[0]) as handle:
                    text = handle.read()
        except OSError as error:
            print(f"error: {error}", file=sys.stderr)
            return EXIT_USAGE_IO
        problems = lint_exposition(text)
        for problem in problems:
            print(f"exposition lint: {problem}", file=out)
        if problems:
            print(f"{args.paths[0]}: {len(problems)} problem(s)", file=out)
            return EXIT_DIAGNOSTICS
        print(f"{args.paths[0]}: valid exposition", file=out)
        return EXIT_OK

    dumps = []
    try:
        for path in args.paths:
            with open(path) as handle:
                dumps.extend(dumps_from_trace_records(read_jsonl(handle)))
    except (OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_USAGE_IO
    if not dumps:
        print(
            "error: no metrics_dump records found (record traces with "
            "`repro trace` or `repro batch --trace`)",
            file=sys.stderr,
        )
        return EXIT_DIAGNOSTICS
    registry = registry_from_dumps(dumps)
    if args.action == "render":
        out.write(registry.render_prometheus())
        return EXIT_OK
    serve_metrics(registry, host=args.host, port=args.port, announce=out)
    return EXIT_OK


def build_serve_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Long-lived analysis service: JSON over HTTP with "
        "bounded caches, admission control, load shedding, and graceful "
        "drain on SIGINT/SIGTERM (see docs/ROBUSTNESS.md)",
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument(
        "--port", type=int, default=8014,
        help="bind port (0 picks an ephemeral port; default 8014)",
    )
    parser.add_argument(
        "--max-cache-bytes", type=int, default=32 * 1024 * 1024, metavar="N",
        help="total byte budget for the client session shards, which bound "
        "every cached graph with its snapshot and session (default 32MiB)",
    )
    parser.add_argument(
        "--max-clients", type=int, default=64, metavar="N",
        help="client session shards kept before LRU eviction (default 64)",
    )
    parser.add_argument(
        "--rate", type=float, default=None, metavar="RPS",
        help="sustained requests/second before 429s (default: unlimited)",
    )
    parser.add_argument(
        "--burst", type=int, default=None, metavar="N",
        help="token-bucket burst size (default: ~1s of --rate)",
    )
    parser.add_argument(
        "--max-inflight", type=int, default=8, metavar="N",
        help="concurrent requests before 503s (default 8)",
    )
    parser.add_argument(
        "--soft-inflight", type=int, default=None, metavar="N",
        help="concurrent requests past which work degrades "
        "(default: half of --max-inflight)",
    )
    parser.add_argument(
        "--default-deadline", type=float, default=5.0, metavar="SECONDS",
        help="engine deadline when the request names none (default 5)",
    )
    parser.add_argument(
        "--max-deadline", type=float, default=30.0, metavar="SECONDS",
        help="cap on request-supplied deadlines (default 30)",
    )
    parser.add_argument(
        "--trace", metavar="PATH", default=None,
        help="flush per-request spans + metrics dump here on drain",
    )
    return parser


def serve_main(argv: List[str], out) -> int:
    from repro.service.server import AnalysisServer, ServiceConfig

    args = build_serve_arg_parser().parse_args(argv)
    try:
        server = AnalysisServer(
            ServiceConfig(
                host=args.host,
                port=args.port,
                max_cache_bytes=args.max_cache_bytes,
                max_clients=args.max_clients,
                rate=args.rate,
                burst=args.burst,
                max_inflight=args.max_inflight,
                soft_inflight=args.soft_inflight,
                default_deadline=args.default_deadline,
                max_deadline=args.max_deadline,
                trace_path=args.trace,
            )
        )
    except ValueError as error:
        return _bad_flag(error)
    try:
        server.serve_forever(announce=out)
    except OSError as error:  # bad bind address
        print(f"error: {error}", file=sys.stderr)
        return EXIT_USAGE_IO
    print("drained cleanly", file=out)
    return EXIT_OK


def build_soak_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro soak",
        description="Deterministic chaos soak of the analysis service: "
        "concurrent seeded clients, fault injection, shed/drain probes, "
        "and per-size-band p99 SLO rows (see docs/ROBUSTNESS.md)",
    )
    parser.add_argument(
        "--duration", type=float, default=10.0, metavar="SECONDS",
        help="workload duration (default 10)",
    )
    parser.add_argument(
        "--clients", type=int, default=8, metavar="N",
        help="concurrent client threads (default 8)",
    )
    parser.add_argument("--seed", type=int, default=0, help="workload + fault seed")
    parser.add_argument(
        "--fault-rate", type=float, default=0.02, metavar="P",
        help="per-execution fault firing probability (default 0.02)",
    )
    parser.add_argument(
        "--edit-rate", type=float, default=0.25, metavar="P",
        help="fraction of workload requests that POST /apply_delta edits "
        "instead of /run_analysis (default 0.25; 0 = pure analyze)",
    )
    parser.add_argument(
        "--max-cache-bytes", type=int, default=8 * 1024 * 1024, metavar="N",
        help="service cache budget under test (default 8MiB)",
    )
    parser.add_argument(
        "--max-inflight", type=int, default=12, metavar="N",
        help="service inflight cap under test (default 12)",
    )
    parser.add_argument(
        "--rate", type=float, default=400.0, metavar="RPS",
        help="service rate limit under test (default 400)",
    )
    parser.add_argument(
        "--burst", type=int, default=100, metavar="N",
        help="token-bucket burst under test (default 100)",
    )
    parser.add_argument(
        "--out", metavar="PATH", default=None,
        help="write the full JSON report here",
    )
    parser.add_argument(
        "--update-bench", metavar="PATH", default=None,
        help="write the SLO rows into this BENCH_perf.json (key service_slo)",
    )
    parser.add_argument(
        "--trace", metavar="PATH", default=None,
        help="flush the service's request trace here on drain",
    )
    return parser


def soak_main(argv: List[str], out) -> int:
    import json as _json

    from repro.service.soak import SoakConfig, run_soak, update_bench_perf

    args = build_soak_arg_parser().parse_args(argv)
    try:
        config = SoakConfig(
            duration=args.duration,
            clients=args.clients,
            seed=args.seed,
            fault_rate=args.fault_rate,
            edit_rate=args.edit_rate,
            max_cache_bytes=args.max_cache_bytes,
            max_inflight=args.max_inflight,
            rate=args.rate,
            burst=args.burst,
            trace_path=args.trace,
        )
        report = run_soak(config, out=out)
    except ValueError as error:  # a bad knob, rejected before anything starts
        return _bad_flag(error)
    try:
        if args.out is not None:
            with open(args.out, "w") as handle:
                _json.dump(report.to_json(), handle, indent=2, sort_keys=True)
                handle.write("\n")
        if args.update_bench is not None:
            update_bench_perf(report, args.update_bench)
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_USAGE_IO
    return EXIT_OK if report.passed else EXIT_ANALYSIS_FAILED


def fuzz_main(argv: List[str], out) -> int:
    from repro.fuzz.oracles import ALL_ORACLES, ORACLES_BY_NAME
    from repro.fuzz.runner import run_fuzz

    args = build_fuzz_arg_parser().parse_args(argv)
    if args.list_oracles:
        for oracle in ALL_ORACLES:
            print(oracle.name, file=out)
        return EXIT_OK
    oracles = None
    if args.oracle:
        unknown = [name for name in args.oracle if name not in ORACLES_BY_NAME]
        if unknown:
            print(f"error: unknown oracle(s) {', '.join(unknown)}", file=sys.stderr)
            return EXIT_USAGE_IO
        oracles = [ORACLES_BY_NAME[name] for name in args.oracle]

    report = run_fuzz(
        seed=args.seed,
        count=args.count,
        size=args.size,
        oracles=oracles,
        time_budget=args.budget,
        fail_fast=args.fail_fast,
    )
    print(report.render(), file=out)
    if args.emit_tests and report.divergences:
        with open(args.emit_tests, "a") as handle:
            for item in report.divergences:
                handle.write("\n\n" + item.test_source)
        print(f"wrote {len(report.divergences)} regression test(s) to {args.emit_tests}", file=out)
    return EXIT_OK if report.ok else EXIT_DIAGNOSTICS


def main(argv: Optional[List[str]] = None, out=None) -> int:
    out = sys.stdout if out is None else out
    argv = sys.argv[1:] if argv is None else argv
    try:
        if argv and argv[0] == "fuzz":
            return fuzz_main(argv[1:], out)
        if argv and argv[0] == "batch":
            return batch_main(argv[1:], out)
        if argv and argv[0] == "bench":
            from repro.analysis.bench import bench_main

            return bench_main(argv[1:], out)
        if argv and argv[0] == "trace":
            return trace_main(argv[1:], out)
        if argv and argv[0] == "metrics":
            return metrics_main(argv[1:], out)
        if argv and argv[0] == "serve":
            return serve_main(argv[1:], out)
        if argv and argv[0] == "soak":
            return soak_main(argv[1:], out)
    except BrokenPipeError:
        # Downstream consumer (e.g. `| head`) closed the pipe: the Unix
        # convention is a silent exit, not a traceback.
        return EXIT_OK
    args = build_arg_parser().parse_args(argv)

    if args.source == "-":
        source = sys.stdin.read()
    else:
        try:
            with open(args.source) as handle:
                source = handle.read()
        except OSError as error:
            print(f"error: {error}", file=sys.stderr)
            return EXIT_USAGE_IO

    try:
        procedures = lower_program(parse_program(source))
    except Exception as error:  # lex/parse/lowering diagnostics
        print(f"error: {error}", file=sys.stderr)
        return EXIT_DIAGNOSTICS

    if args.proc is not None:
        procedures = [p for p in procedures if p.name == args.proc]
        if not procedures:
            print(f"error: no procedure named {args.proc!r}", file=sys.stderr)
            return EXIT_DIAGNOSTICS

    worst = EXIT_OK
    for proc in procedures:
        worst = max(worst, _report_one(proc, args, out))
    return worst


def _report_one(proc: LoweredProcedure, args, out) -> int:
    """Analyze one procedure; never lets a traceback escape.

    Failures are printed as one structured ``error[class]`` line naming the
    procedure, and mapped to the documented exit codes: 3 for an invalid
    CFG, 4 for any analysis failure (guard trip, internal invariant
    violation, divergence) on a valid one.
    """
    try:
        _report(proc, args, out)
        return EXIT_OK
    except InvalidCFGError as error:
        print(f"error[invalid-cfg]: proc {proc.name}: {error}", file=sys.stderr)
        return EXIT_INVALID_CFG
    except ResourceExhausted as error:
        print(f"error[resource]: proc {proc.name}: {error}", file=sys.stderr)
        return EXIT_ANALYSIS_FAILED
    except ReproError as error:
        print(f"error[analysis]: proc {proc.name}: {error}", file=sys.stderr)
        return exit_code_for(error)
    except Exception as error:  # internal invariant violations etc.
        print(
            f"error[internal]: proc {proc.name}: {type(error).__name__}: {error}",
            file=sys.stderr,
        )
        return EXIT_ANALYSIS_FAILED


def _report(proc: LoweredProcedure, args, out) -> None:
    session = session_for(proc.cfg)
    pst = session.pst()
    print(
        f"proc {proc.name}: {proc.cfg.num_nodes} blocks, {proc.cfg.num_edges} edges, "
        f"{proc.num_statements()} statements, {len(pst.canonical_regions())} SESE regions, "
        f"max depth {pst.max_depth()}",
        file=out,
    )
    if args.dot:
        print(cfg_to_dot(proc.cfg, title=proc.name), file=out)
    if args.regions:
        kinds = classify_pst(pst)
        for region in pst.canonical_regions():
            print(f"  {region.describe()}  depth={region.depth}  kind={kinds[region].value}", file=out)
    if args.pst:
        kinds = classify_pst(pst)

        def show(region, indent):
            label = "root" if region.is_root else region.describe()
            print("  " * indent + f"- {label} [{kinds[region].value}]", file=out)
            for child in region.children:
                show(child, indent + 1)

        show(pst.root, 1)
        if args.dot:
            print(pst_to_dot(pst, title=f"{proc.name}.pst"), file=out)
    if args.control_regions:
        for group in session.control_regions():
            print(f"  control region: {group}", file=out)
    if args.ssa:
        placement = place_phis_pst(proc, pst).phi_blocks
        ssa = construct_ssa(proc, placement=placement)
        problems = verify_ssa(ssa)
        if problems:
            raise AnalysisError(
                f"SSA verification failed: {'; '.join(map(str, problems))}"
            )
        for block in ssa.cfg.nodes:
            statements = ssa.blocks.get(block, [])
            if statements:
                print(f"  {block}:", file=out)
                for stmt in statements:
                    print(f"      {stmt!r}", file=out)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
