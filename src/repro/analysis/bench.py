"""Self-contained performance micro-suite behind ``repro bench``.

Times the array kernels against their object-graph reference
implementations (cycle equivalence, Lengauer-Tarjan, PST construction,
control regions) on synthetic procedures, plus the batch driver serial vs
parallel, and writes machine-readable JSON under ``benchmarks/results/``
without needing pytest.

The headline number per component is the *ratio* kernel/reference (of the
best wall-clock over ``--repeats`` runs, the kernel and the reference
taking turns).  Ratios are measured within one process on one host, so
they are stable across machines in a way absolute times are not; the CI
perf-smoke job compares them against the checked-in
``perf_smoke_baseline.json`` and fails on a >25% regression
(``--check``/``--tolerance``).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import EXIT_BUDGET_EXCEEDED

DEFAULT_SIZES = (500, 2000)
DEFAULT_REPEATS = 5
DEFAULT_OUT = os.path.join("benchmarks", "results")


def _sample(*fns: Callable[[], object], repeats: int) -> List[List[float]]:
    """Wall-clock seconds for ``repeats`` runs of each of ``fns``.

    One warmup each, GC paused, and the functions take turns within every
    round, so a spell of host slowness lands on all of them instead of on
    one side of a ratio.
    """
    for fn in fns:
        fn()  # warmup
    times: List[List[float]] = [[] for _ in fns]
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repeats):
            for fn, series in zip(fns, times):
                started = time.perf_counter()
                fn()
                series.append(time.perf_counter() - started)
    finally:
        if enabled:
            gc.enable()
    return times


def _stats(times: List[float]) -> Dict[str, float]:
    return {
        "median_s": statistics.median(times),
        "stdev_s": statistics.stdev(times) if len(times) > 1 else 0.0,
        "min_s": min(times),
        "repeats": len(times),
    }


def _git_rev() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except Exception:
        pass
    return "unknown"


def _components() -> Dict[str, Tuple[Callable, Callable]]:
    """name -> (fast path, object-graph reference), both ``ctx -> result``.

    ``ctx`` is the per-size context built by :func:`run_kernel_bench`
    (keys ``cfg``, ``proc``, ``reaching``).
    """
    from repro.controldep.regions_fast import control_regions, control_regions_reference
    from repro.core.cycle_equiv import (
        cycle_equivalence_of_cfg,
        cycle_equivalence_of_cfg_reference,
    )
    from repro.core.pst import build_pst, build_pst_reference
    from repro.dataflow.iterative import solve_iterative, solve_iterative_reference
    from repro.dominance.lengauer_tarjan import lengauer_tarjan, lengauer_tarjan_reference

    return {
        "cycle_equiv": (
            lambda ctx: cycle_equivalence_of_cfg(ctx["cfg"], validate=False),
            lambda ctx: cycle_equivalence_of_cfg_reference(ctx["cfg"], validate=False),
        ),
        "lengauer_tarjan": (
            lambda ctx: lengauer_tarjan(ctx["cfg"]),
            lambda ctx: lengauer_tarjan_reference(ctx["cfg"]),
        ),
        "build_pst": (
            lambda ctx: build_pst(ctx["cfg"]),
            lambda ctx: build_pst_reference(ctx["cfg"]),
        ),
        "control_regions": (
            lambda ctx: control_regions(ctx["cfg"], validate=False),
            lambda ctx: control_regions_reference(ctx["cfg"], validate=False),
        ),
        "solve_iterative": (
            lambda ctx: solve_iterative(ctx["cfg"], ctx["reaching"]),
            lambda ctx: solve_iterative_reference(ctx["cfg"], ctx["reaching"]),
        ),
    }


def run_kernel_bench(sizes: List[int], repeats: int, seed: int = 42) -> Dict[str, list]:
    """Time every fast/reference pair on one procedure per size."""
    from repro.dataflow.problems import ReachingDefinitions
    from repro.synth.structured import random_lowered_procedure

    graphs = []
    for statements in sizes:
        proc = random_lowered_procedure(seed, target_statements=statements)
        graphs.append(
            (statements, {"proc": proc, "cfg": proc.cfg, "reaching": ReachingDefinitions(proc)})
        )

    results: Dict[str, list] = {}
    for name, (fast, reference) in _components().items():
        series = []
        for statements, ctx in graphs:
            kernel_times, reference_times = _sample(
                lambda: fast(ctx), lambda: reference(ctx), repeats=repeats
            )
            cfg = ctx["cfg"]
            series.append(
                {
                    "statements": statements,
                    "nodes": cfg.num_nodes,
                    "edges": cfg.num_edges,
                    "kernel": _stats(kernel_times),
                    "reference": _stats(reference_times),
                    "ratio": min(kernel_times) / min(reference_times),
                }
            )
        results[name] = series
    return results


def run_batch_bench(items: int, workers: int, size: int = 120, seed: int = 7) -> dict:
    """Time the batch driver serial vs parallel on a synthetic corpus.

    On single-core hosts the parallel run is expected to be *slower*
    (pure process overhead); consumers must gate on ``cpu_count``.
    """
    from repro.config import AnalysisConfig
    from repro.resilience.batch import run_batch
    from repro.synth.structured import random_lowered_procedure

    cfgs = [
        random_lowered_procedure(seed + i, target_statements=size).cfg
        for i in range(items)
    ]

    def corpus():
        return [(f"item{i}", (lambda c=cfg: c)) for i, cfg in enumerate(cfgs)]

    t0 = time.perf_counter()
    serial_report = run_batch(corpus())
    serial_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    parallel_report = run_batch(corpus(), config=AnalysisConfig(workers=workers))
    parallel_s = time.perf_counter() - t0
    serial_statuses = [r.status for r in serial_report.results]
    parallel_statuses = [r.status for r in parallel_report.results]
    return {
        "items": items,
        "workers": workers,
        "serial_s": serial_s,
        "parallel_s": parallel_s,
        "speedup": serial_s / parallel_s,
        "statuses_agree": serial_statuses == parallel_statuses,
    }


def run_incremental_bench(
    size: int = 4000, edits: int = 100, seed: int = 42
) -> dict:
    """Per-edit incremental maintenance vs recompute-from-scratch.

    Builds one large procedure, times the scratch pipeline (cycle
    equivalence + PST), then drives an :class:`~repro.incremental.EditSession`
    through ``edits`` add-edge/undo pairs (the graph ends exactly where it
    started, so every timed edit does real splice work on the same
    structure).  Edits are *local* -- a parallel edge over a random
    existing edge, the workload the splice path exists for; the fuzz
    oracle, not this benchmark, covers arbitrary region-escaping edits.

    The headline ``speedup`` is scratch seconds over the *median* per-edit
    seconds -- the typical local edit, gated by ``--check`` when the
    baseline carries an ``incremental.min_speedup``.  The mean
    (``mean_speedup``) is reported alongside but not gated: a tail of
    edits lands in a region covering most of the graph, where the session
    deliberately recomputes from scratch (``stats.oversize_regions``), so
    the mean converges to the oversize-tail frequency rather than to
    splice performance.
    """
    import statistics as _statistics
    import random as _random

    from repro.core.cycle_equiv import cycle_equivalence_of_cfg
    from repro.core.pst import build_pst
    from repro.incremental import DeltaValidationError, EditSession
    from repro.synth.structured import random_lowered_procedure

    proc = random_lowered_procedure(seed, target_statements=size)
    cfg = proc.cfg

    def scratch():
        equiv = cycle_equivalence_of_cfg(cfg, validate=False)
        equiv.class_of  # materialize: the session pays this cost too
        build_pst(cfg, equiv)

    (scratch_times,) = _sample(scratch, repeats=5)

    session = EditSession(cfg)
    rng = _random.Random(seed)
    candidates = [
        edge
        for edge in cfg.edges
        if edge.source != cfg.start and edge.target != cfg.end
    ]
    pair_times: List[float] = []
    while len(pair_times) < edits:
        edge = rng.choice(candidates)
        started = time.perf_counter()
        try:
            session.add_edge(edge.source, edge.target)
        except DeltaValidationError:
            continue
        session.undo()
        # The add and its undo are each one maintained edit.
        pair_times.append((time.perf_counter() - started) / 2)
    scratch_s = min(scratch_times)
    median_s = _statistics.median(pair_times)
    mean_s = _statistics.mean(pair_times)
    return {
        "statements": size,
        "nodes": cfg.num_nodes,
        "edges": cfg.num_edges,
        "edits": 2 * len(pair_times),
        "scratch_s": scratch_s,
        "per_edit_median_s": median_s,
        "per_edit_mean_s": mean_s,
        "speedup": scratch_s / median_s,
        "mean_speedup": scratch_s / mean_s,
        "stats": session.stats.as_dict(),
    }


def check_against_baseline(
    record: dict, baseline: dict, tolerance: float, out
) -> List[str]:
    """Ratio regressions of ``record`` vs ``baseline``, as printed lines.

    A component regresses when its kernel/reference ratio at some size
    grew by more than ``tolerance`` (relative).  Missing components or
    sizes in either file are skipped, not failed, so the suite can evolve.
    """
    failures: List[str] = []
    base_components = baseline.get("components", {})
    for name, series in record.get("components", {}).items():
        base_series = {row["statements"]: row for row in base_components.get(name, [])}
        for row in series:
            base_row = base_series.get(row["statements"])
            if base_row is None:
                continue
            ratio, base_ratio = row["ratio"], base_row["ratio"]
            limit = base_ratio * (1.0 + tolerance)
            verdict = "ok" if ratio <= limit else "REGRESSED"
            print(
                f"  {name} @ {row['statements']}: ratio {ratio:.3f} "
                f"(baseline {base_ratio:.3f}, limit {limit:.3f}) {verdict}",
                file=out,
            )
            if ratio > limit:
                failures.append(f"{name} @ {row['statements']}")
    return failures


def build_bench_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro bench",
        description="Time the array kernels vs their object-graph references "
        "and write machine-readable JSON under benchmarks/results/",
    )
    parser.add_argument(
        "--sizes", type=int, nargs="+", default=list(DEFAULT_SIZES), metavar="N",
        help=f"procedure sizes in statements (default {' '.join(map(str, DEFAULT_SIZES))})",
    )
    parser.add_argument(
        "--repeats", type=int, default=DEFAULT_REPEATS,
        help=f"timed runs per measurement (default {DEFAULT_REPEATS})",
    )
    parser.add_argument(
        "--out", metavar="DIR", default=DEFAULT_OUT,
        help=f"directory for the JSON results (default {DEFAULT_OUT})",
    )
    parser.add_argument(
        "--name", default="bench_kernels",
        help="basename of the results file (default bench_kernels)",
    )
    parser.add_argument(
        "--batch-items", type=int, default=0, metavar="N",
        help="also time the batch driver serial vs parallel on N items (default: skip)",
    )
    parser.add_argument(
        "--batch-workers", type=int, default=2, metavar="N",
        help="worker processes for the batch comparison (default 2)",
    )
    parser.add_argument(
        "--edit-size", type=int, default=4000, metavar="N",
        help="procedure size in statements for the incremental edit-stream "
        "measurement (default 4000)",
    )
    parser.add_argument(
        "--edit-count", type=int, default=100, metavar="N",
        help="add-edge/undo pairs for the incremental measurement (default 100)",
    )
    parser.add_argument(
        "--check", metavar="BASELINE", default=None,
        help="compare kernel/reference ratios (and the incremental speedup, "
        "when the baseline carries incremental.min_speedup) against this "
        "baseline JSON and exit 3 on regression",
    )
    parser.add_argument(
        "--tolerance", type=float, default=0.25,
        help="allowed relative ratio growth under --check (default 0.25)",
    )
    parser.add_argument(
        "--slo", metavar="FILE", default=None,
        help="also gate service SLO rows from this JSON (a `repro soak "
        "--out` report, or a BENCH_perf.json carrying service_slo) and "
        "exit 3 when any band's p99 exceeds its budget",
    )
    return parser


def check_slo_rows(data: dict, out) -> List[str]:
    """SLO violations in a soak report / BENCH_perf ``service_slo`` block.

    Each row carries ``band``, ``n``, ``p99_s``, and ``budget_s`` (see
    :mod:`repro.service.soak`); a row violates when its p99 exceeds its
    budget.  Bands with no samples are reported but do not fail -- an SLO
    over zero requests is vacuous, and the soak harness separately fails
    runs that made no requests at all.
    """
    rows = data.get("slo")
    if rows is None:
        rows = (data.get("service_slo") or {}).get("rows")
    if not rows:
        return ["no SLO rows found (expected 'slo' or 'service_slo.rows')"]
    failures: List[str] = []
    for row in rows:
        band = row.get("band", "?")
        n = int(row.get("n", 0))
        p99 = float(row.get("p99_s", 0.0))
        budget = float(row.get("budget_s", 0.0))
        if n == 0:
            print(f"  slo {band}: no samples (skipped)", file=out)
            continue
        verdict = "ok" if p99 <= budget else "OVER BUDGET"
        print(
            f"  slo {band}: n={n} p99={p99:.4f}s budget={budget:.2f}s {verdict}",
            file=out,
        )
        if p99 > budget:
            failures.append(f"{band} p99 {p99:.3f}s > {budget:.2f}s")
    return failures


def bench_main(argv: List[str], out) -> int:
    args = build_bench_arg_parser().parse_args(argv)
    if args.repeats < 1 or any(s < 1 for s in args.sizes):
        print("error: --repeats and --sizes must be >= 1", file=sys.stderr)
        return 2

    print(
        f"repro bench: sizes {args.sizes}, {args.repeats} repeats, "
        f"{os.cpu_count()} cpu(s)",
        file=out,
    )
    components = run_kernel_bench(args.sizes, args.repeats)
    for name, series in components.items():
        for row in series:
            print(
                f"  {name} @ {row['statements']}: kernel "
                f"{1000 * row['kernel']['min_s']:.1f} ms, reference "
                f"{1000 * row['reference']['min_s']:.1f} ms, "
                f"ratio {row['ratio']:.3f}",
                file=out,
            )

    record = {
        "bench": args.name,
        "git_rev": _git_rev(),
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "sizes": list(args.sizes),
        "repeats": args.repeats,
        "components": components,
    }
    incremental = run_incremental_bench(
        size=args.edit_size, edits=args.edit_count
    )
    record["incremental"] = incremental
    print(
        f"  incremental @ {incremental['statements']}: scratch "
        f"{1000 * incremental['scratch_s']:.1f} ms, per-edit median "
        f"{1000 * incremental['per_edit_median_s']:.3f} ms over "
        f"{incremental['edits']} edits, speedup {incremental['speedup']:.1f}x "
        f"median / {incremental['mean_speedup']:.1f}x mean "
        f"({incremental['stats']['splices']} splices, "
        f"{incremental['stats']['full_recomputes']} full recomputes)",
        file=out,
    )
    if args.batch_items > 0:
        batch = run_batch_bench(args.batch_items, args.batch_workers)
        record["batch"] = batch
        print(
            f"  batch x{batch['items']}: serial {batch['serial_s']:.2f} s, "
            f"{batch['workers']} workers {batch['parallel_s']:.2f} s, "
            f"speedup {batch['speedup']:.2f}x",
            file=out,
        )

    try:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, f"{args.name}.json")
        with open(path, "w") as handle:
            json.dump(record, handle, indent=2, sort_keys=True)
            handle.write("\n")
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(f"wrote {path}", file=out)

    if args.check:
        try:
            with open(args.check) as handle:
                baseline = json.load(handle)
        except (OSError, ValueError) as error:
            print(f"error: cannot read baseline {args.check}: {error}", file=sys.stderr)
            return 2
        print(f"checking ratios against {args.check} (+{100 * args.tolerance:.0f}%)", file=out)
        failures = check_against_baseline(record, baseline, args.tolerance, out)
        min_speedup = (baseline.get("incremental") or {}).get("min_speedup")
        if min_speedup is not None:
            speedup = record["incremental"]["speedup"]
            verdict = "ok" if speedup >= float(min_speedup) else "REGRESSED"
            print(
                f"  incremental: median-edit speedup {speedup:.1f}x "
                f"(floor {float(min_speedup):.1f}x) {verdict}",
                file=out,
            )
            if speedup < float(min_speedup):
                failures.append("incremental speedup below floor")
        if failures:
            print(f"perf regression in: {', '.join(failures)}", file=out)
            # Exit 3: a declared (ratio) budget was exceeded, distinct from
            # the generic diagnostics exit 1 (see repro.errors).
            return EXIT_BUDGET_EXCEEDED
        print("perf smoke: all ratios within tolerance", file=out)

    if args.slo:
        try:
            with open(args.slo) as handle:
                slo_data = json.load(handle)
        except (OSError, ValueError) as error:
            print(f"error: cannot read SLO file {args.slo}: {error}", file=sys.stderr)
            return 2
        print(f"checking service SLO rows from {args.slo}", file=out)
        slo_failures = check_slo_rows(slo_data, out)
        if slo_failures:
            print(f"service SLO exceeded: {', '.join(slo_failures)}", file=out)
            return EXIT_BUDGET_EXCEEDED
        print("service SLO: all bands within budget", file=out)
    return 0
