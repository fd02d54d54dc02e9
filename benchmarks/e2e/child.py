"""Library runner child: the process under test for the library workloads.

Usage (by ``run.py``, never by hand)::

    python benchmarks/e2e/child.py WORKLOAD

The child imports the workload's entry modules and prints ``ready``; no
input exists yet, so the time to that line is the workload's set-up time.
It then reads one JSON command (``seed``, ``seconds``, ``warmup``) from
stdin, builds its seeded inputs, runs the timed window, checks the
outputs, and prints one JSON result line.  End of input before a command
means a set-up-only spawn: the child exits at once.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import sys
import time

from inputs import use_repo_src
from loadgen import peak_rss_mb
from workloads import (
    BATCH_CHUNK,
    batch_items,
    dataflow_procedures,
    dataflow_wrong,
    fresh_procedure,
    library_draws,
)

#: Seconds one pass over the dataflow corpus takes, between the 1.3 s of a
#: fast spell and the 2.8 s of a slow one on the 2-CPU virtual machine
#: the benchmark was written on (Python 3.11, NumPy 2.4); it converts
#: ``--seconds`` into a fixed number of passes (5 at 10 s, 1270
#: operations), so a slow spell cannot stretch a run past the time its
#: repetitions are allowed.
DATAFLOW_PASS_SECONDS = 2.0


def run_batch_workload(workload: str, seed: int, seconds: float, warmup: float) -> dict:
    """Back-to-back ``run_batch`` calls over the workload's seeded draws.

    Each call takes the next ``BATCH_CHUNK`` items (for ``batch_large``,
    exactly one shuffled copy of the pool) and pays its own process-pool
    start, as every caller of ``run_batch`` does.
    """
    from repro import AnalysisConfig, run_batch

    config = AnalysisConfig(workers=os.cpu_count() or 1)
    draws = library_draws(workload, seed)
    chunk = BATCH_CHUNK[workload]

    def items():
        return batch_items(itertools.islice(draws, chunk))

    warm_until = time.perf_counter() + warmup
    while time.perf_counter() < warm_until:
        run_batch(items(), config=config)
    latencies, wall, failed, calls = [], 0.0, 0, 0
    while wall < seconds:
        batch = items()
        started = time.perf_counter()
        report = run_batch(batch, config=config)
        wall += time.perf_counter() - started
        calls += 1
        failed += sum(1 for r in report.results if r.status != "ok")
        latencies.extend(r.elapsed * 1000.0 for r in report.results)
    return {
        "latencies_ms": latencies,
        "ops": len(latencies),
        "wall_s": wall,
        "attempted": len(latencies),
        "failed": failed,
        "notes": {"calls": calls, "items_per_call": chunk},
    }


def run_dataflow_workload(seed: int, seconds: float, warmup: float) -> dict:
    """One operation = one procedure of the paper-shaped corpus:
    full reaching definitions via ``solve_iterative``, then every
    variable's ``VariableReachingDefs`` via ``solve_qpg``.

    Each operation runs on a fresh copy of the procedure's CFG, so no
    snapshot or PST cached by an earlier pass is reused.  Warm-up and
    window are a fixed number of whole passes over the corpus: every
    procedure runs equally often whatever the seed's order, and memory
    the library keeps per operation (see README) is compared over the
    same work.  A seeded 5% of
    the corpus's procedures keep the solutions of their first operation
    in the window; those are checked against ``solve_iterative_reference``
    after it.  The sample is fixed per seed, so what the check holds in
    memory does not grow with the operation rate.
    """
    from repro.dataflow import ReachingDefinitions, VariableReachingDefs, solve_iterative, solve_qpg
    from repro.synth.corpus import all_procedures, standard_corpus

    names = sorted(p.name for p in all_procedures(standard_corpus()))
    sampled = set(random.Random(seed + 1).sample(names, max(1, len(names) // 20)))
    procedures = dataflow_procedures(random.Random(seed))
    kept = {}

    def operation(timed: bool) -> float:
        proc = fresh_procedure(next(procedures))
        cfg = proc.cfg
        started = time.perf_counter()
        reaching = solve_iterative(cfg, ReachingDefinitions(proc))
        sparse = {v: solve_qpg(cfg, VariableReachingDefs(proc, v)) for v in proc.variables()}
        elapsed = time.perf_counter() - started
        if timed and proc.name in sampled and proc.name not in kept:
            kept[proc.name] = (proc, reaching, sparse)
        return elapsed

    def passes(seconds_worth: float, timed: bool):
        """Whole passes over the corpus, as many as ``seconds_worth`` held
        when the benchmark was written (``DATAFLOW_PASS_SECONDS`` each)."""
        count = max(1, round(seconds_worth / DATAFLOW_PASS_SECONDS)) * len(names)
        started = time.perf_counter()
        latencies = [operation(timed) * 1000.0 for _ in range(count)]
        return latencies, time.perf_counter() - started

    passes(warmup, False)
    latencies, wall = passes(seconds, True)

    failed = sum(dataflow_wrong(*solved) for solved in kept.values())
    return {
        "latencies_ms": latencies,
        "ops": len(latencies),
        "wall_s": wall,
        "attempted": len(latencies),
        "failed": failed,
        "notes": {"checked": len(kept)},
    }


def main() -> int:
    use_repo_src()
    workload = sys.argv[1]
    if workload in BATCH_CHUNK:
        import repro.resilience.batch  # noqa: F401  (the entry module)
    elif workload == "dataflow":
        import repro.dataflow  # noqa: F401
        import repro.synth.corpus  # noqa: F401
    else:
        print(f"error: unknown library workload {workload!r}", file=sys.stderr)
        return 2
    print("ready", flush=True)
    line = sys.stdin.readline()
    if not line:
        return 0
    command = json.loads(line)
    args = (command["seed"], command["seconds"], command["warmup"])
    if workload == "dataflow":
        result = run_dataflow_workload(*args)
    else:
        result = run_batch_workload(workload, *args)
    result["peak_rss_mb"] = peak_rss_mb(os.getpid())
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
