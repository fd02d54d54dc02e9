"""Measure and append one generation entry to ``results/BENCH_perf.json``.

The perf trajectory pins, per implementation generation, the wall-clock of
the hot analyses on the canonical synthetic procedures (seeds 99/21/13,
sizes 4000/8000/8000 statements; see the ``description`` field in the
JSON).  PR 3 seeded it with the object-graph vs frozen-CSR pair; this
script re-derives a fresh entry for the *current* tree so later
generations keep the trajectory non-empty without hand-editing timings::

    PYTHONPATH=../src python perf_trajectory.py --label "my generation"      # print
    PYTHONPATH=../src python perf_trajectory.py --label "my generation" --append

Pass ``--same-sitting`` when an entry is measured back to back with the
previous one on the same host, to mark the comparison strong.

``--batch-throughput`` measures a different axis entirely: end-to-end
``run_batch`` items/second (dominators-only config) across CFG size bands
x corpus style x worker counts, written to the JSON's top-level
``batch_throughput`` key.  Absolute rates are host-bound; the number that
travels is the parallel/serial ratio at equal band, which says whether
the process pool pays for its start-up and pickling.

``--edit-streams`` measures the incremental edit layer: per-edit
maintenance cost of an :class:`repro.incremental.EditSession` driven
through local add-edge/undo streams, per size band, against the
recompute-from-scratch pipeline on the same graph.  Written to the JSON's
top-level ``edit_streams`` key; the number that travels is the
median-edit speedup (the mean is dragged down by the deliberate
oversize-region full recomputes and is recorded for honesty, not gated).

Methodology matches the existing entries: best/median of 9 GC-paused
repeats after a warmup call, all workloads measured in one sitting.
``speedup_median_vs_previous`` is computed against the last recorded
entry; treat it as a weak signal unless both entries came from the same
sitting on the same host (the JSON's ``cpu_count`` plus each entry's
``measured_in_sitting_with_previous`` flag say which comparisons are
strong).  Not a pytest benchmark on purpose: the trajectory should only
gain entries when a generation lands, not on every bench-suite run.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(__file__))

from conftest import git_rev, sample, stats_of  # noqa: E402

RESULTS = os.path.join(os.path.dirname(__file__), "results", "BENCH_perf.json")
REPEATS = 9

#: (band, target_statements, corpus items) for --batch-throughput.
BATCH_BANDS = (("small", 300, 24), ("medium", 1500, 16), ("large", 5000, 12))
BATCH_WORKERS = (1, 2, 4)
BATCH_REPEATS = 3  # best-of, to shave pool-startup jitter

#: (band, target_statements, timed edits) for --edit-streams.
EDIT_BANDS = (("small", 1000, 100), ("medium", 4000, 100), ("large", 8000, 100))


def measurements():
    """The canonical trajectory workloads, measured in one sitting."""
    from repro.controldep.regions_fast import control_regions
    from repro.core.cycle_equiv import cycle_equivalence_of_cfg
    from repro.core.pst import build_pst
    from repro.dataflow.iterative import solve_iterative
    from repro.dataflow.problems import ReachingDefinitions
    from repro.dominance.lengauer_tarjan import lengauer_tarjan
    from repro.synth.structured import random_lowered_procedure

    proc_4000 = random_lowered_procedure(99, target_statements=4000)
    big_4000 = proc_4000.cfg
    pst_8000 = random_lowered_procedure(21, target_statements=8000).cfg
    regions_8000 = random_lowered_procedure(13, target_statements=8000).cfg
    reaching = ReachingDefinitions(proc_4000)

    workloads = {
        "cycle_equiv_4000": lambda: cycle_equivalence_of_cfg(
            big_4000, validate=False
        ),
        "lengauer_tarjan_4000": lambda: lengauer_tarjan(big_4000),
        "build_pst_8000": lambda: build_pst(pst_8000),
        "control_regions_8000": lambda: control_regions(
            regions_8000, validate=False
        ),
        "dataflow_solve_4000": lambda: solve_iterative(big_4000, reaching),
    }
    out = {}
    for name, fn in workloads.items():
        times, _ = sample(fn, repeats=REPEATS)
        stats = stats_of(times)
        out[name] = {
            "median_s": stats["median_s"],
            "min_s": stats["min_s"],
            "repeats": stats["repeats"],
        }
        print(
            f"{name}: median {1000 * stats['median_s']:.3f} ms, "
            f"min {1000 * stats['min_s']:.3f} ms",
            file=sys.stderr,
        )
    return out


def batch_throughput_series():
    """items/sec of run_batch per band x corpus style x workers.

    Dominators-only config.  workers=1 is the serial path (no pool, no
    pickling) and anchors each band; ``over_serial`` is each parallel
    rate divided by it.

    Two corpus styles per band:

    * ``distinct`` -- every item a different graph;
    * ``shared`` -- a sweep: every item the *same* graph (replay/fault
      campaigns, config sweeps), which the parallel path still pickles,
      decodes and freezes once per item.
    """
    from repro.config import AnalysisConfig
    from repro.resilience.batch import run_batch
    from repro.synth.structured import random_lowered_procedure

    rows = []
    for band, statements, items in BATCH_BANDS:
        cfgs = [
            random_lowered_procedure(7 + i, target_statements=statements).cfg
            for i in range(items)
        ]
        nodes = sum(c.num_nodes for c in cfgs) // items
        corpora = {
            "distinct": [(f"i{i}", (lambda c=c: c)) for i, c in enumerate(cfgs)],
            "shared": [(f"s{i}", (lambda c=cfgs[0]: c)) for i in range(items)],
        }

        def run(corpus, workers):
            config = AnalysisConfig(
                workers=workers, retries=0, analyses=("dominators",)
            )
            best = None
            for _ in range(BATCH_REPEATS):
                started = time.perf_counter()
                report = run_batch(list(corpus), config=config)
                elapsed = time.perf_counter() - started
                assert report.ok, report.render()
                best = elapsed if best is None else min(best, elapsed)
            return items / best

        for style, corpus in corpora.items():
            serial_rate = None
            for workers in BATCH_WORKERS:
                rate = run(corpus, workers)
                if serial_rate is None:
                    serial_rate = rate
                row = {
                    "band": band,
                    "corpus": style,
                    "statements": statements,
                    "avg_nodes": nodes,
                    "items": items,
                    "workers": workers,
                    "items_per_s": round(rate, 2),
                    "over_serial": round(rate / serial_rate, 2),
                }
                rows.append(row)
                print(f"batch {row}", file=sys.stderr)
    return rows


def edit_stream_series():
    """Per-edit incremental maintenance vs scratch, per size band.

    Reuses :func:`repro.analysis.bench.run_incremental_bench` (the same
    measurement the ``repro bench --check`` gate runs) so the trajectory
    and the gate can never disagree about methodology: local
    add-edge/undo pairs, per-edit times recorded individually, headline
    speedup = scratch seconds / median per-edit seconds.
    """
    from repro.analysis.bench import run_incremental_bench

    rows = []
    for band, statements, edits in EDIT_BANDS:
        result = run_incremental_bench(size=statements, edits=edits)
        row = {
            "band": band,
            "statements": statements,
            "nodes": result["nodes"],
            "edges": result["edges"],
            "edits": result["edits"],
            "scratch_ms": round(1000 * result["scratch_s"], 3),
            "per_edit_median_ms": round(1000 * result["per_edit_median_s"], 4),
            "per_edit_mean_ms": round(1000 * result["per_edit_mean_s"], 4),
            "median_speedup": round(result["speedup"], 1),
            "mean_speedup": round(result["mean_speedup"], 1),
            "splices": result["stats"]["splices"],
            "full_recomputes": result["stats"]["full_recomputes"],
        }
        rows.append(row)
        print(f"edit-stream {row}", file=sys.stderr)
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", default=None, help="generation label")
    parser.add_argument(
        "--same-sitting", action="store_true",
        help="mark the entry as measured in the same sitting as the "
        "previous one (makes speedup_median_vs_previous a strong claim)",
    )
    parser.add_argument(
        "--batch-throughput", action="store_true",
        help="measure run_batch items/sec (bands x corpus style x workers) "
        "into the JSON's batch_throughput key instead of a trajectory entry",
    )
    parser.add_argument(
        "--edit-streams", action="store_true",
        help="measure incremental per-edit maintenance vs scratch (size "
        "bands) into the JSON's edit_streams key instead of a trajectory "
        "entry",
    )
    parser.add_argument(
        "--git-rev", default=None,
        help="revision to record (default: current short rev)",
    )
    parser.add_argument(
        "--append", action="store_true",
        help="write the entry into results/BENCH_perf.json "
        "(default: print it to stdout only)",
    )
    args = parser.parse_args(argv)

    with open(RESULTS) as handle:
        trajectory_file = json.load(handle)

    if args.batch_throughput:
        block = {
            "git_rev": args.git_rev or git_rev(),
            "cpu_count": os.cpu_count(),
            "config": "dominators-only, retries=0, best of "
            f"{BATCH_REPEATS} runs per cell",
            "rows": batch_throughput_series(),
        }
        if args.append:
            trajectory_file["batch_throughput"] = block
            with open(RESULTS, "w") as handle:
                json.dump(trajectory_file, handle, indent=2, sort_keys=True)
                handle.write("\n")
            print(f"wrote batch_throughput block to {RESULTS}", file=sys.stderr)
        else:
            json.dump(block, sys.stdout, indent=2, sort_keys=True)
            print()
        return 0

    if args.edit_streams:
        block = {
            "git_rev": args.git_rev or git_rev(),
            "cpu_count": os.cpu_count(),
            "config": "local add-edge/undo pairs, seed 42, headline = "
            "scratch / median per-edit",
            "rows": edit_stream_series(),
        }
        if args.append:
            trajectory_file["edit_streams"] = block
            with open(RESULTS, "w") as handle:
                json.dump(trajectory_file, handle, indent=2, sort_keys=True)
                handle.write("\n")
            print(f"wrote edit_streams block to {RESULTS}", file=sys.stderr)
        else:
            json.dump(block, sys.stdout, indent=2, sort_keys=True)
            print()
        return 0

    if not args.label:
        parser.error("--label is required unless --batch-throughput or "
                     "--edit-streams")

    previous = trajectory_file["trajectory"][-1] if trajectory_file["trajectory"] else None

    measured = measurements()
    entry = {
        "git_rev": args.git_rev or git_rev(),
        "label": args.label,
        "cpu_count": os.cpu_count(),
        "measured_in_sitting_with_previous": bool(args.same_sitting),
        "measurements": measured,
    }
    if previous is not None:
        entry["speedup_median_vs_previous"] = {
            name: round(
                previous["measurements"][name]["median_s"] / stats["median_s"], 2
            )
            for name, stats in measured.items()
            if name in previous.get("measurements", {})
        }

    if args.append:
        trajectory_file["trajectory"].append(entry)
        with open(RESULTS, "w") as handle:
            json.dump(trajectory_file, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"appended {entry['label']!r} to {RESULTS}", file=sys.stderr)
    else:
        json.dump(entry, sys.stdout, indent=2, sort_keys=True)
        print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
