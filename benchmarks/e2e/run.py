"""End-to-end benchmark of the repro analysis stack: one command, six workloads.

    python3 benchmarks/e2e/run.py --workload W --seed S --seconds N --trace 0|1
    python3 benchmarks/e2e/run.py --sets 2            # every workload, twice
    python3 benchmarks/e2e/run.py --smoke             # 2 s windows, checks on

With ``--trace 0`` each workload runs its timed window with tracing off
and reports the end-to-end metrics of ``BENCHMARK.json``; with
``--trace 1`` it replays the workload's seeded operations through every
layer's public calls and reports the per-layer metrics, writing the spans
to ``benchmarks/e2e/.cache/spans-<workload>-<seed>.jsonl``.  Every metric
is printed as ``workload metric value unit``; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Exit status: 0 when every output checked out, 1 when any
did not, 3 when ``--sets`` disagree beyond a bound, 2 on usage errors or
when the checkout has no ``src/repro``.  See README.md.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import sys

from inputs import use_repo_src
from loadgen import REPO_ROOT, become_subreaper, stop_own_children

DEFAULT_SEED = 1994
SMOKE_SECONDS = 2


def load_spec() -> dict:
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def host_tags() -> str:
    """The facts a result is compared under: CPUs, Python, NumPy."""
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = "none"
    return f"cpu_count={os.cpu_count()} python={platform.python_version()} numpy={numpy}"


def warmup_for(seconds: float) -> float:
    """Untimed warm-up before each window: a quarter of it, at most 3 s.

    Long enough for the children's heaps to stop growing; fresh pages
    fault slowly on a virtual machine, and the first seconds of a run
    measure that.
    """
    return min(3.0, seconds / 4.0)


def run_once(workload: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    if trace:
        from layers import trace_workload

        result = trace_workload(workload, seed, seconds)
        declared = spec["per_layer"]
    else:
        from workloads import run_workload

        result = run_workload(workload, seed, seconds, warmup_for(seconds))
        declared = spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    missing = sorted(set(units) - set(result["metrics"]))
    if missing:
        raise RuntimeError(f"{workload}: metrics not measured: {missing}")
    for name, note in result["notes"].items():
        print(f"# {workload} {name} {note}")
    for name in units:
        print(f"{workload} {name} {result['metrics'][name]:.6g} {units[name]}")
    result["units"] = units
    return result


def agreement(workloads, sets, spec) -> bool:
    """Print per-set values, median, spread and verdict for every metric.

    The spread is (max - min) / median over the sets; a metric passes when
    it stays within its ``BENCHMARK.json`` bound (``setup_s`` included).
    """
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    print("# workload metric per-set-values median spread bound verdict")
    for workload in workloads:
        for name, bound in bounds.items():
            values = [s[workload]["metrics"][name] for s in sets]
            median = statistics.median(values)
            spread = (max(values) - min(values)) / median if median else 0.0
            verdict = "pass" if spread <= bound else "FAIL"
            ok = ok and verdict == "pass"
            shown = ",".join(f"{v:.6g}" for v in values)
            print(
                f"# {workload} {name} [{shown}] {median:.6g} {spread:.3f} {bound} {verdict}"
            )
    return ok


def main(argv=None) -> int:
    spec = load_spec()
    workload_names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workload_names, help="default: all six")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--seconds", type=float, default=spec["run_seconds"],
        help=f"timed window per workload (default {spec['run_seconds']})",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--sets", type=int, default=1, help="repeat everything N times")
    parser.add_argument(
        "--smoke", action="store_true", help=f"{SMOKE_SECONDS} s windows, every check on"
    )
    args = parser.parse_args(argv)
    use_repo_src()
    seconds = SMOKE_SECONDS if args.smoke else args.seconds
    if seconds <= 0 or args.sets < 1:
        parser.error("--seconds and --sets must be positive")
    chosen = [args.workload] if args.workload else workload_names
    print(f"# host {host_tags()}")

    become_subreaper()
    sets = []
    try:
        for index in range(args.sets):
            # Alternate the order so no workload always runs first (or warm).
            order = chosen if index % 2 == 0 else list(reversed(chosen))
            results = {}
            for workload in order:
                results[workload] = run_once(workload, args.seed, seconds, bool(args.trace), spec)
            sets.append(results)
    finally:
        stop_own_children()

    attempted = sum(r["attempted"] for s in sets for r in s.values())
    failed = sum(r["failed"] for s in sets for r in s.values())
    agreed = True
    if len(chosen) == 1 and args.sets == 1:
        result = sets[0][chosen[0]]
        metrics = {n: {"value": result["metrics"][n], "unit": u} for n, u in result["units"].items()}
    else:
        if args.sets > 1 and not args.trace:
            agreed = agreement(chosen, sets, spec)
        metrics = {
            f"{w}.{n}": {
                "value": statistics.median(s[w]["metrics"][n] for s in sets),
                "unit": u,
            }
            for w in chosen
            for n, u in sets[0][w]["units"].items()
        }
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    if failed:
        return 1
    return 0 if agreed else 3


if __name__ == "__main__":
    sys.exit(main())
