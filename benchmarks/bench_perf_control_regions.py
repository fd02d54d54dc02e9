"""Experiment P2: O(E) control regions vs the O(EN) CFS90 baseline.

Paper (§5): control regions of arbitrary graphs in O(E), "faster than just
dominator computation, the first step in all previous algorithms".  We
check the crossover: as procedures grow, the paper's algorithm scales
linearly while partition refinement grows superlinearly.  Two fast
columns: the standalone call, which runs its own Figure 4 pass, and the
engine's path, which is handed the cycle equivalence the PST was built
from and, when no node needs a split, reads the node classes off it.
"""

from repro.analysis.tables import format_table
from repro.controldep.regions_cfs import control_regions_cfs
from repro.controldep.regions_fast import control_regions
from repro.core.cycle_equiv import cycle_equivalence_of_cfg
from repro.dominance.lengauer_tarjan import lengauer_tarjan
from repro.synth.structured import random_lowered_procedure

from conftest import best_of, sample, stats_of, write_json, write_result

# Sizes straddle the crossover: partition refinement is competitive on
# small graphs but goes superlinear by a few thousand edges.
SIZES = (500, 2000, 8000)


def test_p2_fast_control_regions(benchmark):
    proc = random_lowered_procedure(7, target_statements=1000)
    benchmark.pedantic(
        lambda: control_regions(proc.cfg, validate=False), rounds=3, iterations=1
    )


def test_p2_cfs_control_regions(benchmark):
    proc = random_lowered_procedure(7, target_statements=1000)
    benchmark.pedantic(lambda: control_regions_cfs(proc.cfg), rounds=3, iterations=1)


def test_p2_scaling(benchmark):
    rows = []
    ratios = []
    series = []
    for statements in SIZES:
        proc = random_lowered_procedure(13, target_statements=statements)
        cfg = proc.cfg
        equiv = cycle_equivalence_of_cfg(cfg, validate=False)
        fast_times, fast = sample(lambda: control_regions(cfg, validate=False))
        given_times, given = sample(
            lambda: control_regions(cfg, validate=False, equiv=equiv)
        )
        cfs_times, cfs = sample(lambda: control_regions_cfs(cfg), repeats=3)
        lt_times, _ = sample(lambda: lengauer_tarjan(cfg))
        fast_t, cfs_t, lt_t = min(fast_times), min(cfs_times), min(lt_times)
        assert fast == given == cfs
        ratios.append((cfg.num_edges, fast_t, cfs_t))
        series.append(
            {
                "statements": statements,
                "nodes": cfg.num_nodes,
                "edges": cfg.num_edges,
                "fast": stats_of(fast_times),
                "given_pst_classes": stats_of(given_times),
                "cfs90": stats_of(cfs_times),
                "lengauer_tarjan": stats_of(lt_times),
            }
        )
        rows.append(
            [
                cfg.num_nodes,
                cfg.num_edges,
                len(fast),
                f"{1000*fast_t:.1f}",
                f"{1000*min(given_times):.1f}",
                f"{1000*cfs_t:.1f}",
                f"{1000*lt_t:.1f}",
            ]
        )

    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    text = (
        "Experiment P2 -- control regions: O(E) cycle-equivalence algorithm "
        "vs O(EN) CFS90 refinement vs LT dominator baseline\n"
        + format_table(
            [
                "nodes", "edges", "regions", "fast (ms)", "given PST classes (ms)",
                "CFS90 (ms)", "LT dom (ms)",
            ],
            rows,
        )
        + "\n"
    )
    print("\n" + text)
    write_result("p2_control_regions", text)
    write_json("p2_control_regions", {"sizes": series})

    # shape: the fast algorithm's per-edge cost stays flat while the
    # refinement baseline's grows with size.
    (e0, f0, c0), (e2, f2, c2) = ratios[0], ratios[-1]
    fast_growth = (f2 / e2) / (f0 / e0)
    cfs_growth = (c2 / e2) / (c0 / e0)
    benchmark.extra_info["fast_per_edge_growth"] = round(fast_growth, 2)
    benchmark.extra_info["cfs_per_edge_growth"] = round(cfs_growth, 2)
    assert fast_growth < cfs_growth
