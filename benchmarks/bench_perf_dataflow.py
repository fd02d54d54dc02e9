"""Experiment P5: the PST-based dataflow and dominator applications at scale.

§6.2/§6.3 claim the PST supports elimination-style dataflow and
divide-and-conquer dominators while agreeing with the global baselines.
We time all solvers over the corpus on reaching definitions (bit-vector)
and per-variable instances (sparse), asserting solution equality
throughout, plus the PST dominator computation against Lengauer-Tarjan.
"""

import time

from repro.analysis.tables import format_table
from repro.core.pst import build_pst
from repro.dataflow.elimination import solve_elimination
from repro.dataflow.iterative import solve_iterative
from repro.dataflow.problems import ReachingDefinitions, VariableReachingDefs
from repro.dataflow.qpg import solve_qpg
from repro.dominance.lengauer_tarjan import lengauer_tarjan
from repro.dominance.pst_dominators import pst_immediate_dominators

from conftest import sample, stats_of, write_json, write_result


def test_p5_sparse_variable_instances(benchmark, procedures, psts):
    """Per-variable reaching defs: QPG vs whole-graph iteration."""
    pairs = [(p, t) for p, t in zip(procedures, psts) if p.cfg.num_nodes >= 20][:40]

    def run_qpg():
        for proc, pst in pairs:
            for var in proc.variables()[:5]:
                solve_qpg(proc.cfg, VariableReachingDefs(proc, var), pst)

    def run_iterative():
        for proc, _ in pairs:
            for var in proc.variables()[:5]:
                solve_iterative(proc.cfg, VariableReachingDefs(proc, var))

    # Alternate the two series, so a slow spell of the host slows both
    # rather than skewing their ratio.
    iterative_times, qpg_times = [], []
    for _ in range(5):
        iterative_times += sample(run_iterative, repeats=1)[0]
        qpg_times += sample(run_qpg, repeats=1)[0]
    iterative_t = min(iterative_times)
    qpg_t = min(qpg_times)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)

    # correctness spot-check on a few instances
    for proc, pst in pairs[:6]:
        var = proc.variables()[0]
        problem = VariableReachingDefs(proc, var)
        assert solve_qpg(proc.cfg, problem, pst).solution == solve_iterative(proc.cfg, problem)

    text = (
        "Experiment P5(a) -- sparse per-variable reaching defs over "
        f"{len(pairs)} procedures x 5 variables\n"
        f"whole-graph iterative: {1000*iterative_t:.1f} ms\n"
        f"QPG (given the PST):   {1000*qpg_t:.1f} ms\n"
        f"QPG / whole-graph:     {qpg_t / iterative_t:.2f}\n"
    )
    print("\n" + text)
    write_result("p5_sparse_dataflow", text)
    write_json(
        "p5_sparse_dataflow",
        {
            "procedures": len(pairs),
            "variables_per_procedure": 5,
            "iterative": stats_of(iterative_times),
            "qpg": stats_of(qpg_times),
        },
    )


def test_p5_elimination_vs_iterative(benchmark, procedures, psts):
    sample = list(zip(procedures, psts))[:60]

    def run():
        mismatches = 0
        for proc, pst in sample:
            problem = ReachingDefinitions(proc)
            if solve_elimination(proc.cfg, problem, pst) != solve_iterative(proc.cfg, problem):
                mismatches += 1
        return mismatches

    mismatches = benchmark.pedantic(run, rounds=1, iterations=1)
    assert mismatches == 0


def test_p5_pst_dominators(benchmark, procedures, psts):
    pairs = list(zip(procedures, psts))

    def run_pst():
        for proc, pst in pairs:
            pst_immediate_dominators(proc.cfg, pst)

    def run_lt():
        for proc, _ in pairs:
            lengauer_tarjan(proc.cfg)

    pst_times, _ = sample(run_pst, repeats=3)
    lt_times, _ = sample(run_lt, repeats=3)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    rows = []
    for proc, pst in pairs[:5]:
        assert pst_immediate_dominators(proc.cfg, pst) == lengauer_tarjan(proc.cfg)
        rows.append([proc.name, proc.cfg.num_nodes, len(pst.canonical_regions())])
    text = (
        "Experiment P5(b) -- PST divide-and-conquer dominators == LT "
        "(spot checked)\n" + format_table(["procedure", "blocks", "regions"], rows) + "\n"
    )
    print("\n" + text)
    write_result("p5_pst_dominators", text)
    write_json(
        "p5_pst_dominators",
        {
            "procedures": len(pairs),
            "pst_dominators": stats_of(pst_times),
            "lengauer_tarjan": stats_of(lt_times),
        },
    )
