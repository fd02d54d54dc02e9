"""Quick propagation graph tests: structure, solution equality, sparsity."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cfg.builder import cfg_from_edges
from repro.cfg.graph import CFG
from repro.core.pst import build_pst
from repro.dataflow.iterative import solve_iterative, solve_iterative_reference
from repro.dataflow.problems import (
    AvailableExpressions,
    LiveVariables,
    ReachingDefinitions,
    VariableReachingDefs,
)
from repro.dataflow.qpg import build_qpg, solve_qpg
from repro.incremental import EditSession
from repro.ir import Assign, LoweredProcedure
from repro.kernel import registry
from repro.kernel.session import session_for
from repro.synth.patterns import sequence_of_diamonds
from repro.synth.structured import random_lowered_procedure


def test_transparent_diamonds_bypassed():
    """Only the first diamond touches x; the rest must be bypassed."""
    cfg = sequence_of_diamonds(4)
    proc = LoweredProcedure("p", cfg)
    proc.blocks["t0"].append(Assign("x", (), "1"))
    problem = VariableReachingDefs(proc, "x")
    qpg, chains, bypassed = build_qpg(cfg, problem)
    assert len(bypassed) >= 3  # diamonds 1..3 are transparent
    assert qpg.num_nodes < cfg.num_nodes / 2
    # the solution still covers every node and matches the baseline
    result = solve_qpg(cfg, problem)
    assert result.solution == solve_iterative(cfg, problem)
    assert set(result.solution.before) == set(cfg.nodes)


def test_qpg_chain_edges_annotated():
    cfg = sequence_of_diamonds(3)
    proc = LoweredProcedure("p", cfg)
    proc.blocks["t0"].append(Assign("x", (), "1"))
    qpg, chains, _ = build_qpg(cfg, VariableReachingDefs(proc, "x"))
    # every QPG edge maps to an original (first, last) pair
    for qpg_edge, (first, last) in chains.items():
        assert qpg_edge.source == first.source
        assert qpg_edge.target == last.target


def test_all_identity_problem_collapses_to_spine():
    cfg = sequence_of_diamonds(5)
    proc = LoweredProcedure("p", cfg)  # no statements at all
    problem = VariableReachingDefs(proc, "ghost")
    qpg, _, bypassed = build_qpg(cfg, problem)
    assert qpg.num_nodes <= 4  # start, end and at most trivial residue
    result = solve_qpg(cfg, problem)
    assert result.solution == solve_iterative(cfg, problem)


def test_dense_problem_keeps_whole_graph():
    cfg = sequence_of_diamonds(2)
    proc = LoweredProcedure("p", cfg)
    for node in cfg.nodes:
        proc.blocks[node].append(Assign("x", (), "1"))
    problem = VariableReachingDefs(proc, "x")
    qpg, _, bypassed = build_qpg(cfg, problem)
    assert bypassed == set()
    assert qpg.num_nodes == cfg.num_nodes


def test_size_ratio_helper():
    cfg = sequence_of_diamonds(4)
    proc = LoweredProcedure("p", cfg)
    proc.blocks["t0"].append(Assign("x", (), "1"))
    result = solve_qpg(cfg, VariableReachingDefs(proc, "x"))
    assert 0 < result.size_ratio(cfg) < 1
    assert result.qpg_edges >= 1


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 5000), st.sampled_from([20, 50]), st.sampled_from([0.0, 0.25]))
def test_qpg_equals_iterative_on_random_programs(seed, size, goto_rate):
    proc = random_lowered_procedure(seed, target_statements=size, goto_rate=goto_rate)
    pst = build_pst(proc.cfg)
    for problem in (
        ReachingDefinitions(proc),
        LiveVariables(proc),
        AvailableExpressions(proc),
    ):
        assert solve_qpg(proc.cfg, problem, pst).solution == solve_iterative(proc.cfg, problem)
    for var in proc.variables()[:3]:
        problem = VariableReachingDefs(proc, var)
        assert solve_qpg(proc.cfg, problem, pst).solution == solve_iterative(proc.cfg, problem)


def test_backward_problem_projection():
    """Liveness (backward) through a transparent region."""
    cfg = sequence_of_diamonds(3)
    proc = LoweredProcedure("p", cfg)
    proc.blocks["t0"].append(Assign("x", (), "1"))
    proc.blocks["j2"].append(Assign("y", ("x",), "x"))
    problem = LiveVariables(proc)
    result = solve_qpg(cfg, problem)
    assert result.solution == solve_iterative(cfg, problem)
    # x is live through the middle (transparent) diamond
    assert "x" in result.solution.before["c1"]


def test_qpg_nodes_follow_pst_preorder():
    """Nodes come out in PST preorder (each kept region's own nodes in
    turn), not in the order of a set of regions hashed by identity."""
    proc = random_lowered_procedure(7, target_statements=120)
    pst = build_pst(proc.cfg)
    for var in proc.variables():
        qpg, _, _ = build_qpg(proc.cfg, VariableReachingDefs(proc, var), pst)
        kept = set(qpg.nodes)
        assert qpg.nodes == [
            node for region in pst.regions() for node in region.own_nodes if node in kept
        ]


def test_solve_qpg_builds_no_cfg_and_freezes_nothing(monkeypatch):
    """With the PST in hand, the QPG is solved on int rows: no object CFG
    (no ``add_edge``) and no snapshot (no ``freeze``) per variable."""
    proc = random_lowered_procedure(7, target_statements=120)
    cfg = proc.cfg
    pst = session_for(cfg).pst()
    problems = [VariableReachingDefs(proc, var) for var in proc.variables()]
    expected = [solve_iterative_reference(cfg, problem) for problem in problems]
    calls = {"freeze": 0, "add_edge": 0}
    freeze, add_edge = registry.freeze, CFG.add_edge

    def counting_freeze(graph):
        calls["freeze"] += 1
        return freeze(graph)

    def counting_add_edge(self, *args, **kwargs):
        calls["add_edge"] += 1
        return add_edge(self, *args, **kwargs)

    monkeypatch.setattr(registry, "freeze", counting_freeze)
    monkeypatch.setattr(CFG, "add_edge", counting_add_edge)
    solved = [solve_qpg(cfg, problem, pst).solution for problem in problems]
    monkeypatch.undo()
    assert len(problems) == 26
    assert calls == {"freeze": 0, "add_edge": 0}
    assert solved == expected


def test_solve_qpg_follows_a_spliced_pst():
    """An edit spliced into the graph session's PST resets the tree's
    layout, so the QPG sees the new node and edges."""
    proc = random_lowered_procedure(7, target_statements=120)
    cfg = proc.cfg
    edit = EditSession(cfg)
    pst = session_for(cfg).pst()
    for var in proc.variables():  # lay the tree out before the edit
        solve_qpg(cfg, VariableReachingDefs(proc, var), pst)
    edit.add_node("fresh", ["b0"], ["b11"])  # a second path inside b0's region
    proc.blocks["fresh"] = [Assign(proc.variables()[0], (), "1")]
    assert edit.stats.splices == 1
    assert session_for(cfg).pst() is pst
    for var in proc.variables():
        problem = VariableReachingDefs(proc, var)
        assert solve_qpg(cfg, problem, pst).solution == solve_iterative_reference(
            cfg, problem
        )
