"""The oracle matrix: one differential cross-check per redundant pair.

Each :class:`Oracle` compares a fast algorithm against its slow,
independently derived counterpart on one :class:`~repro.fuzz.generator.FuzzCase`
and returns ``None`` (agreement) or a human-readable description of the
disagreement.  An exception escaping either side counts as a divergence
too -- a crash on a valid CFG is as much a bug as a wrong answer.

The matrix covers every pair named in the repo's redundancy inventory:

====================  =================================================
cycle equivalence     Figure 4 vs §3.3 bracket sets vs brute-force
                      cycle enumeration (tiny graphs only)
SESE / PST            canonical regions from the fast partition vs the
                      slow partition; definitional SESE check (edge
                      dominance/postdominance) per region, and edge
                      (post)dominance from G's own trees vs the
                      edge-split graph for every edge pair; PST stack
                      discipline (asserted during construction)
dominators            iterative (Cooper et al.) vs Lengauer-Tarjan vs
                      PST divide-and-conquer; same on the reverse CFG
                      for postdominators
control regions       O(E) node-cycle-equivalence, standalone and given
                      S's cycle equivalence, vs the FOW87 definition
                      (Theorem 7) vs the CFS90 refinement
CSR kernels           every array kernel vs its retained object-graph
                      reference, exact (identical ids and shapes, not
                      just equal partitions), including the RD / LV / AE
                      dataflow fixpoints
dataflow              the object-graph iterative fixpoint vs PST
                      elimination vs QPG sparse solve, for RD / LV / AE
                      and every variable's reaching definitions; vs the
                      QPG alone for constant propagation
φ-placement           iterated dominance frontiers vs PST placement
resilience            the guarded engine under persistent and transient
                      fault injection at every site vs the clean run,
                      itself held to the object-graph references
incremental           an :class:`~repro.incremental.EditSession` driven
                      through a seeded random edit stream vs recompute-
                      from-scratch after every accepted delta; rejected
                      deltas must restore the graph exactly
====================  =================================================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.cfg.graph import CFG, Edge
from repro.core.cycle_equiv import (
    cycle_equivalence_of_cfg,
    cycle_equivalence_of_cfg_reference,
    cycle_equivalence_scc,
)
from repro.core.cycle_equiv_slow import (
    cycle_equivalence_bracket_sets,
    cycle_equivalence_bruteforce,
    group_by_class,
)
from repro.core.pst import build_pst, build_pst_reference
from repro.core.sese import canonical_sese_regions
from repro.controldep.fow import control_regions_by_definition
from repro.controldep.regions_cfs import control_regions_cfs
from repro.controldep.regions_fast import control_regions, control_regions_reference
from repro.dataflow.constprop import ConstantPropagation
from repro.dataflow.elimination import solve_elimination
from repro.dataflow.framework import GenKillProblem
from repro.dataflow.iterative import solve_iterative, solve_iterative_reference
from repro.dataflow.problems import (
    AvailableExpressions,
    LiveVariables,
    ReachingDefinitions,
    VariableReachingDefs,
)
from repro.dataflow.qpg import solve_qpg
from repro.dominance.iterative import (
    edge_dominance,
    immediate_dominators,
    immediate_dominators_reference,
)
from repro.dominance.lengauer_tarjan import lengauer_tarjan, lengauer_tarjan_reference
from repro.dominance.pst_dominators import pst_immediate_dominators
from repro.dominance.tree import DominatorTree
from repro.fuzz.generator import FuzzCase
from repro.ssa.phi_placement import phi_blocks_cytron
from repro.ssa.pst_phi import phi_blocks_pst

# Size gate for the exponential brute-force cycle enumerator.
BRUTEFORCE_MAX_NODES = 9
BRUTEFORCE_MAX_EDGES = 16


@dataclass
class Divergence:
    """A structured record of one fast/slow disagreement."""

    oracle: str
    seed: int
    strategy: str
    detail: str
    cfg: CFG

    def summary(self) -> str:
        return (
            f"[{self.oracle}] seed={self.seed} strategy={self.strategy} "
            f"|V|={self.cfg.num_nodes} |E|={self.cfg.num_edges}: {self.detail}"
        )


@dataclass
class Oracle:
    """A named cross-check over one fuzz case."""

    name: str
    check: Callable[[FuzzCase], Optional[str]]

    def run(self, case: FuzzCase) -> Optional[Divergence]:
        try:
            detail = self.check(case)
        except Exception as error:  # crashes are divergences, not aborts
            detail = f"raised {type(error).__name__}: {error}"
        if detail is None:
            return None
        return Divergence(
            oracle=self.name,
            seed=case.seed,
            strategy=case.strategy,
            detail=detail,
            cfg=case.cfg,
        )


# ----------------------------------------------------------------------
# partition helpers
# ----------------------------------------------------------------------

def _partition_by_eid(classes: Dict[Edge, object]) -> Sequence[frozenset]:
    groups = group_by_class(classes)
    return sorted(
        (frozenset(e.eid for e in edges) for edges in groups.values()),
        key=lambda s: min(s),
    )


def _diff_partitions(fast, slow) -> Optional[str]:
    fast_p, slow_p = _partition_by_eid(fast), _partition_by_eid(slow)
    if set(fast_p) == set(slow_p):
        return None
    only_fast = [sorted(s) for s in fast_p if s not in slow_p]
    only_slow = [sorted(s) for s in slow_p if s not in fast_p]
    return f"fast-only classes {only_fast} vs slow-only classes {only_slow} (edge ids)"


# ----------------------------------------------------------------------
# cycle equivalence
# ----------------------------------------------------------------------

def _check_cycle_equiv_bracket_sets(case: FuzzCase) -> Optional[str]:
    augmented, _ = case.cfg.with_return_edge()
    fast = cycle_equivalence_scc(augmented, root=augmented.start).class_of
    slow = cycle_equivalence_bracket_sets(augmented)
    return _diff_partitions(fast, slow)


def _check_cycle_equiv_bruteforce(case: FuzzCase) -> Optional[str]:
    augmented, _ = case.cfg.with_return_edge()
    if (
        augmented.num_nodes > BRUTEFORCE_MAX_NODES
        or augmented.num_edges > BRUTEFORCE_MAX_EDGES
    ):
        return None  # exponential oracle; skip large graphs
    fast = cycle_equivalence_scc(augmented, root=augmented.start).class_of
    brute = cycle_equivalence_bruteforce(augmented)
    return _diff_partitions(fast, brute)


# ----------------------------------------------------------------------
# SESE regions and the PST
# ----------------------------------------------------------------------

def _check_sese_slow_partition(case: FuzzCase) -> Optional[str]:
    """Canonical regions derived from the fast vs the slow edge partition.

    The slow partition is computed on the augmented graph and mapped back to
    the original edges positionally (``with_return_edge`` copies edges in
    order), then fed through the same §3.6 DFS pairing.
    """
    cfg = case.cfg
    augmented, back = cfg.with_return_edge()
    slow = cycle_equivalence_bracket_sets(augmented)
    # Augmented edge i corresponds to cfg.edges[i]; the return edge is last.
    by_eid = {edge.eid: slow[edge] for edge in augmented.edges if edge is not back}

    class _SlowEquiv:
        class_of = {edge: by_eid[edge.eid] for edge in cfg.edges}

    fast_regions = canonical_sese_regions(cfg)
    slow_regions = canonical_sese_regions(cfg, _SlowEquiv())
    fast_pairs = sorted((r.entry.eid, r.exit.eid) for r in fast_regions)
    slow_pairs = sorted((r.entry.eid, r.exit.eid) for r in slow_regions)
    if fast_pairs != slow_pairs:
        return f"fast canonical regions {fast_pairs} != slow-derived {slow_pairs} (edge-id pairs)"
    return None


def _check_sese_definition(case: FuzzCase) -> Optional[str]:
    """Every canonical region satisfies Definition 2 literally.

    Edge dominance/postdominance is checked on the edge-split graph:
    ``a`` dominates ``b`` iff split(a) dominates split(b).  The engine's
    postcondition answers the same questions from G's own trees
    (:func:`edge_dominance`); the two must agree on every ordered pair of
    distinct edges.
    """
    cfg = case.cfg
    split, split_node = cfg.edge_split()
    dom = DominatorTree(immediate_dominators(split, root=split.start), split.start)
    rsplit = split.reversed()
    pdom = DominatorTree(immediate_dominators(rsplit, root=rsplit.start), rsplit.start)
    lemma = edge_dominance(cfg)
    for a in cfg.edges:
        for b in cfg.edges:
            if a is b:
                continue
            if lemma.dominates(a, b) != dom.dominates(split_node[a], split_node[b]):
                return f"does {a!r} dominate {b!r}? G's trees and the split graph disagree"
            if lemma.postdominates(b, a) != pdom.dominates(split_node[b], split_node[a]):
                return f"does {b!r} postdominate {a!r}? G's trees and the split graph disagree"
    for region in canonical_sese_regions(cfg):
        a, b = split_node[region.entry], split_node[region.exit]
        if not dom.dominates(a, b):
            return f"region {region.describe()}: entry does not dominate exit"
        if not pdom.dominates(b, a):
            return f"region {region.describe()}: exit does not postdominate entry"
    return None


def _check_pst_structure(case: FuzzCase) -> Optional[str]:
    """PST construction invariants: coverage, nesting, stack discipline.

    The stack-discipline assertions fire inside :func:`build_pst`; this
    check adds node-coverage and parent-containment validation on top.
    """
    cfg = case.cfg
    pst = build_pst(cfg)
    seen = {}
    for region in pst.regions():
        for node in region.own_nodes:
            if node in seen:
                return f"node {node!r} owned by two regions"
            seen[node] = region
    missing = [n for n in cfg.nodes if n not in seen]
    if missing:
        return f"nodes {missing!r} not owned by any region"
    for region in pst.canonical_regions():
        parent = region.parent
        if parent is None:
            return f"canonical region {region.describe()} has no parent"
        interior = set(region.nodes())
        for node in interior:
            if not pst.contains(region, node):
                return f"containment query disagrees with nodes() for {node!r}"
    return None


# ----------------------------------------------------------------------
# CSR kernel vs object-graph references
# ----------------------------------------------------------------------

def _pst_signature(pst) -> List[tuple]:
    out: List[tuple] = []

    def walk(region, depth: int) -> None:
        out.append(
            (
                depth,
                None if region.entry is None else region.entry.eid,
                None if region.exit is None else region.exit.eid,
                tuple(region.own_nodes),
            )
        )
        for child in region.children:
            walk(child, depth + 1)

    walk(pst.root, 0)
    return out


def _check_kernel_reference(case: FuzzCase) -> Optional[str]:
    """The array kernels agree *exactly* with their object-graph references.

    Stricter than the partition-level oracles above: class ids must be
    identical (not merely the same partition), the PST must have the same
    shape region by region, and Lengauer-Tarjan / iterative-dominator /
    control-region outputs must match verbatim, and so must the
    reaching-definitions, live-variables and available-expressions
    fixpoints -- the kernels promise bit-identical results, so any slack
    here would hide a divergence.
    """
    cfg = case.cfg
    kernel = cycle_equivalence_of_cfg(cfg, validate=False)
    reference = cycle_equivalence_of_cfg_reference(cfg, validate=False)
    if kernel.class_of != reference.class_of:
        diffs = [
            f"eid {edge.eid}: kernel={kernel.class_of[edge]} "
            f"reference={reference.class_of[edge]}"
            for edge in cfg.edges
            if kernel.class_of[edge] != reference.class_of[edge]
        ]
        return "cycle-equiv class ids differ: " + "; ".join(diffs[:5])

    diff = _diff_idoms(
        lengauer_tarjan(cfg), lengauer_tarjan_reference(cfg), "kernel", "reference"
    ) or _diff_idoms(
        immediate_dominators(cfg), immediate_dominators_reference(cfg), "kernel", "reference"
    )
    if diff:
        return diff

    kernel_pst = _pst_signature(build_pst(cfg))
    reference_pst = _pst_signature(build_pst_reference(cfg))
    if kernel_pst != reference_pst:
        return f"PST structure differs: kernel {kernel_pst} != reference {reference_pst}"

    kernel_cr = control_regions(cfg, validate=False)
    reference_cr = control_regions_reference(cfg, validate=False)
    if kernel_cr != reference_cr:
        return f"control regions differ: kernel {kernel_cr} != reference {reference_cr}"

    proc = case.proc
    for problem_cls in (ReachingDefinitions, LiveVariables, AvailableExpressions):
        problem = problem_cls(proc)
        kernel_flow = solve_iterative(proc.cfg, problem)
        reference_flow = solve_iterative_reference(proc.cfg, problem)
        if kernel_flow != reference_flow:
            nodes = [
                node
                for node in proc.cfg.nodes
                if kernel_flow.before[node] != reference_flow.before[node]
                or kernel_flow.after[node] != reference_flow.after[node]
            ]
            return (
                f"{problem_cls.__name__} fixpoint differs: kernel != reference "
                f"at nodes {nodes[:5]!r}"
            )
    return None


# ----------------------------------------------------------------------
# dominators
# ----------------------------------------------------------------------

def _diff_idoms(a: Dict, b: Dict, la: str, lb: str) -> Optional[str]:
    if a == b:
        return None
    keys = set(a) | set(b)
    diffs = [
        f"{node!r}: {la}={a.get(node)!r} {lb}={b.get(node)!r}"
        for node in keys
        if a.get(node) != b.get(node)
    ]
    return f"idom mismatch ({la} vs {lb}): " + "; ".join(sorted(diffs)[:5])


def _check_dominators(case: FuzzCase) -> Optional[str]:
    cfg = case.cfg
    iterative = immediate_dominators(cfg)
    lt = lengauer_tarjan(cfg)
    pst_based = pst_immediate_dominators(cfg)
    return (
        _diff_idoms(iterative, lt, "iterative", "lengauer-tarjan")
        or _diff_idoms(iterative, pst_based, "iterative", "pst")
    )


def _check_postdominators(case: FuzzCase) -> Optional[str]:
    reverse = case.cfg.reversed()
    iterative = immediate_dominators(reverse)
    lt = lengauer_tarjan(reverse)
    return _diff_idoms(iterative, lt, "iterative", "lengauer-tarjan")


# ----------------------------------------------------------------------
# control regions (Theorem 7)
# ----------------------------------------------------------------------

def _check_control_regions(case: FuzzCase) -> Optional[str]:
    cfg = case.cfg
    fast = control_regions(cfg, validate=False)
    by_def = control_regions_by_definition(cfg)
    if fast != by_def:
        return f"fast {fast} != definitional {by_def}"
    # The engine's path: node classes read off S's own cycle equivalence
    # when no node needs a split.
    reused = control_regions(
        cfg, validate=False, equiv=cycle_equivalence_of_cfg(cfg, validate=False)
    )
    if reused != by_def:
        return f"fast given S's classes {reused} != definitional {by_def}"
    cfs = control_regions_cfs(cfg)
    if fast != cfs:
        return f"fast {fast} != CFS90 {cfs}"
    return None


# ----------------------------------------------------------------------
# dataflow solvers
# ----------------------------------------------------------------------

def _diff_solutions(a, b, la: str, lb: str, nodes) -> Optional[str]:
    for node in nodes:
        if a.before[node] != b.before[node]:
            return (
                f"{la}.before[{node!r}]={sorted(map(repr, a.before[node]))} != "
                f"{lb}.before[{node!r}]={sorted(map(repr, b.before[node]))}"
            )
        if a.after[node] != b.after[node]:
            return (
                f"{la}.after[{node!r}]={sorted(map(repr, a.after[node]))} != "
                f"{lb}.after[{node!r}]={sorted(map(repr, b.after[node]))}"
            )
    return None


def _check_dataflow(case: FuzzCase) -> Optional[str]:
    """The QPG and PST elimination (gen/kill problems only) against the
    object-graph reference, which shares no code with the packed and
    generic kernels the QPG solves its rows with, on RD / LV / AE, every
    variable's reaching definitions and constant propagation."""
    proc = case.proc
    cfg = proc.cfg
    pst = build_pst(cfg)
    problems = [
        (problem_cls.__name__, problem_cls(proc))
        for problem_cls in (ReachingDefinitions, LiveVariables, AvailableExpressions)
    ]
    problems += [
        (f"VariableReachingDefs({var!r})", VariableReachingDefs(proc, var))
        for var in proc.variables()
    ]
    problems.append(("ConstantPropagation", ConstantPropagation(proc)))
    for name, problem in problems:
        reference = solve_iterative_reference(cfg, problem)
        solved = [("qpg", solve_qpg(cfg, problem, pst).solution)]
        if isinstance(problem, GenKillProblem):
            solved.append(("elimination", solve_elimination(cfg, problem, pst)))
        for solver, solution in solved:
            diff = _diff_solutions(
                reference, solution, "reference", f"{solver}[{name}]", cfg.nodes
            )
            if diff:
                return diff
    return None


# ----------------------------------------------------------------------
# resilience engine under fault injection
# ----------------------------------------------------------------------

def _check_fault_recovery(case: FuzzCase) -> Optional[str]:
    """The resilience engine must absorb every injected fault.

    The clean run must be undegraded and equal the object-graph references
    (the PST over the reference cycle equivalence, Lengauer-Tarjan, the
    T(S) control regions), which share no code with the engine's fast
    paths or its checks.  Then, for each fault site, a persistent fault and
    a transient one (a single firing) are injected in turn and
    :func:`repro.resilience.engine.run_analysis` is run; the engine must
    report success (detecting the corruption and falling back or retrying,
    or the fault being masked) and its results must equal the clean run's.
    """
    from repro.resilience import engine as _engine
    from repro.resilience import faults as _faults

    cfg = case.cfg
    clean = _engine.run_analysis(cfg)
    if not clean.ok:
        return f"engine failed on clean input: {clean.error}"
    if clean.degraded:
        return (
            "engine degraded on clean input: "
            + "; ".join(a.describe() for a in clean.diagnostic.failures())
        )

    def regions(pst):
        return sorted((r.entry.eid, r.exit.eid) for r in pst.canonical_regions())

    clean_pst = regions(clean.pst)
    references = {
        "PST regions (edge-id pairs)": (clean_pst, regions(
            build_pst_reference(cfg, cycle_equivalence_of_cfg_reference(cfg))
        )),
        "idoms": (clean.idom, lengauer_tarjan_reference(cfg)),
        "control regions": (clean.control_regions, control_regions_reference(cfg)),
    }
    for what, (ours, reference) in references.items():
        if ours != reference:
            return f"clean {what} {ours} != reference {reference}"
    plans = [
        (site.name if max_fires is None else f"{site.name} x1", site.name, max_fires)
        for site in _faults.ALL_SITES
        for max_fires in (None, 1)
    ]
    for label, name, max_fires in plans:
        plan = _faults.FaultPlan(sites=[name], seed=case.seed, max_fires=max_fires)
        with _faults.inject(plan):
            injected = _engine.run_analysis(cfg)
        if not injected.ok:
            return f"[{label}] engine failed under injection: {injected.error}"
        if injected.idom != clean.idom:
            return f"[{label}] recovered idoms differ from the clean run"
        if injected.control_regions != clean.control_regions:
            return f"[{label}] recovered control regions differ from the clean run"
        injected_pst = regions(injected.pst)
        if injected_pst != clean_pst:
            return (
                f"[{label}] recovered PST regions {injected_pst} != "
                f"clean {clean_pst} (edge-id pairs)"
            )
    return None


# ----------------------------------------------------------------------
# incremental maintenance under edit streams
# ----------------------------------------------------------------------

EDIT_STREAM_STEPS = 24


def _graph_snapshot(cfg: CFG) -> tuple:
    return (
        tuple(sorted(map(repr, cfg.nodes))),
        tuple(sorted((e.eid, repr(e.source), repr(e.target), e.label) for e in cfg.edges)),
    )


def _check_incremental_edit_stream(case: FuzzCase) -> Optional[str]:
    """The fast/slow differential for the edit layer (ISSUE 10's oracle).

    Drives an :class:`~repro.incremental.EditSession` through a seeded
    random stream of deltas (edge/node insertions and removals plus
    undos) over a copy of the case's CFG.  After every *accepted* delta
    the maintained cycle-equivalence partition and PST must equal a
    recompute-from-scratch, and the session's cached dominators must
    equal a fresh Lengauer-Tarjan run (exercising the per-key stale
    invalidation).  Every *rejected* delta must leave the graph -- node
    set, edge ids, labels -- exactly as it was.
    """
    import random as _random

    from repro.incremental import DeltaValidationError, EditSession
    from repro.incremental.compare import diff_artifacts

    cfg = case.cfg.copy()
    session = EditSession(cfg)
    rng = _random.Random(case.seed ^ 0xED17)
    fresh = 0

    for step in range(EDIT_STREAM_STEPS):
        nodes = list(cfg.nodes)
        interior = [n for n in nodes if n != cfg.start and n != cfg.end]
        roll = rng.random()
        before = _graph_snapshot(cfg)
        try:
            if roll < 0.40 or not interior:
                # Deliberately unrestricted endpoints: some of these are
                # invalid (into start, out of end, severing paths) and
                # exercise the rejection/rollback arm.
                session.add_edge(rng.choice(nodes), rng.choice(nodes))
            elif roll < 0.60:
                edge = rng.choice(cfg.edges)
                session.remove_edge(edge.source, edge.target, eid=edge.eid)
            elif roll < 0.72:
                anchor = rng.choice(interior)
                fresh += 1
                session.add_node(
                    ("fresh", case.seed, fresh),
                    preds=[anchor],
                    succs=[rng.choice(interior)],
                )
            elif roll < 0.84:
                session.remove_node(rng.choice(interior))
            elif session.applied_deltas:
                session.undo()
            else:
                continue
        except DeltaValidationError:
            if _graph_snapshot(cfg) != before:
                return f"step {step}: rejected delta did not restore the graph exactly"
            continue
        scratch_equiv = cycle_equivalence_of_cfg(cfg, validate=False)
        scratch_pst = build_pst(cfg, scratch_equiv)
        detail = diff_artifacts(
            session.equiv.class_of, session.pst, scratch_equiv.class_of, scratch_pst
        )
        if detail is not None:
            return f"step {step}: maintained artifacts diverged: {detail}"
        if session.dominators() != lengauer_tarjan(cfg):
            return f"step {step}: session dominators diverged from fresh Lengauer-Tarjan"
    return None


# ----------------------------------------------------------------------
# φ-placement
# ----------------------------------------------------------------------

def _check_phi_placement(case: FuzzCase) -> Optional[str]:
    proc = case.proc
    cytron = phi_blocks_cytron(proc)
    pst_based = phi_blocks_pst(proc)
    if cytron == pst_based:
        return None
    for var in sorted(set(cytron) | set(pst_based)):
        a, b = cytron.get(var, set()), pst_based.get(var, set())
        if a != b:
            return (
                f"φ-blocks for {var!r}: cytron={sorted(map(repr, a))} "
                f"pst={sorted(map(repr, b))}"
            )
    return None


ALL_ORACLES: List[Oracle] = [
    Oracle("cycle-equiv/bracket-sets", _check_cycle_equiv_bracket_sets),
    Oracle("cycle-equiv/bruteforce", _check_cycle_equiv_bruteforce),
    Oracle("sese/slow-partition", _check_sese_slow_partition),
    Oracle("sese/definition", _check_sese_definition),
    Oracle("pst/structure", _check_pst_structure),
    Oracle("kernel/reference", _check_kernel_reference),
    Oracle("dominators/matrix", _check_dominators),
    Oracle("postdominators/pair", _check_postdominators),
    Oracle("control-regions/matrix", _check_control_regions),
    Oracle("dataflow/solvers", _check_dataflow),
    Oracle("phi/placement", _check_phi_placement),
    Oracle("resilience/fault-recovery", _check_fault_recovery),
    Oracle("incremental/edit-stream", _check_incremental_edit_stream),
]

ORACLES_BY_NAME: Dict[str, Oracle] = {oracle.name: oracle for oracle in ALL_ORACLES}


def run_oracles(
    case: FuzzCase, oracles: Optional[Sequence[Oracle]] = None
) -> List[Divergence]:
    """Run (a subset of) the matrix on one case; empty list means agreement."""
    out: List[Divergence] = []
    for oracle in oracles if oracles is not None else ALL_ORACLES:
        divergence = oracle.run(case)
        if divergence is not None:
            out.append(divergence)
    return out
