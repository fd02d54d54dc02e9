"""The guarded analysis orchestrator: fast path, verified fallback.

:func:`run_analysis` runs the paper's analyses the way a production service
must: the O(E) fast algorithms first, each result validated against cheap
postconditions, and -- on an invariant failure, an internal crash, or a
tripped guard -- a bounded retry ladder that degrades to the slow reference
implementations (the §3.3 bracket-set algorithm, Cooper-Harvey-Kennedy
iterative dominators, the CFS90 partition refinement).  The caller always
gets an :class:`AnalysisResult` tagged with a :class:`Diagnostic` recording
which path ran, why, and how long it took; the function itself never raises.

This is the pairing Chalupa et al. use for their strong-control-dependence
algorithms -- fast algorithm shipped together with a slow checker -- promoted
from a test-time oracle to a first-class runtime mechanism.

Postconditions per stage (all independent of the fast algorithms and of
every fault site in :mod:`repro.resilience.faults`).  They read one
witness per run: the iterative (Cooper-Harvey-Kennedy) dominator and
postdominator trees of G's own CSR snapshot, each computed on first use,
and the control-dependence sums read off the postdominator tree.

* **pst** -- node ownership is a partition of the CFG's nodes; every
  canonical region's entry edge dominates its exit edge and the exit edge
  postdominates the entry edge (the Definition-of-SESE dominance
  conditions); and the cycle-equivalence classes are checked in full:
  against the §3.3 bracket-set reference for graphs within
  ``full_check_limit`` edges, against the edges' control-dependence sums
  past it.  Edge dominance needs no edge-split copy: for distinct edges
  ``a = (u -> v)`` and ``b = (x -> y)``, ``a`` dominates ``b`` iff ``v``
  dominates ``x`` and ``a`` is the only in-edge of ``v`` from a node
  ``v`` does not dominate; ``b`` postdominates ``a`` iff ``x``
  postdominates ``v`` and ``b`` is the only out-edge of ``x`` to a node
  ``x`` does not postdominate.
* **dominators** -- the Lengauer-Tarjan tree is cross-checked against the
  witness's iterative dominator tree.
* **control-regions** -- the groups partition the node set, ``start`` and
  ``end`` share a group (both are always-executed), and the groups are
  checked in full: against the CFS90 baseline within
  ``full_check_limit`` edges, against the nodes' control-dependence sums
  past it.

The sums (:func:`~repro.kernel.dominance.control_dependence_sums`) give
equal control-dependence sets equal sums, and Theorem 7 makes equal sets
the classes; so a class the fast path wrongly split is always caught, and
a wrong merge escapes only on a 64-bit collision.

The fallback ladder per stage is ``fast``, ``fast-retry`` x ``fast_retries``
(recovers transient faults), then ``slow``.  Slow results pass through the
same postconditions (minus the self-comparison), so a degraded answer is
still a *verified* answer.

Stages share one artifact, and only a checked one: once the PST stage has
passed its postconditions, the control-regions fast path reads node
classes off that stage's cycle equivalence instead of running Figure 4
again (:func:`~repro.controldep.regions_fast.control_regions`,
``equiv=``).  The control-regions checks do not trust the reuse; a wrong
class there fails them like any other wrong fast answer.  A graph whose
snapshot already passed :func:`~repro.cfg.validate.validate_cfg` skips
the input check.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.cfg.graph import CFG, Edge, NodeId
from repro.cfg.validate import check_cfg
from repro.controldep.regions_cfs import control_regions_cfs
from repro.controldep.regions_fast import control_regions
from repro.core.cycle_equiv import CycleEquivalence, cycle_equivalence_of_cfg
from repro.core.cycle_equiv_slow import cycle_equivalence_bracket_sets
from repro.core.pst import ProgramStructureTree, build_pst
from repro.dominance.iterative import immediate_dominators, iterative_dominator_indices
from repro.dominance.lengauer_tarjan import lengauer_tarjan
from repro.kernel.dominance import (
    EdgeDominance,
    control_dependence_sums,
    idoms_by_node,
)
from repro.kernel.registry import shared_frozen
from repro.config import (
    ALL_ANALYSES,
    DEFAULT_CONFIG,
    AnalysisConfig,
)
from repro.errors import (
    BudgetExceeded,
    DeadlineExceeded,
    PostconditionError,
)
from repro.obs import observer as _obs
from repro.resilience import faults as faults_mod
from repro.resilience.guards import Ticker


@dataclass
class Attempt:
    """One rung of one stage's fallback ladder."""

    stage: str
    path: str  # "fast" | "fast-retry" | "slow" | "validate"
    outcome: str  # "ok" | "postcondition" | "crash" | "budget" | "deadline" | "invalid"
    detail: str = ""
    elapsed: float = 0.0
    #: Per-phase timing marks (see :meth:`~repro.resilience.guards.Ticker.mark`),
    #: populated only when the ambient observer asked for profiling.
    profile: Optional[List[dict]] = None

    def describe(self) -> str:
        text = f"{self.stage}: {self.path} {self.outcome} ({self.elapsed:.4f}s)"
        if self.detail:
            text += f" -- {self.detail}"
        return text


@dataclass
class Diagnostic:
    """What :func:`run_analysis` did: every attempt, in order."""

    attempts: List[Attempt] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def paths(self) -> Dict[str, str]:
        """stage -> path of the attempt that produced the stage's result."""
        return {a.stage: a.path for a in self.attempts if a.outcome == "ok"}

    @property
    def degraded(self) -> bool:
        """True iff any stage needed more than its first fast attempt."""
        return any(a.outcome != "ok" or a.path != "fast" for a in self.attempts)

    def failures(self) -> List[Attempt]:
        return [a for a in self.attempts if a.outcome != "ok"]

    def render(self) -> str:
        lines = [a.describe() for a in self.attempts]
        lines.append(f"total elapsed: {self.elapsed:.4f}s")
        return "\n".join(lines)


@dataclass
class AnalysisResult:
    """The engine's answer: per-stage results plus the diagnostic trail.

    ``ok`` means every requested stage produced a verified result.  Stages
    that failed (or were skipped after a deadline) leave their field
    ``None`` and put the reason in ``error``.
    """

    ok: bool
    diagnostic: Diagnostic
    pst: Optional[ProgramStructureTree] = None
    idom: Optional[Dict[NodeId, NodeId]] = None
    control_regions: Optional[List[List[NodeId]]] = None
    error: Optional[str] = None

    @property
    def degraded(self) -> bool:
        return self.diagnostic.degraded


def run_analysis(
    cfg: CFG,
    analyses: Optional[Sequence[str]] = None,
    *,
    config: Optional[AnalysisConfig] = None,
    clock: Callable[[], float] = time.monotonic,
) -> AnalysisResult:
    """Run the requested analyses resiliently; never raises.

    All tuning lives in ``config`` (an
    :class:`~repro.config.AnalysisConfig`): ``deadline`` (seconds) is global
    across all stages and attempts; ``step_budget`` applies per attempt
    (slow fallbacks get a fresh budget); ``fast_retries`` extra fast
    attempts run before falling back, which is what recovers *transient*
    corruption.  ``config.observer`` is installed ambiently for the call so
    one trace covers fast path, retries, and slow fallback alike;
    ``config.faults`` is injected for the call's duration.  An observer
    built with ``profile=True`` arms per-phase timers on every attempt's
    ticker.

    ``analyses`` overrides ``config.analyses`` when given (default: all
    stages).
    """
    if config is None:
        config = DEFAULT_CONFIG
    if analyses is None:
        analyses = config.analyses if config.analyses is not None else ALL_ANALYSES
    try:
        with _obs.observe(config.observer):
            if config.faults is not None:
                with faults_mod.inject(config.faults):
                    return _run_analysis(cfg, analyses, config, clock)
            return _run_analysis(cfg, analyses, config, clock)
    except Exception as error:  # pragma: no cover - last-resort containment
        diagnostic = Diagnostic(
            attempts=[
                Attempt(
                    stage="engine",
                    path="engine",
                    outcome="crash",
                    detail=f"{type(error).__name__}: {error}",
                )
            ]
        )
        return AnalysisResult(
            ok=False,
            diagnostic=diagnostic,
            error=f"engine crash: {type(error).__name__}: {error}",
        )


def _run_analysis(
    cfg: CFG,
    analyses: Sequence[str],
    config: AnalysisConfig,
    clock: Callable[[], float],
) -> AnalysisResult:
    o = _obs._CURRENT
    if o is None:
        return _run_ladders(cfg, analyses, config, clock, None)
    started = clock()
    with o.span(
        "run_analysis",
        cfg=str(cfg.name),
        n_nodes=cfg.num_nodes,
        n_edges=cfg.num_edges,
        analyses=",".join(analyses),
    ) as root:
        result = _run_ladders(cfg, analyses, config, clock, o)
        if not result.ok:
            root.fail(result.error or "analysis failed")
        # Engine-side latency histogram: recorded inside the worker shard
        # on parallel batches, so cross-process merges carry real per-run
        # timings, not just the parent's batch.item_seconds.
        o.observe_value("engine.run_seconds", clock() - started)
        return result


def _run_ladders(
    cfg: CFG,
    analyses: Sequence[str],
    config: AnalysisConfig,
    clock: Callable[[], float],
    o,
) -> AnalysisResult:
    unknown = [name for name in analyses if name not in ALL_ANALYSES]
    if unknown:
        return AnalysisResult(
            ok=False,
            diagnostic=Diagnostic(),
            error=f"unknown analyses: {', '.join(unknown)}",
        )

    started = clock()
    deadline_at = None if config.deadline is None else started + config.deadline
    diagnostic = Diagnostic()
    errors: List[str] = []

    def record(attempt: Attempt, span=None) -> None:
        # One call per Attempt: the engine.* counters and the diagnostic
        # trail stay in lockstep by construction.
        diagnostic.attempts.append(attempt)
        if o is not None:
            o.count(
                "engine.attempts",
                stage=attempt.stage,
                path=attempt.path,
                outcome=attempt.outcome,
            )
            if attempt.path == "fast-retry":
                o.count("engine.retries", stage=attempt.stage)
            elif attempt.path == "slow":
                o.count("engine.fallbacks", stage=attempt.stage)
        if span is not None:
            if attempt.profile is not None:
                span.set(profile=attempt.profile)
            if attempt.outcome != "ok":
                span.fail(attempt.detail or attempt.outcome)
            span.finish()

    # ------------------------------------------------------------------
    # Stage 0: input validation.  An invalid CFG is a *rejected input*,
    # not a degradation -- the slow references need Definition 1 too.
    # ------------------------------------------------------------------
    validate_started = clock()
    vspan = None if o is None else o.span("validate")
    try:
        # Each snapshot is probed once: not again after validate_cfg (a
        # validating builder, lowering, an EditSession), and not by the
        # checks' own reference calls after this.
        frozen = shared_frozen(cfg)
        problems = [] if frozen.validated else check_cfg(cfg)
        if not problems:
            frozen.validated = True
    except Exception as error:
        problems = [f"validation crashed: {type(error).__name__}: {error}"]
    if problems:
        detail = "; ".join(problems)
        record(
            Attempt(
                stage="validate",
                path="validate",
                outcome="invalid",
                detail=detail,
                elapsed=clock() - validate_started,
            ),
            vspan,
        )
        diagnostic.elapsed = clock() - started
        return AnalysisResult(
            ok=False, diagnostic=diagnostic, error=f"invalid CFG: {detail}"
        )
    if vspan is not None:
        vspan.finish()

    # Every attempt calls the public entry points, which recompute on each
    # call (fault injection sees fresh runs).  Across stages only the
    # graph's CSR snapshot is shared, and one artifact that has passed its
    # checks: the control-regions stage reads node classes off the PST
    # stage's verified cycle equivalence (see _build_stages).
    results: Dict[str, object] = {}
    stages = _build_stages(cfg, config.full_check_limit, results)
    aborted = False
    profile_on = o is not None and o.profile

    for name in analyses:
        if aborted:
            record(Attempt(stage=name, path="-", outcome="deadline", detail="skipped"))
            errors.append(f"{name}: skipped after deadline")
            continue
        fast, slow, checker = stages[name]
        ladder: List[Tuple[str, Callable, bool]] = [("fast", fast, True)]
        ladder.extend(("fast-retry", fast, True) for _ in range(config.fast_retries))
        ladder.append(("slow", slow, False))

        stage_span = None if o is None else o.span(f"stage:{name}")
        stage_ok = False
        for path, compute, cross_check in ladder:
            attempt_started = clock()
            remaining = None if deadline_at is None else deadline_at - attempt_started
            if remaining is not None and remaining <= 0:
                record(
                    Attempt(stage=name, path=path, outcome="deadline",
                            detail="deadline passed before attempt")
                )
                aborted = True
                break
            ticker = (
                None
                if remaining is None and config.step_budget is None and not profile_on
                else Ticker(
                    deadline=remaining,
                    step_budget=config.step_budget,
                    check_every=config.check_every,
                    clock=clock,
                )
            )
            if ticker is not None and profile_on:
                ticker.profile = []
            aspan = None if o is None else o.span(f"attempt:{path}", stage=name)
            try:
                value = compute(ticker)
                checker(value, cross_check, ticker)
            except DeadlineExceeded as error:
                record(
                    Attempt(stage=name, path=path, outcome="deadline",
                            detail=str(error), elapsed=clock() - attempt_started,
                            profile=None if ticker is None else ticker.profile),
                    aspan,
                )
                aborted = True
                break
            except BudgetExceeded as error:
                record(
                    Attempt(stage=name, path=path, outcome="budget",
                            detail=str(error), elapsed=clock() - attempt_started,
                            profile=None if ticker is None else ticker.profile),
                    aspan,
                )
                continue
            except PostconditionError as error:
                record(
                    Attempt(stage=name, path=path, outcome="postcondition",
                            detail=str(error), elapsed=clock() - attempt_started,
                            profile=None if ticker is None else ticker.profile),
                    aspan,
                )
                continue
            except Exception as error:
                record(
                    Attempt(stage=name, path=path, outcome="crash",
                            detail=f"{type(error).__name__}: {error}",
                            elapsed=clock() - attempt_started,
                            profile=None if ticker is None else ticker.profile),
                    aspan,
                )
                continue
            record(
                Attempt(stage=name, path=path, outcome="ok",
                        elapsed=clock() - attempt_started,
                        profile=None if ticker is None else ticker.profile),
                aspan,
            )
            results[name] = value
            stage_ok = True
            break

        if aborted:
            errors.append(f"{name}: deadline exceeded")
        elif not stage_ok:
            errors.append(f"{name}: all attempts failed (fallback ladder exhausted)")
        if stage_span is not None:
            if not stage_ok:
                stage_span.fail(errors[-1])
            stage_span.finish()

    diagnostic.elapsed = clock() - started
    pst = results.get("pst")
    return AnalysisResult(
        ok=not errors,
        diagnostic=diagnostic,
        pst=pst[1] if pst is not None else None,
        idom=results.get("dominators"),
        control_regions=results.get("control-regions"),
        error="; ".join(errors) if errors else None,
    )


# ----------------------------------------------------------------------
# stage definitions: (fast, slow, checker) triples
# ----------------------------------------------------------------------

def _build_stages(cfg: CFG, full_check_limit: int, results: Dict[str, object]):
    # The iterative (CHK) dominator and postdominator trees, and what the
    # checks read off them, are computed once per run, on first use, and
    # shared by every check.  None of it shares code or a fault site with
    # the fast paths.  ``results`` holds each stage's value once it has
    # passed its checks.
    witness: Dict[str, object] = {}

    def shared(name: str, compute: Callable[[], object]):
        if name not in witness:
            witness[name] = compute()
        return witness[name]

    def dom_tree(ticker) -> List[int]:
        return shared("idom", lambda: iterative_dominator_indices(cfg, ticker))

    def edge_dom(ticker) -> EdgeDominance:
        return shared("edge_dom", lambda: EdgeDominance(
            shared_frozen(cfg),
            dom_tree(ticker),
            iterative_dominator_indices(cfg, ticker, reverse=True),
        ))

    def dependence_sums(ticker) -> Tuple[List[int], List[int]]:
        return shared(
            "sums", lambda: control_dependence_sums(edge_dom(ticker), ticker)
        )

    def pst_fast(ticker):
        equiv = cycle_equivalence_of_cfg(cfg, validate=False, ticker=ticker)
        return equiv, build_pst(cfg, equiv, ticker=ticker)

    def pst_slow(ticker):
        equiv = _slow_cycle_equivalence(cfg)
        return equiv, build_pst(cfg, equiv)

    def pst_check(value, cross_check, ticker):
        equiv, pst = value
        _check_pst_structure(cfg, pst)
        _check_sese_dominance(cfg, pst, edge_dom(ticker))
        if not cross_check:
            return
        if cfg.num_edges <= full_check_limit:
            _check_equiv_against_reference(cfg, equiv)
        else:
            edges = cfg.edges
            _check_against_sums(
                "cycle equivalence",
                equiv.positional,  # the kernel's classes, by edge index
                dependence_sums(ticker)[0],
                lambda e: f"edge {edges[e]!r}",
            )

    def dom_fast(ticker):
        return lengauer_tarjan(cfg, ticker=ticker)

    def dom_slow(ticker):
        return immediate_dominators(cfg, ticker=ticker)

    def dom_check(value, cross_check, ticker):
        if not cross_check:
            return  # the iterative fixpoint is the reference
        reference = idoms_by_node(shared_frozen(cfg), dom_tree(ticker))
        if value != reference:
            diffs = [
                f"{node!r}: fast={value.get(node)!r} reference={reference.get(node)!r}"
                for node in set(value) | set(reference)
                if value.get(node) != reference.get(node)
            ]
            raise PostconditionError(
                "idom mismatch vs iterative reference: " + "; ".join(sorted(diffs)[:5])
            )

    def cr_fast(ticker):
        # The PST stage's cycle equivalence, once that stage has passed its
        # checks (a slow PST carries no positional classes and is not
        # reused).  cr_check below does not trust it: a wrong reuse fails
        # CFS90 or the sums like any wrong fast answer.
        pst = results.get("pst")
        equiv = None if pst is None else pst[0]
        return control_regions(cfg, validate=False, ticker=ticker, equiv=equiv)

    def cr_slow(ticker):
        return control_regions_cfs(cfg)

    def cr_check(value, cross_check, ticker):
        _check_control_partition(cfg, value)
        if not cross_check:
            return
        if cfg.num_edges <= full_check_limit:
            reference = control_regions_cfs(cfg)
            if value != reference:
                raise PostconditionError(
                    f"control regions diverge from CFS90 reference: "
                    f"fast={value} reference={reference}"
                )
        else:
            frozen = shared_frozen(cfg)
            index_of = frozen.index_of
            labels = [0] * frozen.num_nodes
            for group_index, group in enumerate(value):
                for node in group:
                    labels[index_of[node]] = group_index
            _check_against_sums(
                "control regions",
                labels,
                dependence_sums(ticker)[1],
                lambda i: f"node {frozen.node_ids[i]!r}",
            )

    return {
        "pst": (pst_fast, pst_slow, pst_check),
        "dominators": (dom_fast, dom_slow, dom_check),
        "control-regions": (cr_fast, cr_slow, cr_check),
    }


# ----------------------------------------------------------------------
# postconditions
# ----------------------------------------------------------------------

def _check_pst_structure(cfg: CFG, pst: ProgramStructureTree) -> None:
    """Node ownership must partition the CFG's nodes."""
    seen = set()
    for region in pst.regions():
        for node in region.own_nodes:
            if node in seen:
                raise PostconditionError(f"PST: node {node!r} owned by two regions")
            seen.add(node)
    missing = [n for n in cfg.nodes if n not in seen]
    if missing:
        raise PostconditionError(f"PST: nodes {missing[:5]!r} not owned by any region")


def _check_sese_dominance(
    cfg: CFG, pst: ProgramStructureTree, edge_dom: EdgeDominance
) -> None:
    """Definition-of-SESE dominance conditions for every canonical region.

    Decided from G's own iterative dominator and postdominator trees
    (:class:`~repro.kernel.dominance.EdgeDominance`): the *iterative*
    kernel shares no code with the fast path and carries no fault sites.
    Each region costs the degree of its two boundary nodes.
    """
    for region in pst.canonical_regions():
        if not edge_dom.dominates(region.entry, region.exit):
            raise PostconditionError(
                f"PST: region {region.describe()}: entry does not dominate exit"
            )
        if not edge_dom.postdominates(region.exit, region.entry):
            raise PostconditionError(
                f"PST: region {region.describe()}: exit does not postdominate entry"
            )


def _slow_cycle_equivalence(cfg: CFG) -> CycleEquivalence:
    """The §3.3 bracket-set reference, adapted to ``cfg``'s own edges.

    The slow algorithm runs on the materialized augmented graph; its edges
    correspond *positionally* to ``cfg.edges`` (``with_return_edge`` copies
    them in order), with the return edge last.  The mapping must be by
    position, not edge id -- the copy renumbers edges, and graphs that had
    edges removed have id gaps.
    """
    augmented, back = cfg.with_return_edge()
    slow = cycle_equivalence_bracket_sets(augmented)
    key_to_class: Dict[object, int] = {}
    classes: Dict[Edge, int] = {}
    copies = [edge for edge in augmented.edges if edge is not back]
    assert len(copies) == len(cfg.edges)
    for original, copy in zip(cfg.edges, copies):
        classes[original] = key_to_class.setdefault(slow[copy], len(key_to_class))
    return CycleEquivalence(classes)


def _partition_of(classes: Dict[Edge, object]):
    groups: Dict[object, List[int]] = {}
    for edge, cls in classes.items():
        groups.setdefault(cls, []).append(edge.eid)
    return {frozenset(eids) for eids in groups.values()}


def _check_equiv_against_reference(cfg: CFG, equiv: CycleEquivalence) -> None:
    """Full partition cross-check against the §3.3 slow reference."""
    reference = _slow_cycle_equivalence(cfg)
    fast_partition = _partition_of(equiv.class_of)
    slow_partition = _partition_of(reference.class_of)
    if fast_partition != slow_partition:
        only_fast = sorted(sorted(s) for s in fast_partition - slow_partition)
        only_slow = sorted(sorted(s) for s in slow_partition - fast_partition)
        raise PostconditionError(
            "cycle-equivalence partition diverges from bracket-set reference: "
            f"fast-only {only_fast} vs reference-only {only_slow} (edge ids)"
        )


def _check_against_sums(
    what: str,
    labels: Sequence[object],
    sums: List[int],
    describe: Callable[[int], str],
) -> None:
    """``labels`` must partition the items exactly as ``sums`` do.

    ``sums`` come from
    :func:`~repro.kernel.dominance.control_dependence_sums`: equal sums
    mean equal control-dependence sets, which Theorem 7 makes the classes.
    """
    sum_of: Dict[object, int] = {}
    label_of: Dict[int, object] = {}
    for i, (label, total) in enumerate(zip(labels, sums)):
        if sum_of.setdefault(label, total) != total:
            raise PostconditionError(
                f"{what}: {describe(i)} shares a class with an item of "
                "another control-dependence set"
            )
        if label_of.setdefault(total, label) != label:
            raise PostconditionError(
                f"{what}: {describe(i)} is split from an item of the same "
                "control-dependence set"
            )


def _check_control_partition(cfg: CFG, groups: List[List[NodeId]]) -> None:
    """Groups must partition the node set; start and end must share one."""
    seen: Dict[NodeId, int] = {}
    for index, group in enumerate(groups):
        for node in group:
            if node in seen:
                raise PostconditionError(
                    f"control regions: node {node!r} appears in two groups"
                )
            seen[node] = index
    missing = [n for n in cfg.nodes if n not in seen]
    if missing:
        raise PostconditionError(
            f"control regions: nodes {missing[:5]!r} missing from the partition"
        )
    extra = [n for n in seen if not cfg.has_node(n)]
    if extra:
        raise PostconditionError(
            f"control regions: unknown nodes {extra[:5]!r} in the partition"
        )
    if seen[cfg.start] != seen[cfg.end]:
        raise PostconditionError(
            "control regions: start and end (both always-executed) are in "
            "different groups"
        )
