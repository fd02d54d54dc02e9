"""One frozen snapshot per graph, kept on the graph.

Freezing is O(V + E) -- cheap, but not free when every public entry point
(`cycle_equivalence_of_cfg`, `lengauer_tarjan`, `control_regions`,
`solve_iterative`) needs the same snapshot of the same graph.  The snapshot
is derived data of its graph, so :func:`shared_frozen` keeps it on the graph
itself (``cfg._frozen``) and re-freezes only when the CFG's mutation
``version`` moves.  The snapshot holds its graph weakly, so there is no
reference cycle: reference counting frees the graph and its snapshot
together once the last caller drops the graph.

Only *structural* state is shared here.  Analysis results are never cached
globally -- public functions must recompute on every call so that fault
injection and the resilience engine's retry ladder observe fresh runs;
result memoization is the explicit opt-in job of
:class:`~repro.kernel.session.AnalysisSession`.
"""

from __future__ import annotations

from repro.cfg.graph import CFG
from repro.kernel.csr import FrozenCFG, freeze
from repro.obs import observer as _obs


def shared_frozen(cfg: CFG) -> FrozenCFG:
    """The current snapshot of ``cfg``, freezing (or re-freezing) on demand.

    Returns the snapshot kept on the graph when it matches the CFG's
    current ``version``; otherwise freezes anew and keeps that one.
    """
    frozen = cfg._frozen
    o = _obs._CURRENT
    if frozen is None or frozen.version != cfg.version:
        if o is not None:
            o.count("frozen.cache", result="miss")
            with o.span("freeze", n_nodes=cfg.num_nodes, n_edges=cfg.num_edges):
                frozen = freeze(cfg)
        else:
            frozen = freeze(cfg)
        cfg._frozen = frozen
    elif o is not None:
        o.count("frozen.cache", result="hit")
    return frozen
