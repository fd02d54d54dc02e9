"""Seeded inputs and their expected answers.

Every input graph is a plain dict -- ``nodes`` (``start`` and ``end``
first), ``edges`` as index pairs and ``expected`` -- shared by the stdlib corpus
(:mod:`stdlib_corpus`) and the large-graph pool built here.  A request
renames interior nodes with a per-request prefix, so the service sees a
new graph (a new cache key) while the expected answer, which is
invariant under renaming, is computed once per graph.

Expected answers come from the object-graph reference implementations
(``build_pst_reference``, ``lengauer_tarjan_reference``,
``control_regions_reference``), never from the kernels under test.
"""

from __future__ import annotations

import itertools
import json
import os
import platform
import random
import sys
from typing import Callable, Dict, Iterator, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_SRC = os.path.join(os.path.dirname(os.path.dirname(HERE)), "src")
#: Generated inputs; the directory carries a ``.gitignore`` ignoring itself.
CACHE_DIR = os.path.join(HERE, ".cache")

#: The large-graph pool: (statements, graphs) per band, weighted 1:2:1
#: so half the pool sits at 4k statements.
POOL_BANDS: Tuple[Tuple[int, int], ...] = ((2000, 4), (4000, 8), (8000, 4))
#: Pool graphs are fixed; a run's seed chooses only the order of draws,
#: the renaming prefixes and the deltas.  Fixing the pool keeps per-seed
#: spread down to sampling noise.
POOL_SEED = 1994
#: Candidates generated per pool slot; the pool keeps, per band, those
#: whose node counts are nearest the band's median.
POOL_CANDIDATES = 3


def use_repo_src() -> None:
    """Import ``repro`` from this checkout's ``src/``, or exit with status 2.

    An installed ``repro`` elsewhere on the path must never stand in for
    the code under test, so the checkout's copy is required and first.
    """
    if not os.path.isfile(os.path.join(REPO_SRC, "repro", "__init__.py")):
        print(f"error: no repro package under {REPO_SRC}", file=sys.stderr)
        raise SystemExit(2)
    if sys.path[0] != REPO_SRC:
        sys.path.insert(0, REPO_SRC)


def cache_dir() -> str:
    """``CACHE_DIR``, created with the ``.gitignore`` that ignores it."""
    os.makedirs(CACHE_DIR, exist_ok=True)
    marker = os.path.join(CACHE_DIR, ".gitignore")
    if not os.path.exists(marker):
        with open(marker, "w") as handle:
            handle.write("*\n")
    return CACHE_DIR


def cached_json(kind: str, build: Callable[[], list]) -> list:
    """``build()``'s result, cached in ``.cache/`` per Python version."""
    tag = f"{platform.python_implementation().lower()}-{platform.python_version()}"
    path = os.path.join(CACHE_DIR, f"{kind}-{tag}.json")
    if os.path.exists(path):
        with open(path) as handle:
            return json.load(handle)
    value = build()
    cache_dir()
    partial = f"{path}.{os.getpid()}.tmp"
    with open(partial, "w") as handle:
        json.dump(value, handle, separators=(",", ":"))
    os.replace(partial, path)
    return value


def node_names(graph: dict, prefix: str = "") -> List[str]:
    nodes = graph["nodes"]
    return nodes[:2] + [prefix + node for node in nodes[2:]]


def spelling(graph: dict, prefix: str = "") -> List[List[str]]:
    """The service's ``cfg.edges`` wire spelling with renamed interior nodes."""
    names = node_names(graph, prefix)
    return [[names[s], names[t]] for s, t in graph["edges"]]


def to_cfg(graph: dict, prefix: str = ""):
    from repro.cfg.builder import cfg_from_edges

    return cfg_from_edges(spelling(graph, prefix), validate=False)


def graph_of_procedure(proc) -> dict:
    """The dict form of a lowered procedure's CFG (start and end first)."""
    cfg = proc.cfg
    order = [cfg.start, cfg.end] + [n for n in cfg.nodes if n not in (cfg.start, cfg.end)]
    index_of = {node: i for i, node in enumerate(order)}
    return {
        "name": proc.name,
        "nodes": [str(n) for n in order],
        "edges": [[index_of[e.source], index_of[e.target]] for e in cfg.edges],
    }


def expected_summary(cfg) -> List[int]:
    """``[pst.regions, dominators.entries, control-regions.classes]``."""
    from repro.controldep.regions_fast import control_regions_reference
    from repro.core.pst import build_pst_reference
    from repro.dominance.lengauer_tarjan import lengauer_tarjan_reference

    return [
        len(build_pst_reference(cfg).canonical_regions()),
        len(lengauer_tarjan_reference(cfg)),
        len(control_regions_reference(cfg)),
    ]


def body_summary(body: dict) -> Optional[List[int]]:
    """The same three numbers read from a ``/run_analysis`` response."""
    try:
        analyses = body["analyses"]
        return [
            analyses["pst"]["regions"],
            analyses["dominators"]["entries"],
            analyses["control-regions"]["classes"],
        ]
    except (KeyError, TypeError):
        return None


def load_pool() -> List[dict]:
    """The 16 large graphs with expected summaries, cached per Python."""
    return cached_json("pool", _build_pool)


def _build_pool() -> List[dict]:
    """Per band, the graphs nearest the band's median size.

    ``random_lowered_procedure`` node counts vary by a factor of two at a
    fixed statement target; keeping the middle of the candidates makes a
    band a size class, so which graph of a band a seed draws matters less.
    """
    from repro.synth.structured import random_lowered_procedure

    pool: List[dict] = []
    seeds = itertools.count(POOL_SEED)
    for statements, count in POOL_BANDS:
        candidates = [
            graph_of_procedure(random_lowered_procedure(next(seeds), target_statements=statements))
            for _ in range(POOL_CANDIDATES * count)
        ]
        median = sorted(len(g["nodes"]) for g in candidates)[len(candidates) // 2]
        candidates.sort(key=lambda g: abs(len(g["nodes"]) - median))
        for graph in candidates[:count]:
            graph["statements"] = statements
            graph["expected"] = expected_summary(to_cfg(graph))
            pool.append(graph)
    return pool


def pool_draws(rng: random.Random) -> Iterator[int]:
    """Endless stratified draws of pool indices.

    Every four consecutive draws hold one 2k, two 4k and one 8k graph (the
    pool's 1:2:1 mix) in shuffled order, and each band is drawn without
    replacement, so any window of draws carries nearly the exact mix.
    """
    bands, start = [], 0
    for _, count in POOL_BANDS:
        bands.append(deck_of(list(range(start, start + count)), rng))
        start += count
    slots = [0, 1, 1, 2]
    while True:
        rng.shuffle(slots)
        for band in slots:
            yield next(bands[band])


def deck_of(items: list, rng: random.Random) -> Iterator:
    """Endless draws from ``items``, each once per shuffled pass."""
    items = list(items)
    while True:
        rng.shuffle(items)
        yield from items


# ----------------------------------------------------------------------
# edit_stream deltas
# ----------------------------------------------------------------------

#: A local edit lands on an interior edge whose smallest enclosing
#: canonical region has at most this many nodes, so the edit layer always
#: splices it (it recomputes in full above ``max(32, nodes // 4)``).
LOCAL_REGION = 32


def escapes(rng: random.Random) -> Iterator[bool]:
    """Which edit pairs escape: exactly one in every four, at a seeded place."""
    while True:
        chosen = rng.randrange(4)
        yield from (slot == chosen for slot in range(4))


def edit_sites(graph: dict) -> dict:
    """Where edit_stream deltas land on ``graph``, from its reference PST.

    ``local`` lists the interior edges (node-index pairs) whose smallest
    enclosing canonical region has at most ``LOCAL_REGION`` nodes.
    ``spans(s, t)`` tells whether nodes ``s`` and ``t`` meet only in the
    root or in a region of more than a quarter of the graph, where an edit
    takes the edit layer's full-recompute fallback.
    """
    from repro.core.pst import build_pst_reference

    pst = build_pst_reference(to_cfg(graph))
    nodes = graph["nodes"]
    sizes: Dict[int, int] = {}

    def chain(index: int) -> list:
        region, out = pst.region_of(nodes[index]), []
        while region is not None:
            out.append(region)
            region = region.parent
        return out

    chains = {i: chain(i) for i in range(2, len(nodes))}

    def meet_size(s: int, t: int) -> Optional[int]:
        """Node count of the smallest region holding both, None for the root."""
        above = {id(r) for r in chains[t]}
        region = next(r for r in chains[s] if id(r) in above)
        if region.parent is None:
            return None
        if id(region) not in sizes:
            sizes[id(region)] = region.size()
        return sizes[id(region)]

    limit = max(LOCAL_REGION, len(nodes) // 4)
    local = []
    for s, t in graph["edges"]:
        if s > 1 and t > 1:
            size = meet_size(s, t)
            if size is not None and size <= LOCAL_REGION:
                local.append((s, t))

    def spans(s: int, t: int) -> bool:
        size = meet_size(s, t)
        return size is None or size > limit

    return {"local": local, "spans": spans, "interior": list(chains)}


def edit_pair(
    graph: dict, prefix: str, serial: int, rng: random.Random, escape: bool, sites: dict
) -> dict:
    """One apply/inverse delta pair on ``graph`` (renamed with ``prefix``).

    A local pair adds a node on one of ``sites``' local edges and removes
    it again; an escaping pair adds an edge between two unconnected nodes
    that only a root-level or oversize region holds, and removes it.
    Returns the two deltas and the extra edges of the edited state.
    """
    names = node_names(graph, prefix)
    if escape:
        connected = {(s, t) for s, t in graph["edges"]}
        interior = sites["interior"]
        for _ in range(1000):
            s, t = rng.choice(interior), rng.choice(interior)
            if s != t and (s, t) not in connected and sites["spans"](s, t):
                u, v = names[s], names[t]
                return {
                    "apply": {"op": "add_edge", "source": u, "target": v},
                    "inverse": {"op": "remove_edge", "source": u, "target": v},
                    "extra": [[u, v]],
                }
    source, target = rng.choice(sites["local"])
    node = f"{prefix}x{serial}"
    u, v = names[source], names[target]
    return {
        "apply": {"op": "add_node", "node": node, "preds": [u], "succs": [v]},
        "inverse": {"op": "remove_node", "node": node},
        "extra": [[u, node], [node, v]],
    }
