"""Real-shape CFG corpus: ``dis`` basic blocks of the host's CPython stdlib.

Every code object (module bodies, functions, methods, comprehensions,
lambdas) compiled from the ``.py`` files under
``sysconfig.get_paths()["stdlib"]`` becomes one graph:

* a block starts at offset 0, at every jump target, and after every jump
  or terminator (``RETURN_*``, ``RAISE_VARARGS``, ``RERAISE``);
* a conditional jump (``POP_JUMP_*``, ``JUMP_IF_*``, ``FOR_ITER``,
  ``SEND``) has two successors, the target and the fall-through; an
  unconditional ``JUMP_*`` has one; a terminator flows to ``end``;
* a synthetic ``start`` precedes the first block, so ``start`` never has
  predecessors even when the first block heads a loop.

**Exception-table edges are ignored.**  CPython 3.11+ reaches handlers
through the code object's exception table, not through jumps, so handler
blocks have no incoming control-flow edge here.  Modelling them would
mean an edge from every instruction that can raise, which turns every
``try`` body into a dense fan-out the paper's structured-program shapes
do not have.  Handler blocks, and any other node not on a
``start -> end`` path (a ``while True`` with no ``break``), are pruned,
so every graph satisfies Definition 1 and passes ``check_cfg``.

Building the corpus compiles about 730 files and runs the object-graph
reference analyses on every graph, so the result -- graphs plus their
expected response summaries -- is cached under ``.cache/`` next to this
file, keyed by the Python version.  Seeds only choose draws from the
cached corpus; they never change it.
"""

from __future__ import annotations

import dis
import json
import os
import sys
import sysconfig
import types
from typing import Dict, Iterator, List, Optional

from inputs import cached_json, expected_summary, to_cfg, use_repo_src

_JUMPS = frozenset(dis.hasjrel) | frozenset(dis.hasjabs)
_TERMINATORS = frozenset(
    dis.opmap[name]
    for name in ("RETURN_VALUE", "RETURN_CONST", "RAISE_VARARGS", "RERAISE")
    if name in dis.opmap
)
#: Directories under the stdlib that are not library code.
_SKIP_DIRS = frozenset({"site-packages", "test", "tests", "idle_test", "__pycache__"})


def _unconditional(opname: str) -> bool:
    return opname.startswith("JUMP") and "_IF_" not in opname


def code_graph(code: types.CodeType) -> Optional[dict]:
    """The pruned block graph of one code object, or None if it is empty.

    Returns ``{"nodes": [...], "edges": [[i, j], ...]}`` with edges as
    indices into ``nodes``; ``nodes[0]`` is ``start`` and ``nodes[1]`` is
    ``end``.
    """
    instructions = list(dis.get_instructions(code))
    if not instructions:
        return None
    leaders = {instructions[0].offset}
    for index, ins in enumerate(instructions):
        if ins.opcode in _JUMPS:
            leaders.add(ins.argval)
        if (ins.opcode in _JUMPS or ins.opcode in _TERMINATORS) and index + 1 < len(
            instructions
        ):
            leaders.add(instructions[index + 1].offset)

    succ: Dict[str, List[str]] = {"start": [f"b{instructions[0].offset}"], "end": []}
    block = None
    for index, ins in enumerate(instructions):
        if ins.offset in leaders:
            block = f"b{ins.offset}"
            succ[block] = []
        following = instructions[index + 1] if index + 1 < len(instructions) else None
        if ins.opcode in _TERMINATORS:
            succ[block].append("end")
        elif ins.opcode in _JUMPS:
            succ[block].append(f"b{ins.argval}")
            if not _unconditional(ins.opname):
                succ[block].append(
                    "end" if following is None else f"b{following.offset}"
                )
        elif following is None:
            succ[block].append("end")  # falls off the end of the code
        elif following.offset in leaders:
            succ[block].append(f"b{following.offset}")

    # Keep only nodes on some start -> end path (Definition 1).
    forward = _reach("start", succ)
    preds: Dict[str, List[str]] = {node: [] for node in succ}
    for node, targets in succ.items():
        for target in targets:
            preds.setdefault(target, []).append(node)
    backward = _reach("end", preds)
    if "end" not in forward:
        return None
    keep = [n for n in succ if n in forward and n in backward]
    keep.remove("start")
    keep.remove("end")
    nodes = ["start", "end"] + keep
    index_of = {node: i for i, node in enumerate(nodes)}
    edges = [
        [index_of[node], index_of[target]]
        for node in nodes
        for target in succ[node]
        if target in index_of
    ]
    return {"nodes": nodes, "edges": edges}


def _reach(root: str, adjacency: Dict[str, List[str]]) -> set:
    seen = {root}
    stack = [root]
    while stack:
        for nxt in adjacency.get(stack.pop(), ()):
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


def _code_objects(code: types.CodeType) -> Iterator[types.CodeType]:
    yield code
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from _code_objects(const)


def stdlib_files(root: Optional[str] = None) -> List[str]:
    """Every library ``.py`` file under the stdlib, in sorted order."""
    root = sysconfig.get_paths()["stdlib"] if root is None else root
    found = []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if d not in _SKIP_DIRS)
        found.extend(
            os.path.join(dirpath, name) for name in sorted(filenames) if name.endswith(".py")
        )
    return found


def file_graphs(path: str, root: str) -> List[dict]:
    """Graphs of every code object in one source file (none if it fails to compile)."""
    try:
        with open(path, "rb") as handle:
            source = handle.read()
        module = compile(source, path, "exec", dont_inherit=True)
    except (SyntaxError, ValueError, OSError):
        return []
    relative = os.path.relpath(path, root)
    graphs = []
    for code in _code_objects(module):
        graph = code_graph(code)
        if graph is not None:
            qualname = getattr(code, "co_qualname", code.co_name)
            graph["name"] = f"{relative}:{qualname}"
            graphs.append(graph)
    return graphs


def build_corpus(root: Optional[str] = None) -> List[dict]:
    """Compile the stdlib, prune every graph, attach its expected summary."""
    from repro.cfg.validate import check_cfg

    root = sysconfig.get_paths()["stdlib"] if root is None else root
    corpus = []
    for path in stdlib_files(root):
        for graph in file_graphs(path, root):
            cfg = to_cfg(graph)
            problems = check_cfg(cfg)
            if problems:  # pruning guarantees Definition 1; fail loudly if not
                raise ValueError(f"{graph['name']}: {'; '.join(problems)}")
            graph["expected"] = expected_summary(cfg)
            corpus.append(graph)
    return corpus


def load_corpus() -> List[dict]:
    """The cached corpus for this Python, building it on first use."""
    return cached_json("stdlib", build_corpus)


def describe(corpus: List[dict]) -> Dict[str, object]:
    """Size facts quoted in the README (node counts include start/end)."""
    sizes = sorted(len(g["nodes"]) for g in corpus)
    files = {g["name"].split(":", 1)[0] for g in corpus}

    def at(q: float) -> int:
        return sizes[min(len(sizes) - 1, int(q * len(sizes)))]

    return {
        "graphs": len(corpus),
        "files": len(files),
        "p50": at(0.5),
        "p90": at(0.9),
        "p99": at(0.99),
        "max": sizes[-1],
        "python": sys.version.split()[0],
    }


if __name__ == "__main__":
    use_repo_src()
    print(json.dumps(describe(load_corpus()), sort_keys=True))
