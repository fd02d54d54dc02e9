"""A minimal statement-level IR attached to CFG basic blocks.

The PST itself is a pure graph construct, but the paper's applications
(SSA conversion, sparse dataflow) need statements with defs and uses.  This
module provides that substrate: a :class:`LoweredProcedure` couples a
block-level CFG with an ordered list of statements per block.

Statements are deliberately simple -- assignments, conditional-branch
guards, returns, and (after SSA conversion) φ-functions -- because that is
all the paper's experiments require.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.cfg.graph import CFG, Edge, NodeId


class Stmt:
    """Base statement: defines at most one variable, uses several."""

    __slots__ = ()

    @property
    def target(self) -> Optional[str]:
        return None

    @property
    def uses(self) -> Tuple[str, ...]:
        return ()


class Assign(Stmt):
    """``target = <expr over uses>``; ``text`` is a display form of the rhs.

    ``expr`` optionally carries the structured right-hand side (a
    :mod:`repro.lang.astnodes` expression) for analyses that interpret
    values, e.g. constant propagation.  Analyses that only need def/use
    information ignore it.
    """

    __slots__ = ("_target", "_uses", "text", "expr")

    def __init__(self, target: str, uses: Sequence[str], text: str = "", expr: object = None):
        self._target = target
        self._uses = tuple(uses)
        self.text = text or f"f({', '.join(self._uses)})"
        self.expr = expr

    @property
    def target(self) -> Optional[str]:
        return self._target

    @property
    def uses(self) -> Tuple[str, ...]:
        return self._uses

    def __repr__(self) -> str:
        return f"{self._target} = {self.text}"


class Branch(Stmt):
    """A block terminator guarding a multi-way branch; uses only."""

    __slots__ = ("_uses", "text", "expr")

    def __init__(self, uses: Sequence[str], text: str = "", expr: object = None):
        self._uses = tuple(uses)
        self.text = text or f"branch({', '.join(self._uses)})"
        self.expr = expr

    @property
    def uses(self) -> Tuple[str, ...]:
        return self._uses

    def __repr__(self) -> str:
        return f"if {self.text}"


class Ret(Stmt):
    """Procedure return; ``expr`` optionally carries the returned expression."""

    __slots__ = ("_uses", "expr")

    def __init__(self, uses: Sequence[str], expr: object = None):
        self._uses = tuple(uses)
        self.expr = expr

    @property
    def uses(self) -> Tuple[str, ...]:
        return self._uses

    def __repr__(self) -> str:
        return f"return {', '.join(self._uses)}"


class Copy(Stmt):
    """``target = source``: the compiler-inserted move of out-of-SSA
    translation.  Kept distinct from :class:`Assign` so interpreters and
    traces can treat it as transparent plumbing rather than a user-level
    assignment."""

    __slots__ = ("_target", "source")

    def __init__(self, target: str, source: str):
        self._target = target
        self.source = source

    @property
    def target(self) -> Optional[str]:
        return self._target

    @property
    def uses(self) -> Tuple[str, ...]:
        return (self.source,)

    def __repr__(self) -> str:
        return f"{self._target} = {self.source}  (copy)"


class Phi(Stmt):
    """An SSA φ-function: ``target = φ(args per incoming edge)``."""

    __slots__ = ("_target", "args")

    def __init__(self, target: str, args: Optional[Dict[Edge, str]] = None):
        self._target = target
        self.args: Dict[Edge, str] = args if args is not None else {}

    @property
    def target(self) -> Optional[str]:
        return self._target

    def set_target(self, name: str) -> None:
        """Rename the φ target (used by SSA renaming)."""
        self._target = name

    @property
    def uses(self) -> Tuple[str, ...]:
        return tuple(self.args.values())

    def __repr__(self) -> str:
        inner = ", ".join(f"{e.source}:{v}" for e, v in self.args.items())
        return f"{self._target} = phi({inner})"


class LoweredProcedure:
    """A block-level CFG plus per-block statement lists."""

    def __init__(self, name: str, cfg: CFG, blocks: Optional[Dict[NodeId, List[Stmt]]] = None):
        self.name = name
        self.cfg = cfg
        self.blocks: Dict[NodeId, List[Stmt]] = blocks if blocks is not None else {}
        for node in cfg.nodes:
            self.blocks.setdefault(node, [])

    # ------------------------------------------------------------------
    def statements(self) -> Iterable[Tuple[NodeId, Stmt]]:
        """All ``(block, statement)`` pairs in block order."""
        for node in self.cfg.nodes:
            for stmt in self.blocks.get(node, []):
                yield node, stmt

    def variables(self) -> List[str]:
        """All variable names, defined or used, sorted."""
        names: Set[str] = set()
        for _, stmt in self.statements():
            if stmt.target is not None:
                names.add(stmt.target)
            names.update(stmt.uses)
        return sorted(names)

    def defs_of(self, var: str) -> List[NodeId]:
        """Blocks containing at least one definition of ``var``."""
        out: List[NodeId] = []
        blocks = self.blocks
        for node in self.cfg.nodes:
            for stmt in blocks.get(node, ()):
                if stmt.target == var:
                    out.append(node)
                    break
        return out

    def uses_of(self, var: str) -> List[NodeId]:
        """Blocks containing at least one use of ``var``."""
        out: List[NodeId] = []
        blocks = self.blocks
        for node in self.cfg.nodes:
            for stmt in blocks.get(node, ()):
                if var in stmt.uses:
                    out.append(node)
                    break
        return out

    def num_statements(self) -> int:
        return sum(len(stmts) for stmts in self.blocks.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LoweredProcedure({self.name!r}, blocks={self.cfg.num_nodes}, stmts={self.num_statements()})"


def statement_level(proc: "LoweredProcedure") -> "LoweredProcedure":
    """Explode a block-level procedure into its statement-level CFG.

    Every block with k statements becomes a chain of k single-statement
    nodes ``(block, 0) .. (block, k-1)``; empty blocks (including the
    synthetic start/end) stay single nodes.  This is the granularity the
    paper's §6.2 measurements use: in statement-level CFGs, straight-line
    runs form chains of trivial SESE regions that a quick propagation graph
    can bypass individually.
    """
    cfg = proc.cfg
    out_cfg = CFG(name=f"{cfg.name}.stmts")
    lengths = {node: max(1, len(proc.blocks.get(node, []))) for node in cfg.nodes}

    def first(node: NodeId) -> NodeId:
        return node if lengths[node] == 1 else (node, 0)

    def last(node: NodeId) -> NodeId:
        return node if lengths[node] == 1 else (node, lengths[node] - 1)

    blocks: Dict[NodeId, List[Stmt]] = {}
    for node in cfg.nodes:
        statements = proc.blocks.get(node, [])
        if lengths[node] == 1:
            out_cfg.add_node(node)
            blocks[node] = list(statements)
        else:
            for index, stmt in enumerate(statements):
                out_cfg.add_node((node, index))
                blocks[(node, index)] = [stmt]
                if index > 0:
                    out_cfg.add_edge((node, index - 1), (node, index))
    for edge in cfg.edges:
        out_cfg.add_edge(last(edge.source), first(edge.target), edge.label)
    out_cfg.start = first(cfg.start)
    out_cfg.end = last(cfg.end)
    return LoweredProcedure(f"{proc.name}.stmts", out_cfg, blocks)
