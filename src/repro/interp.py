"""Reference interpreters for MiniLang ASTs and lowered CFGs.

Two independent executable semantics:

* :func:`run_ast` walks the MiniLang AST directly;
* :func:`run_cfg` executes a :class:`~repro.ir.LoweredProcedure` block by
  block, including SSA φ-functions (evaluated simultaneously against the
  incoming edge).

Having both lets the test suite validate *semantics*, not just graph
shapes: lowering must preserve behaviour (AST run == CFG run), SSA
conversion must preserve behaviour (CFG run == SSA run, per-variable
assignment traces included), and constant propagation's claims must hold
on every actual execution.

Semantics: values are 64-bit signed integers with wraparound (random
programs love ``x = x * x`` inside loops; unbounded bignums would make
execution cost explode); ``/`` and ``%`` are floor division/modulo with
``x/0 == x%0 == 0``; comparisons and logical operators yield 0/1; calls
are a fixed deterministic pure function of the callee name and arguments
(there are no user-defined call targets in MiniLang bodies).
:func:`apply_op` is the single definition of these semantics -- the
constant-propagation folder delegates to it, which is what makes the
analysis-soundness tests meaningful.  Execution is bounded by ``fuel``
(statements executed); exceeding it raises :class:`FuelExhausted` so tests
can skip diverging random programs.

Reading a variable that no assignment on the executed path has defined
(or an SSA ``undef`` initializer) yields an *undefined* value.  The
interpreters read it as 0, but only as a convenience: constant
propagation's optimistic UNDEF meet may assume any value there.  So
:func:`run_cfg` reports which variables currently hold a value derived
from such a read (:attr:`Trace.undefined`), and no claim about those
variables is binding.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.cfg.graph import Edge, NodeId
from repro.ir import Assign, Branch, Copy, LoweredProcedure, Phi, Ret
from repro.lang import astnodes as ast


class FuelExhausted(RuntimeError):
    """Raised when an execution exceeds its statement budget."""


class MiniLangRuntimeError(RuntimeError):
    """Raised on malformed programs (e.g. a branch with no matching edge)."""


@dataclass
class Trace:
    """The observable outcome of one execution."""

    returned: Optional[int]
    env: Dict[str, int]
    # per *base* variable: the sequence of values assigned by ordinary
    # assignments (φs and parameter/undef initializers excluded), the
    # observable that SSA conversion must preserve exactly.
    assignments: Dict[str, List[int]] = field(default_factory=dict)
    steps: int = 0
    #: Variables whose current value derives from a read of an undefined
    #: value (maintained by :func:`run_cfg` only).
    undefined: Set[str] = field(default_factory=set)

    def record(self, name: str, value: int) -> None:
        base = name.split("#", 1)[0]
        self.assignments.setdefault(base, []).append(value)


def builtin_call(name: str, args: List[int]) -> int:
    """The fixed pure semantics of calls (shared by both interpreters)."""
    value = len(name) * 1000003
    for arg in args:
        value = (value * 31 + arg) % 1_000_003
    return value


def eval_expr(expr: ast.Expr, env: Dict[str, int]) -> int:
    if isinstance(expr, ast.Num):
        return expr.value
    if isinstance(expr, ast.Var):
        return env.get(expr.name, 0)
    if isinstance(expr, ast.BinOp):
        return apply_op(expr.op, eval_expr(expr.left, env), eval_expr(expr.right, env))
    if isinstance(expr, ast.Call):
        return builtin_call(expr.name, [eval_expr(a, env) for a in expr.args])
    raise MiniLangRuntimeError(f"unknown expression {expr!r}")


_WORD = 1 << 64
_SIGN = 1 << 63


def wrap(value: int) -> int:
    """Reduce to a 64-bit signed integer (two's-complement wraparound)."""
    return (value + _SIGN) % _WORD - _SIGN


def apply_op(op: str, a: int, b: int) -> int:
    if op == "+":
        return wrap(a + b)
    if op == "-":
        return wrap(a - b)
    if op == "*":
        return wrap(a * b)
    if op == "/":
        return 0 if b == 0 else wrap(a // b)
    if op == "%":
        return 0 if b == 0 else wrap(a % b)
    if op == "<":
        return int(a < b)
    if op == "<=":
        return int(a <= b)
    if op == ">":
        return int(a > b)
    if op == ">=":
        return int(a >= b)
    if op == "==":
        return int(a == b)
    if op == "!=":
        return int(a != b)
    if op == "&&":
        return int(bool(a) and bool(b))
    if op == "||":
        return int(bool(a) or bool(b))
    raise MiniLangRuntimeError(f"unknown operator {op!r}")


# ----------------------------------------------------------------------
# AST interpreter
# ----------------------------------------------------------------------

class _Break(Exception):
    pass


class _Continue(Exception):
    pass


class _Return(Exception):
    def __init__(self, value: Optional[int]):
        self.value = value


class _Goto(Exception):
    def __init__(self, label: str):
        self.label = label


def run_ast(procedure: ast.Procedure, args: List[int], fuel: int = 100_000) -> Trace:
    """Execute a MiniLang procedure AST."""
    env: Dict[str, int] = {}
    trace = Trace(returned=None, env=env)
    for name, value in zip(procedure.params, list(args) + [0] * len(procedure.params)):
        env[name] = value

    # `goto` needs non-local transfer: restart execution of the body from
    # the target label whenever a _Goto escapes.  Structured statements are
    # re-entered in "seek" mode that skips execution until the label is hit.
    try:
        _run_block(procedure.body, env, trace, fuel, seek=None)
    except _Return as ret:
        trace.returned = ret.value
    except _Goto as jump:
        label = jump.label
        while True:
            try:
                _run_block(procedure.body, env, trace, fuel, seek=label)
                break
            except _Goto as again:
                label = again.label
            except _Return as ret:
                trace.returned = ret.value
                break
    return trace


def _tick(trace: Trace, fuel: int) -> None:
    trace.steps += 1
    if trace.steps > fuel:
        raise FuelExhausted(f"exceeded {fuel} steps")


def _run_block(block: ast.Block, env, trace, fuel, seek: Optional[str]) -> Optional[str]:
    """Execute a block; in seek mode skip statements until Label(seek).

    Returns the still-pending seek label if it was not found in this block
    (the caller keeps seeking), or None once normal execution resumed.
    """
    for statement in block.statements:
        if seek is not None:
            seek = _seek_into(statement, env, trace, fuel, seek)
            continue
        _run_statement(statement, env, trace, fuel)
    return seek


def _seek_into(statement: ast.Stmt, env, trace, fuel, seek: str) -> Optional[str]:
    """Skip forward looking for a label; descend into compound statements."""
    if isinstance(statement, ast.Label):
        return None if statement.name == seek else seek
    if isinstance(statement, ast.If):
        for arm in (statement.then, statement.els):
            if arm is not None and _block_contains_label(arm, seek):
                remaining = _run_block(arm, env, trace, fuel, seek)
                return remaining
        return seek
    if isinstance(statement, (ast.While, ast.Repeat, ast.For)):
        body = statement.body
        if _block_contains_label(body, seek):
            # resume inside the loop: execute the rest of this iteration,
            # then continue looping normally
            try:
                remaining = _run_block(body, env, trace, fuel, seek)
                if remaining is None:
                    _continue_loop(statement, env, trace, fuel)
                return remaining
            except _Break:
                return None
            except _Continue:
                _continue_loop(statement, env, trace, fuel)
                return None
        return seek
    if isinstance(statement, ast.Switch):
        for _, arm in statement.cases:
            if _block_contains_label(arm, seek):
                return _run_block(arm, env, trace, fuel, seek)
        if statement.default is not None and _block_contains_label(statement.default, seek):
            return _run_block(statement.default, env, trace, fuel, seek)
        return seek
    return seek


def _block_contains_label(block: ast.Block, label: str) -> bool:
    for statement in block.statements:
        if isinstance(statement, ast.Label) and statement.name == label:
            return True
        for attr in ("then", "els", "body", "default"):
            sub = getattr(statement, attr, None)
            if isinstance(sub, ast.Block) and _block_contains_label(sub, label):
                return True
        for _, sub in getattr(statement, "cases", []):
            if _block_contains_label(sub, label):
                return True
    return False


def _continue_loop(statement: ast.Stmt, env, trace, fuel) -> None:
    """After resuming mid-iteration, run the loop's remaining iterations."""
    if isinstance(statement, ast.While):
        _run_while(statement, env, trace, fuel)
    elif isinstance(statement, ast.Repeat):
        if not eval_expr(statement.cond, env):
            _run_repeat(statement, env, trace, fuel)
    elif isinstance(statement, ast.For):
        value = env.get(statement.var, 0) + 1
        env[statement.var] = value
        trace.record(statement.var, value)
        _run_for_from_current(statement, env, trace, fuel)


def _run_statement(statement: ast.Stmt, env, trace, fuel) -> None:
    _tick(trace, fuel)
    if isinstance(statement, ast.Assign):
        value = eval_expr(statement.value, env)
        env[statement.target] = value
        trace.record(statement.target, value)
    elif isinstance(statement, ast.If):
        if eval_expr(statement.cond, env):
            _run_block(statement.then, env, trace, fuel, seek=None)
        elif statement.els is not None:
            _run_block(statement.els, env, trace, fuel, seek=None)
    elif isinstance(statement, ast.While):
        _run_while(statement, env, trace, fuel)
    elif isinstance(statement, ast.Repeat):
        _run_repeat(statement, env, trace, fuel)
    elif isinstance(statement, ast.For):
        value = eval_expr(statement.lo, env)
        env[statement.var] = value
        trace.record(statement.var, value)
        _run_for_from_current(statement, env, trace, fuel)
    elif isinstance(statement, ast.Switch):
        selector = eval_expr(statement.expr, env)
        for value, arm in statement.cases:
            if selector == value:
                _run_block(arm, env, trace, fuel, seek=None)
                return
        if statement.default is not None:
            _run_block(statement.default, env, trace, fuel, seek=None)
    elif isinstance(statement, ast.Break):
        raise _Break()
    elif isinstance(statement, ast.Continue):
        raise _Continue()
    elif isinstance(statement, ast.Goto):
        raise _Goto(statement.label)
    elif isinstance(statement, ast.Label):
        pass
    elif isinstance(statement, ast.Return):
        raise _Return(eval_expr(statement.value, env) if statement.value else None)
    else:
        raise MiniLangRuntimeError(f"unknown statement {statement!r}")


def _run_while(statement: ast.While, env, trace, fuel) -> None:
    while eval_expr(statement.cond, env):
        _tick(trace, fuel)
        try:
            _run_block(statement.body, env, trace, fuel, seek=None)
        except _Break:
            return
        except _Continue:
            continue


def _run_repeat(statement: ast.Repeat, env, trace, fuel) -> None:
    while True:
        _tick(trace, fuel)
        try:
            _run_block(statement.body, env, trace, fuel, seek=None)
        except _Break:
            return
        except _Continue:
            pass
        if eval_expr(statement.cond, env):
            return


def _run_for_from_current(statement: ast.For, env, trace, fuel) -> None:
    while env.get(statement.var, 0) <= eval_expr(statement.hi, env):
        _tick(trace, fuel)
        try:
            _run_block(statement.body, env, trace, fuel, seek=None)
        except _Break:
            return
        except _Continue:
            pass
        value = env.get(statement.var, 0) + 1
        env[statement.var] = value
        trace.record(statement.var, value)


# ----------------------------------------------------------------------
# CFG interpreter
# ----------------------------------------------------------------------

def run_cfg(proc: LoweredProcedure, args: List[int], fuel: int = 100_000, on_block=None) -> Trace:
    """Execute a lowered procedure (φ-functions supported).

    ``on_block(node, env, undefined)``, if given, is invoked at every block
    entry (before the block's statements run) with the live environment and
    the live :attr:`Trace.undefined` set -- the hook dataflow-soundness
    tests use to compare analysis claims against live environments.
    """
    env: Dict[str, int] = {}
    trace = Trace(returned=None, env=env)
    undefined = trace.undefined
    params = list(args)
    node: NodeId = proc.cfg.start
    entered_by: Optional[Edge] = None

    while True:
        if on_block is not None:
            on_block(node, env, undefined)
        statements = proc.blocks.get(node, [])
        # φs first, evaluated simultaneously against the entering edge
        phis = [s for s in statements if isinstance(s, Phi)]
        if phis:
            values = {}
            derived = set()
            for phi in phis:
                if entered_by not in phi.args:
                    raise MiniLangRuntimeError(
                        f"φ {phi.target} has no argument for entering edge {entered_by!r}"
                    )
                source = phi.args[entered_by]
                values[phi.target] = env.get(source, 0)
                if source not in env or source in undefined:
                    derived.add(phi.target)
            env.update(values)
            undefined.difference_update(values)
            undefined.update(derived)
        selector: Optional[int] = None
        for stmt in statements:
            if isinstance(stmt, Phi):
                continue
            _tick(trace, fuel)
            if isinstance(stmt, (Copy, Assign)):
                if _reads_undefined(stmt, env, undefined):
                    undefined.add(stmt.target)
                else:
                    undefined.discard(stmt.target)
            if isinstance(stmt, Copy):
                env[stmt.target] = env.get(stmt.source, 0)  # transparent move
            elif isinstance(stmt, Assign):
                value = _eval_assign(stmt, env, params)
                env[stmt.target] = value
                if stmt.expr is not None or (not stmt.uses and _is_int(stmt.text)):
                    trace.record(stmt.target, value)
            elif isinstance(stmt, Branch):
                if stmt.expr is None:
                    raise MiniLangRuntimeError(f"branch without expression in {node!r}")
                selector = eval_expr(stmt.expr, env)
            elif isinstance(stmt, Ret):
                trace.returned = (
                    eval_expr(stmt.expr, env) if stmt.expr is not None else None
                )
                return trace

        if node == proc.cfg.end:
            return trace
        entered_by = _pick_edge(proc, node, selector)
        node = entered_by.target


def _is_int(text: str) -> bool:
    try:
        int(text)
        return True
    except (TypeError, ValueError):
        return False


def _reads_undefined(stmt, env: Dict[str, int], undefined: Set[str]) -> bool:
    """Whether the value ``stmt`` assigns derives from an undefined value."""
    if isinstance(stmt, Assign) and stmt.expr is None and stmt.text == "undef":
        return True
    return any(use not in env or use in undefined for use in stmt.uses)


def _eval_assign(stmt: Assign, env: Dict[str, int], params: List[int]) -> int:
    if stmt.expr is not None:
        return eval_expr(stmt.expr, env)
    if stmt.text == "param":
        return params.pop(0) if params else 0
    if stmt.text == "undef":
        return 0
    if _is_int(stmt.text):
        return int(stmt.text)
    # opaque hand-written statement: hash of its uses, deterministic
    return builtin_call(stmt.text, [env.get(u, 0) for u in stmt.uses])


def _pick_edge(proc: LoweredProcedure, node: NodeId, selector: Optional[int]) -> Edge:
    edges = proc.cfg.out_edges(node)
    if len(edges) == 1 and edges[0].label is None:
        return edges[0]
    if selector is None:
        if len(edges) == 1:
            return edges[0]
        raise MiniLangRuntimeError(f"multi-way block {node!r} without a branch statement")
    labels = {edge.label: edge for edge in edges}
    if set(labels) <= {"T", "F"}:
        return labels["T"] if selector else labels["F"]
    key = str(selector)
    if key in labels:
        return labels[key]
    if "default" in labels:
        return labels["default"]
    raise MiniLangRuntimeError(f"no edge for selector {selector!r} at {node!r}")
