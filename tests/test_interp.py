"""Semantic validation: AST vs CFG execution, SSA preservation, constprop soundness."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.dataflow.constprop import ConstantPropagation, state_dict
from repro.dataflow.iterative import solve_iterative
from repro.interp import FuelExhausted, Trace, builtin_call, run_ast, run_cfg
from repro.lang import lower_program, parse_program
from repro.lang.lower import lower_procedure
from repro.ssa.rename import construct_ssa
from repro.synth.structured import random_procedure_ast


def both(source, args):
    program = parse_program(source)
    [proc_ast] = program.procedures
    proc_cfg = lower_procedure(proc_ast)
    return run_ast(proc_ast, args), run_cfg(proc_cfg, args)


def test_straightline():
    a, c = both("proc f(x) { y = x * 2 + 1; return y; }", [10])
    assert a.returned == c.returned == 21


def test_if_else():
    for arg, expected in ((5, 1), (-5, 2)):
        a, c = both("proc f(x) { if (x > 0) { r = 1; } else { r = 2; } return r; }", [arg])
        assert a.returned == c.returned == expected


def test_while_loop():
    a, c = both("proc f(n) { s = 0; i = 0; while (i < n) { s = s + i; i = i + 1; } return s; }", [5])
    assert a.returned == c.returned == 10


def test_repeat_until():
    a, c = both("proc f() { x = 0; repeat { x = x + 3; } until (x > 7); return x; }", [])
    assert a.returned == c.returned == 9


def test_for_loop():
    a, c = both("proc f(n) { s = 0; for (i = 1 to n) { s = s + i; } return s; }", [4])
    assert a.returned == c.returned == 10


def test_switch_dispatch():
    source = """
    proc f(x) {
        switch (x) {
            case 1: { r = 10; }
            case 2: { r = 20; }
            default: { r = 99; }
        }
        return r;
    }
    """
    for arg, expected in ((1, 10), (2, 20), (7, 99)):
        a, c = both(source, [arg])
        assert a.returned == c.returned == expected


def test_break_continue():
    source = """
    proc f(n) {
        s = 0;
        for (i = 0 to n) {
            if (i == 3) { continue; }
            if (i == 6) { break; }
            s = s + i;
        }
        return s;
    }
    """
    a, c = both(source, [10])
    assert a.returned == c.returned == 0 + 1 + 2 + 4 + 5


def test_goto_forward_and_backward():
    source = """
    proc f(n) {
        x = 0;
        top:
        x = x + 1;
        if (x < n) { goto top; }
        if (n > 100) { goto skip; }
        x = x * 10;
        skip:
        return x;
    }
    """
    a, c = both(source, [3])
    assert a.returned == c.returned == 30
    a, c = both(source, [200])
    assert a.returned == c.returned == 200


def test_goto_into_loop():
    source = """
    proc f(n) {
        if (n > 0) { goto inside; }
        while (n < 16) {
            inside:
            n = n + n + 1;
        }
        return n;
    }
    """
    a, c = both(source, [5])
    assert a.returned == c.returned


def test_division_semantics():
    a, c = both("proc f(x) { r = 7 / x + 7 % x; return r; }", [0])
    assert a.returned == c.returned == 0
    a, c = both("proc f(x) { r = 7 / x; return r; }", [2])
    assert a.returned == c.returned == 3


def test_uninitialized_reads_are_zero():
    a, c = both("proc f() { return ghost + 1; }", [])
    assert a.returned == c.returned == 1


def test_call_builtin_deterministic():
    a, c = both("proc f(x) { return g(x, 2); }", [7])
    assert a.returned == c.returned == builtin_call("g", [7, 2])


def test_fuel_exhaustion():
    source = "proc f() { x = 0; L: x = x + 1; if (x > 0) { goto L; } return x; }"
    program = parse_program(source)
    with pytest.raises(FuelExhausted):
        run_ast(program.procedures[0], [], fuel=200)
    with pytest.raises(FuelExhausted):
        run_cfg(lower_procedure(program.procedures[0]), [], fuel=200)


ARGS = st.lists(st.integers(-20, 20), min_size=3, max_size=3)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 8000), st.sampled_from([15, 40]), st.sampled_from([0.0, 0.3]), ARGS)
def test_lowering_preserves_semantics(seed, size, goto_rate, args):
    """AST execution == CFG execution (return value and assignment traces)."""
    procedure = random_procedure_ast(seed, target_statements=size, goto_rate=goto_rate)
    try:
        lowered = lower_procedure(procedure)
    except Exception:
        return  # e.g. infinite-loop rejection; nothing to compare
    try:
        expected = run_ast(procedure, args, fuel=30_000)
    except FuelExhausted:
        return
    actual = run_cfg(lowered, args, fuel=60_000)
    assert actual.returned == expected.returned
    assert actual.assignments == expected.assignments


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 8000), st.sampled_from([15, 40]), ARGS)
def test_ssa_preserves_semantics(seed, size, args):
    """SSA form executes identically (φ semantics included)."""
    procedure = random_procedure_ast(seed, target_statements=size)
    lowered = lower_procedure(procedure)
    ssa = construct_ssa(lowered)
    try:
        expected = run_cfg(lowered, args, fuel=30_000)
    except FuelExhausted:
        return
    actual = run_cfg(ssa, args, fuel=90_000)
    assert actual.returned == expected.returned
    assert actual.assignments == expected.assignments


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 8000), st.sampled_from([15, 40]), ARGS)
@example(998, 40, [0, 0, 0])  # v9 = v3, and v3 is never assigned on the run
@example(1489, 40, [0, 0, 0])  # v13 = v8, and v8 is never assigned on the run
def test_constant_propagation_is_sound(seed, size, args):
    """Every constant the analysis claims holds on every actual execution.

    Checked at every block entry of the run.  Claims about a variable that
    holds no defined value are excused: one never assigned on the executed
    path, or one whose value derives from reading such a variable (the
    interpreter's ``Trace.undefined``).  The analysis's optimistic UNDEF
    meet may assume any value for those.
    """
    procedure = random_procedure_ast(seed, target_statements=size)
    lowered = lower_procedure(procedure)
    solution = solve_iterative(lowered.cfg, ConstantPropagation(lowered))
    claims = {node: state_dict(solution.before[node]) for node in lowered.cfg.nodes}
    violations = []

    def check(node, env, undefined):
        for var, value in claims[node].items():
            if (
                isinstance(value, int)
                and var in env
                and var not in undefined
                and env[var] != value
            ):
                violations.append((node, var, value, env[var]))

    try:
        run_cfg(lowered, args, fuel=30_000, on_block=check)
    except FuelExhausted:
        return
    assert not violations, violations[:5]
