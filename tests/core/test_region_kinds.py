"""Tests for the Figure 7 structural region classifier."""

import pytest

from repro.cfg.builder import cfg_from_edges
from repro.core.pst import build_pst
from repro.core.region_kinds import (
    RegionKind,
    classify_pst,
    classify_region,
    is_completely_structured,
    region_weight,
)
from repro.lang import lower_program, parse_program
from repro.synth.patterns import (
    diamond,
    if_then,
    irreducible_kernel,
    linear,
    loop_while,
    nested_loops,
    repeat_until_nest,
    switch_ladder,
)


def kind_of_region_containing(cfg, node):
    pst = build_pst(cfg)
    return classify_region(pst, pst.region_of(node))


def test_linear_is_block():
    pst = build_pst(linear(4))
    kinds = classify_pst(pst)
    assert all(kind is RegionKind.BLOCK for kind in kinds.values())


def test_diamond_outer_region_is_case():
    assert kind_of_region_containing(diamond(), "c") is RegionKind.CASE


def test_if_then_is_case():
    assert kind_of_region_containing(if_then(2), "c") is RegionKind.CASE


def test_switch_is_case():
    assert kind_of_region_containing(switch_ladder(4), "s") is RegionKind.CASE


def test_while_is_loop():
    assert kind_of_region_containing(loop_while(2), "h") is RegionKind.LOOP


def test_repeat_until_is_loop():
    cfg = repeat_until_nest(1)
    assert kind_of_region_containing(cfg, "b0") is RegionKind.LOOP


@pytest.mark.parametrize(
    "cfg, header, body",
    [
        pytest.param(loop_while(3), "h", {"h", "b0", "b1", "b2"}, id="while3-h"),
        pytest.param(
            nested_loops(3),
            "h0",
            {"h0", "h1", "h2", "body", "l0", "l1", "l2"},
            id="nested_loops3-h0",
        ),
        pytest.param(
            nested_loops(3), "h1", {"h1", "h2", "body", "l1", "l2"}, id="nested_loops3-h1"
        ),
        pytest.param(nested_loops(3), "h2", {"h2", "body", "l2"}, id="nested_loops3-h2"),
        pytest.param(
            repeat_until_nest(3),
            "b0",
            {"b0", "b1", "b2", "c0", "c1", "c2"},
            id="repeat_nest3-b0",
        ),
        pytest.param(
            repeat_until_nest(3), "b1", {"b1", "b2", "c1", "c2"}, id="repeat_nest3-b1"
        ),
        pytest.param(repeat_until_nest(3), "b2", {"b2", "c2"}, id="repeat_nest3-b2"),
    ],
)
def test_a_natural_loop_is_the_loop_region_of_its_header(cfg, header, body):
    """The innermost region of a natural loop's header is a LOOP region
    holding exactly the loop's body."""
    pst = build_pst(cfg)
    region = pst.region_of(header)
    assert classify_region(pst, region) is RegionKind.LOOP
    assert set(region.nodes()) == body


def test_self_loop_region_is_loop():
    cfg = cfg_from_edges([("start", "a"), ("a", "b"), ("b", "b"), ("b", "end")])
    assert kind_of_region_containing(cfg, "b") is RegionKind.LOOP


def test_irreducible_region_is_cyclic():
    pst = build_pst(irreducible_kernel())
    kinds = set(classify_pst(pst).values())
    assert RegionKind.CYCLIC in kinds


def test_acyclic_unstructured_is_dag():
    cfg = cfg_from_edges(
        [
            ("start", "a"),
            ("a", "b", "T"),
            ("a", "c", "F"),
            ("b", "d"),
            ("b", "e", "x"),
            ("c", "e"),
            ("d", "end"),
            ("e", "d"),
        ]
    )
    pst = build_pst(cfg)
    kinds = set(classify_pst(pst).values())
    assert RegionKind.DAG in kinds


def test_case_with_chain_arms():
    """An if whose arm is a sequence of sibling regions is still a case."""
    source = """
    proc f(a) {
        if (a > 0) {
            x = 1;
            while (x < a) { x = x + 1; }
            y = x;
        }
        return a;
    }
    """
    [proc] = lower_program(parse_program(source))
    pst = build_pst(proc.cfg)
    kinds = classify_pst(pst)
    assert RegionKind.DAG not in set(kinds.values())
    assert RegionKind.CASE in set(kinds.values())


def test_weights():
    pst = build_pst(diamond())
    outer = pst.region_of("c")
    assert region_weight(outer) == 2  # if-then-else weighs two (paper §4)
    assert region_weight(pst.region_of("t")) == 1  # blocks weigh one


def test_structured_predicate():
    assert is_completely_structured(classify_pst(build_pst(diamond())))
    assert not is_completely_structured(classify_pst(build_pst(irreducible_kernel())))


def test_kind_enum_structured_flags():
    assert RegionKind.BLOCK.is_structured
    assert RegionKind.CASE.is_structured
    assert RegionKind.LOOP.is_structured
    assert not RegionKind.DAG.is_structured
    assert not RegionKind.CYCLIC.is_structured
