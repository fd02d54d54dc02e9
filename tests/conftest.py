"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

from typing import List, Tuple

import pytest
from hypothesis import strategies as st

from repro.cfg.graph import CFG
from repro.cfg.validate import is_valid_cfg


def spine_cfg(interior: int) -> CFG:
    """start -> n0 -> ... -> n{interior-1} -> end."""
    cfg = CFG(start="start", end="end")
    previous = "start"
    for i in range(interior):
        cfg.add_edge(previous, f"n{i}")
        previous = f"n{i}"
    cfg.add_edge(previous, "end")
    return cfg


@st.composite
def valid_cfgs(draw, max_interior: int = 12, max_extra: int = 14) -> CFG:
    """Arbitrary valid CFGs: a spine plus random extra edges.

    The spine guarantees Definition 1 (every node on a start-end path); the
    extra edges -- forward, backward, self-loops, parallel duplicates --
    provide arbitrary (including irreducible) shapes.  Shrinking reduces
    both the node count and the extra edges.
    """
    interior = draw(st.integers(min_value=1, max_value=max_interior))
    cfg = spine_cfg(interior)
    sources = ["start"] + [f"n{i}" for i in range(interior)]
    targets = [f"n{i}" for i in range(interior)] + ["end"]
    extras = draw(
        st.lists(
            st.tuples(
                st.integers(0, len(sources) - 1),
                st.integers(0, len(targets) - 1),
                st.sampled_from(["plain", "self", "parallel"]),
            ),
            max_size=max_extra,
        )
    )
    for si, ti, kind in extras:
        if kind == "self":
            node = targets[min(ti, interior - 1)] if interior else sources[si]
            if node not in ("start", "end"):
                cfg.add_edge(node, node)
        elif kind == "parallel":
            cfg.add_edge(sources[si], targets[ti])
            cfg.add_edge(sources[si], targets[ti])
        else:
            cfg.add_edge(sources[si], targets[ti])
    assert is_valid_cfg(cfg)
    return cfg


@st.composite
def small_valid_cfgs(draw) -> CFG:
    """Small graphs suitable for exponential brute-force oracles."""
    return draw(valid_cfgs(max_interior=6, max_extra=6))


@pytest.fixture
def diamond_cfg() -> CFG:
    from repro.synth.patterns import diamond

    return diamond()


@pytest.fixture
def paper_cfg() -> CFG:
    from repro.synth.patterns import paper_like_example

    return paper_like_example()


@pytest.fixture
def figure4_passes(monkeypatch) -> List[int]:
    """Node count of every Figure 4 pass the array kernel runs, in order."""
    import repro.kernel.cycle_equiv as kernel_ce

    counts: List[int] = []
    real = kernel_ce._cycle_equivalence_arrays

    def counting(n, *args, **kwargs):
        counts.append(n)
        return real(n, *args, **kwargs)

    monkeypatch.setattr(kernel_ce, "_cycle_equivalence_arrays", counting)
    return counts
