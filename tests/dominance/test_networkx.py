"""networkx.immediate_dominators as an independent dominance oracle."""

import pytest

networkx = pytest.importorskip("networkx")

from hypothesis import given, settings

from repro.dominance.iterative import immediate_dominators
from repro.dominance.lengauer_tarjan import lengauer_tarjan
from repro.synth.patterns import irreducible_kernel
from tests.conftest import valid_cfgs


def _nx_idoms(cfg):
    """networkx idoms normalized to our ``idom[root] == root`` convention."""
    graph = networkx.MultiDiGraph([edge.pair for edge in cfg.edges])
    expected = dict(networkx.immediate_dominators(graph, cfg.start))
    expected[cfg.start] = cfg.start
    return expected


@settings(max_examples=100, deadline=None)
@given(valid_cfgs())
def test_networkx_dominators_agree(cfg):
    expected = _nx_idoms(cfg)
    assert immediate_dominators(cfg) == expected
    assert lengauer_tarjan(cfg) == expected


def test_networkx_dominators_on_irreducible():
    cfg = irreducible_kernel()
    assert immediate_dominators(cfg) == _nx_idoms(cfg)
