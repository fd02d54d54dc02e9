"""The stdlib corpus yields valid CFGs with the documented shape."""

import os
import sysconfig
import textwrap

from inputs import expected_summary, to_cfg, use_repo_src
from stdlib_corpus import code_graph, file_graphs, stdlib_files

use_repo_src()

from repro.cfg.validate import check_cfg  # noqa: E402

STDLIB = sysconfig.get_paths()["stdlib"]


def graph_of(source: str, name: str) -> dict:
    module = compile(textwrap.dedent(source), "<test>", "exec")
    code = next(c for c in module.co_consts if getattr(c, "co_name", None) == name)
    return code_graph(code)


def test_sample_files_give_valid_graphs():
    sample = [os.path.join(STDLIB, f) for f in ("os.py", "json/decoder.py", "asyncio/tasks.py")]
    graphs = [g for path in sample for g in file_graphs(path, STDLIB)]
    assert len(graphs) > 50
    for graph in graphs:
        assert graph["nodes"][:2] == ["start", "end"]
        cfg = to_cfg(graph)
        assert check_cfg(cfg) == [], graph["name"]
        assert cfg.in_degree("start") == 0 and cfg.out_degree("end") == 0


def test_walk_skips_tests_and_site_packages():
    files = stdlib_files()
    assert len(files) > 100
    parts = {p for f in files for p in os.path.relpath(f, STDLIB).split(os.sep)[:-1]}
    assert not parts & {"test", "tests", "site-packages", "idle_test"}


def test_exception_handlers_are_pruned():
    graph = graph_of(
        """
        def f(x):
            try:
                y = g(x)
            except ValueError:
                z = 0
                return z
            return y
        """,
        "f",
    )
    cfg = to_cfg(graph)
    # Only ``return y`` reaches end: the handler's ``return z`` block has
    # no control-flow edge into it and is pruned.
    assert cfg.in_degree("end") == 1
    assert check_cfg(cfg) == []


def test_graphs_without_an_exit_are_dropped_and_loops_kept():
    graph = graph_of(
        """
        def f(xs):
            for x in xs:
                if x:
                    break
            while True:
                pass
        """,
        "f",
    )
    assert graph is None  # no path reaches end: nothing is left after pruning
    loop = graph_of(
        """
        def g(xs):
            total = 0
            for x in xs:
                if x > 2:
                    continue
                total += x
            return total
        """,
        "g",
    )
    cfg = to_cfg(loop)
    assert check_cfg(cfg) == []
    regions, entries, classes = expected_summary(cfg)
    assert entries == cfg.num_nodes and regions >= 2 and classes >= 2
