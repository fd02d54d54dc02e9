"""The region toolkit around the PST: reducibility, factored CD, region kinds.

A tour of three structures over one procedure:

1. reducibility by T1/T2 collapse (Theorem 10: every SESE region of a
   reducible graph is reducible),
2. the factored control-dependence representation over control regions
   (footnote 7),
3. the PST itself, with each region classified by the Figure 7 kinds.

Run:  python examples/region_toolkit.py
"""

from repro import build_pst
from repro.cfg.reducibility import is_reducible
from repro.controldep.cdg import ControlDependenceGraph
from repro.core.region_kinds import classify_pst
from repro.lang import lower_program, parse_program

SOURCE = """
proc kernel(n, m) {
    total = 0;
    for (i = 0 to n) {
        row = i * m;
        for (j = 0 to m) {
            if ((i + j) % 2 == 0) {
                total = total + row + j;
            } else {
                total = total - j;
            }
        }
        while (total > 1000) { total = total / 2; }
    }
    return total;
}
"""


def main() -> None:
    [proc] = lower_program(parse_program(SOURCE))
    cfg = proc.cfg
    # 1. reducibility
    print(f"{proc.name}: {cfg.num_nodes} blocks, {cfg.num_edges} edges, "
          f"reducible: {is_reducible(cfg)}\n")

    # 2. factored control dependence
    cdg = ControlDependenceGraph(cfg)
    print(f"control regions: {len(cdg.regions)} "
          f"(factored storage: {cdg.stored_pairs()} pairs vs "
          f"{cdg.unfactored_pairs()} unfactored)")
    widest = max(cdg.regions, key=len)
    print(f"largest scheduling scope: {widest}\n")

    # 3. the PST over the same procedure
    pst = build_pst(cfg)
    kinds = classify_pst(pst)
    by_kind = {}
    for region, kind in kinds.items():
        by_kind[kind.value] = by_kind.get(kind.value, 0) + 1
    print(f"PST: {len(pst.canonical_regions())} regions, max depth {pst.max_depth()}, "
          f"kinds: {by_kind}")


if __name__ == "__main__":
    main()
