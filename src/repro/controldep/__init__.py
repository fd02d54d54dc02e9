"""Control dependence and control regions (§5 of the paper).

* :mod:`repro.controldep.fow` -- Ferrante-Ottenstein-Warren control
  dependence (Definition 8), computed through the postdominator tree; the
  definitional oracle.
* :mod:`repro.controldep.regions_fast` -- the paper's O(E) control-region
  algorithm: node cycle equivalence in ``G + (end -> start)`` via the
  node-expansion transformation (Theorems 7 & 8), applied only to the
  nodes that need it.
* :mod:`repro.controldep.regions_cfs` -- the Cytron-Ferrante-Sarkar O(EN)
  partition-refinement baseline the paper improves upon.
"""

from repro.controldep.fow import control_dependence, control_regions_by_definition
from repro.controldep.regions_fast import control_regions, node_cycle_equivalence
from repro.controldep.regions_cfs import control_regions_cfs
from repro.controldep.cdg import ControlDependenceGraph

__all__ = [
    "control_dependence",
    "control_regions_by_definition",
    "control_regions",
    "node_cycle_equivalence",
    "control_regions_cfs",
    "ControlDependenceGraph",
]
