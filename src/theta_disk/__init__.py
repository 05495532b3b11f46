"""Finite combinatorial models of higher categories.

Ordinals and intervals, level trees, inductive interval/ordinal trees,
disks, globular cardinals, composition graphs, free omega-categories,
labeled trees, and exhaustive small-scale verification of the equivalences
relating them.
"""

from theta_disk.disk import Disk, DiskMor, phi_inverse_obj, phi_mor, phi_obj
from theta_disk.forest import LevelTree, TreeMap, make_level_tree
from theta_disk.globular import GlobCard, GlobMor, GlobSet
from theta_disk.itree import (
    INTERVAL,
    ORDINAL,
    ITreeMor,
    ITreeObj,
    vee,
    wedge,
)
from theta_disk.labeled import (
    LabeledTree,
    LabeledTreeMor,
    con_dualize,
    con_dualize_mor,
    xi_interval,
    xi_interval_mor,
    xi_inverse,
    xi_ordinal,
    xi_ordinal_mor,
)
from theta_disk.ograph import (
    OGraph,
    OGraphMor,
    gamma,
    gamma_mor,
    gamma_prime,
    gamma_prime_mor,
    upsilon,
    upsilon_prime,
)
from theta_disk.omega import (
    Cell,
    EnrichedCell,
    OmegaPresentation,
    comparison_L,
    psi_mor,
    psi_obj,
)
from theta_disk.ordinal import Ordinal, OrdMap, vee_map, vee_obj, wedge_map, wedge_obj
from theta_disk.verify import Bounds, Report, run_all

__all__ = [
    "Bounds",
    "Cell",
    "Disk",
    "DiskMor",
    "EnrichedCell",
    "GlobCard",
    "GlobMor",
    "GlobSet",
    "INTERVAL",
    "ITreeMor",
    "ITreeObj",
    "LabeledTree",
    "LabeledTreeMor",
    "LevelTree",
    "OGraph",
    "OGraphMor",
    "OmegaPresentation",
    "OrdMap",
    "Ordinal",
    "ORDINAL",
    "Report",
    "TreeMap",
    "comparison_L",
    "con_dualize",
    "con_dualize_mor",
    "gamma",
    "gamma_mor",
    "gamma_prime",
    "gamma_prime_mor",
    "make_level_tree",
    "phi_inverse_obj",
    "phi_mor",
    "phi_obj",
    "psi_mor",
    "psi_obj",
    "run_all",
    "upsilon",
    "upsilon_prime",
    "vee",
    "vee_map",
    "vee_obj",
    "wedge",
    "wedge_map",
    "wedge_obj",
    "xi_interval",
    "xi_interval_mor",
    "xi_inverse",
    "xi_ordinal",
    "xi_ordinal_mor",
]
