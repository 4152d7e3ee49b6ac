"""Verification lab for cluster-size comparison on symmetric graphs.

Exposes the building blocks: graph builders, permutation-group machinery
with the symmetry-condition checker, the exact enumeration engine, and the
scenario harnesses behind the CLI.  The Monte Carlo engine is
:mod:`symperc.mc`, loaded on first use.
"""

from .exact import (
    BOND,
    SITE,
    CapExceeded,
    ClusterSweep,
    JointOutcomePolynomial,
    Observables,
    PartitionLaw,
    enumerate_joint,
    random_cluster_law,
)
from .graphs import (
    Graph,
    GraphError,
    build_graph,
    bunkbed_graph,
    cartesian_product,
    complete_graph,
    cycle_graph,
    cylinder_graph,
    hypercube_graph,
    path_graph,
    torus_graph,
)
from .groups import (
    FamilyPair,
    SymmetryReport,
    VertexSetPair,
    check_symmetry_conditions,
    is_automorphism,
)
from .scenarios import (
    Scenario,
    bunkbed_scenario,
    discrete_derivative,
    group_theorem_battery,
    hypercube_inequality_report,
    hypercube_scenario,
    layered_scenario,
    run_scenario,
    z2_scenario,
)

__version__ = "0.1.0"
