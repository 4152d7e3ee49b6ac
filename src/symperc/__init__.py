"""Verification lab for cluster-size comparison on symmetric graphs.

Exposes the building blocks: graph builders, permutation-group machinery
with the symmetry-condition checker, the exact enumeration engine, the
Monte Carlo engine, and the scenario harnesses behind the CLI.
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
    GroupSplit,
    PermGroup,
    StabilizerChain,
    SymmetryReport,
    VertexSetPair,
    check_symmetry_conditions,
    generate_group,
    is_automorphism,
    orbit,
    split_group,
    stabilizer_chain,
    stabilizer_orbit,
    verify_double_counting,
    verify_orbit_product,
)
from .mc import (
    EmpiricalJoint,
    EmpiricalSweep,
    estimate_joint,
    mc_domination_verdict,
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
