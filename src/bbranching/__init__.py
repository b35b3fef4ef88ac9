"""Degree-capped branchings in digraphs: optimization, packing, covering.

The feasible arc sets ("b-branchings") are those with at most b(v) arcs
entering each vertex v and at most b(X) - 1 arcs induced by every nonempty
vertex set X.  The package computes maximum-weight solutions with exact
integral dual certificates, packs and covers by disjoint solutions, splits
integer polytope points, and generalizes the per-vertex capacity to an
arbitrary matroid, all cross-checkable against brute-force oracles.
"""

from .digraph import Digraph, in_arcs, induced_arcs, strong_components
from .matroids import (
    BBranching,
    CapacityVector,
    DemandVector,
    IndegreeDependenceError,
    MatroidOracle,
    PartitionOracle,
    UniformOracle,
    fundamental_circuit,
    indegree_independent,
    is_b_branching,
    partition_oracle,
    sparsity_independent,
    sparsity_violating_components,
    uniform_oracle,
)
from .greedy import (
    CertificateCheck,
    DualCertificate,
    WeightVector,
    dual_from_run,
    max_weight_b_branching,
    max_weight_indegree_set,
    verify_certificate,
)
from .packing import (
    Feasibility,
    InfeasiblePackingError,
    PackingInstance,
    PackingResult,
    check_packing_conditions,
    exists_b_branching_with_indegree,
    find_disjoint_b_branchings,
    g_value,
    min_weight_disjoint_b_branchings,
)
from .covering import (
    DecompositionError,
    check_cover_conditions,
    cover_by_b_branchings,
    integer_decompose,
)
from .mrgreedy import MatroidAssignment, OracleInconsistencyError, mr_max_weight_b_branching
from .oracle import SizeGateError, brute_exists_packing, brute_max_weight

__all__ = [
    "BBranching",
    "CapacityVector",
    "CertificateCheck",
    "DecompositionError",
    "DemandVector",
    "Digraph",
    "DualCertificate",
    "Feasibility",
    "IndegreeDependenceError",
    "InfeasiblePackingError",
    "MatroidAssignment",
    "MatroidOracle",
    "OracleInconsistencyError",
    "PackingInstance",
    "PackingResult",
    "PartitionOracle",
    "SizeGateError",
    "UniformOracle",
    "WeightVector",
    "brute_exists_packing",
    "brute_max_weight",
    "check_cover_conditions",
    "check_packing_conditions",
    "cover_by_b_branchings",
    "dual_from_run",
    "exists_b_branching_with_indegree",
    "find_disjoint_b_branchings",
    "fundamental_circuit",
    "g_value",
    "in_arcs",
    "indegree_independent",
    "induced_arcs",
    "integer_decompose",
    "is_b_branching",
    "max_weight_b_branching",
    "max_weight_indegree_set",
    "min_weight_disjoint_b_branchings",
    "mr_max_weight_b_branching",
    "partition_oracle",
    "sparsity_independent",
    "sparsity_violating_components",
    "strong_components",
    "uniform_oracle",
    "verify_certificate",
]

__version__ = "0.1.0"
