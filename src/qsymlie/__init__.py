"""Controllability analysis of permutation-symmetric qudit networks.

Exact su(d) representation bookkeeping (i-weights, Gelfand-Tsetlin patterns,
Clebsch-Gordan multiplicities), Casimir operators and isotypic projection,
and a numerical Lie-closure engine with subspace-controllability verdicts.

Only the integer layer (``reptheory``) and the tolerances load with the
package.  Every other public name is imported from its module on first
access (PEP 562), so importing qsymlie does not load numpy.
"""

import importlib

from .reptheory import (
    GTPattern,
    SSYT,
    algorithm1_decompose,
    ambient_commutant_dim,
    c2_eigenvalue,
    cg_decompose,
    center_dimension,
    degeneracy_search,
    enumerate_gt_patterns,
    gt_to_ssyt,
    irrep_dimension,
    normalize_iweight,
    quantum_numbers,
    ssyt_to_gt,
    sz_eigenvalue,
    tensor_with_standard,
    weight_vector,
)
from .tolerances import CLUSTER_TOL, RANK_TOL

__version__ = "0.1.0"

# Public name -> the module it is imported from on first access.
_LAZY = {
    name: module
    for module, names in (
        ("linalg", (
            "EigenClustering", "OrthonormalSpan", "cluster_eigenvalues", "commutator",
            "frobenius_inner", "hermitian_eig", "is_hermitian", "is_skew_hermitian", "kron",
            "matrix_from_json", "matrix_to_json", "orthonormal_extend", "real_span_dim",
            "span_of",
        )),
        ("generators", (
            "HermitianBasis", "StructureConstants", "collective", "gell_mann_basis", "hat_f",
            "multi_indices", "pauli_matrices", "perm_from_cycles", "permutation_operator",
            "structure_constants", "symmetric_sum", "two_body_hamiltonian",
        )),
        ("casimir", (
            "CenterBasis", "HighestWeightError", "IsotypicBlock", "WeightBlock", "apply_C2",
            "apply_C3", "build_C2", "build_C3", "highest_weight_blocks",
            "highest_weight_counts", "isotypic_blocks", "qubit_center_element",
        )),
        ("closure", (
            "BlockFrame", "ControllabilityReport", "GeneratorSet", "LieClosureResult",
            "RoundTrace", "levi_split", "lie_closure", "membership", "preset",
            "restrict_to_block", "subspace_controllability",
        )),
    )
    for name in names
}

__all__ = sorted([
    "CLUSTER_TOL", "RANK_TOL",
    "GTPattern", "SSYT", "algorithm1_decompose", "ambient_commutant_dim", "c2_eigenvalue",
    "cg_decompose", "center_dimension", "degeneracy_search", "enumerate_gt_patterns",
    "gt_to_ssyt", "irrep_dimension", "normalize_iweight", "quantum_numbers", "ssyt_to_gt",
    "sz_eigenvalue", "tensor_with_standard", "weight_vector",
    *_LAZY,
])


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return __all__
