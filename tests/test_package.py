"""The package namespace: eager integer layer, every other public name on first access."""

import importlib

import pytest

import qsymlie

# The public names of the package, each with the module that defines it.
EXPORTS = {
    "tolerances": ("CLUSTER_TOL", "RANK_TOL"),
    "linalg": (
        "EigenClustering", "OrthonormalSpan", "cluster_eigenvalues", "commutator",
        "frobenius_inner", "hermitian_eig", "is_hermitian", "is_skew_hermitian", "kron",
        "matrix_from_json", "matrix_to_json", "orthonormal_extend", "real_span_dim", "span_of",
    ),
    "reptheory": (
        "GTPattern", "SSYT", "algorithm1_decompose", "ambient_commutant_dim", "c2_eigenvalue",
        "cg_decompose", "center_dimension", "degeneracy_search", "enumerate_gt_patterns",
        "gt_to_ssyt", "irrep_dimension", "normalize_iweight", "quantum_numbers", "ssyt_to_gt",
        "sz_eigenvalue", "tensor_with_standard", "weight_vector",
    ),
    "generators": (
        "HermitianBasis", "StructureConstants", "collective", "gell_mann_basis", "hat_f",
        "multi_indices", "pauli_matrices", "perm_from_cycles", "permutation_operator",
        "structure_constants", "symmetric_sum", "two_body_hamiltonian",
    ),
    "casimir": (
        "CenterBasis", "HighestWeightError", "IsotypicBlock", "WeightBlock", "apply_C2",
        "apply_C3", "build_C2", "build_C3", "highest_weight_blocks",
        "highest_weight_counts", "isotypic_blocks", "qubit_center_element",
    ),
    "closure": (
        "BlockFrame", "ControllabilityReport", "GeneratorSet", "LieClosureResult", "RoundTrace",
        "levi_split", "lie_closure", "membership", "preset", "restrict_to_block",
        "subspace_controllability",
    ),
}
NAMES = [(module, name) for module, names in EXPORTS.items() for name in names]


@pytest.mark.parametrize("module,name", NAMES, ids=[name for _, name in NAMES])
def test_name_resolves_to_its_home_object(module, name):
    home = getattr(importlib.import_module(f"qsymlie.{module}"), name)
    assert getattr(qsymlie, name) is home
    namespace = {}
    exec(f"from qsymlie import {name}", namespace)
    assert namespace[name] is home


def test_casimir_keeps_the_su3_search():
    from qsymlie import casimir, reptheory

    assert casimir.degeneracy_search is reptheory.degeneracy_search
    assert casimir.c2_eigenvalue is reptheory.c2_eigenvalue


def test_all_dir_and_star_import_list_every_name():
    names = {name for _, name in NAMES}
    assert set(qsymlie.__all__) == names
    assert names <= set(dir(qsymlie))
    namespace = {}
    exec("from qsymlie import *", namespace)
    assert names <= set(namespace)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        qsymlie.no_such_name
    with pytest.raises(ImportError):
        exec("from qsymlie import no_such_name", {})
