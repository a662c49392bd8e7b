"""Public-API surface guard.

Catches accidental removals or renames of exported names: downstream
users import from these module roots, so the surface is a contract.
Every ``__all__`` entry must also resolve to a real attribute.
"""

import importlib

import pytest


EXPECTED_SURFACE = {
    "repro": {
        "Const", "Null", "Var", "Schema", "Instance", "Fact", "fact",
        "Atom", "atom", "Tgd", "DisjunctiveTgd", "ConjunctiveQuery",
        "parse_dependency", "parse_dependencies", "parse_query",
        "is_homomorphic", "is_hom_equivalent", "find_homomorphism", "core",
        "chase", "ChaseResult", "ChaseNonTermination",
        "disjunctive_chase", "reverse_disjunctive_chase", "minimize_branches",
        "SchemaMapping", "in_extension", "in_extension_reverse",
        "is_extended_solution", "extended_universal_solution",
        "identity_contains", "extended_identity_contains",
        "in_extended_composition",
    },
    "repro.logic": {
        "Atom", "Tgd", "DisjunctiveTgd", "ConjunctiveQuery",
        "Inequality", "ConstantGuard", "match_atoms",
        "contained_in", "equivalent_queries", "minimize_query",
        "implies", "equivalent", "prune_redundant",
        "normalize", "split_full_conclusions",
    },
    "repro.homs": {
        "is_homomorphic", "is_hom_equivalent", "find_homomorphism",
        "all_homomorphisms", "core", "enumerate_quotients", "Quotient",
        "is_isomorphic", "find_isomorphism", "canonically_equivalent",
    },
    "repro.inverses": {
        "CheckVerdict", "Counterexample",
        "canonical_source_instances", "homomorphism_property_counterexample",
        "is_chase_inverse", "is_extended_invertible",
        "canonical_recovery_member", "in_arrow_m",
        "is_extended_recovery", "is_maximum_extended_recovery",
        "maximum_extended_recovery_for_full_tgds",
        "exact_information_branch", "is_universal_faithful",
        "universal_faithful_report",
        "information_loss_pairs", "is_less_lossy", "sample_information_loss",
        "is_ground_recovery", "is_invertible", "subset_property_counterexample",
        "is_witness_solution", "solutions_contained",
        "is_quasi_inverse", "saturate", "sol_equivalent",
    },
    "repro.mappings": {
        "SchemaMapping", "compose", "NotComposable",
        "in_extended_composition", "right_composition_relation",
        "identity_contains", "extended_identity_contains",
    },
    "repro.reverse": {
        "forward_exchange", "reverse_exchange", "round_trip",
        "EvolutionPipeline", "Hop",
        "certain_answers", "reverse_certain_answers",
        "brute_force_certain_answers",
    },
    "repro.analysis": {"MappingReport", "analyze_mapping"},
    "repro.workloads": {
        "PAPER_SCENARIOS", "Scenario", "get_scenario",
        "random_instance", "random_source_instances", "random_full_tgd_mapping",
    },
}


@pytest.mark.parametrize("module_name", sorted(EXPECTED_SURFACE))
def test_expected_names_exported(module_name):
    module = importlib.import_module(module_name)
    missing = EXPECTED_SURFACE[module_name] - set(dir(module))
    assert not missing, f"{module_name} lost exports: {sorted(missing)}"


@pytest.mark.parametrize("module_name", sorted(EXPECTED_SURFACE))
def test_all_entries_resolve(module_name):
    module = importlib.import_module(module_name)
    declared = getattr(module, "__all__", [])
    for name in declared:
        assert hasattr(module, name), f"{module_name}.__all__ lists missing {name}"


def test_version_string():
    import repro

    assert repro.__version__.count(".") == 2
