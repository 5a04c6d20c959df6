"""Retracts, foldings and absolute retracts in cographs.

Decision procedures for "is H a retract of G" on threshold graphs,
trivially perfect graphs and general cographs, all returning verifiable
certificates, together with brute-force oracles, folding and achromatic
numbers, an absolute-retract test and a 3-partition hardness-instance
generator.
"""

from importlib import import_module

# the module that defines each public name; a name is imported from it on
# first access, so a process imports only the modules it uses
_SOURCES = {
    "absolute": ("AbsoluteVerdict", "counterexample_embedding", "is_absolute_retract"),
    "cotree": (
        "Cotree",
        "GraphClass",
        "Internal",
        "Leaf",
        "NotCographError",
        "build_cotree",
        "canonical_key",
        "chromatic_number",
        "classify",
        "clique_number",
        "cotree_to_graph",
        "format_cotree",
        "normalize",
        "parse_cotree",
    ),
    "folding": (
        "CompleteColoring",
        "FoldError",
        "FoldSequence",
        "apply_fold",
        "folding_number_universal",
        "threshold_folding_number",
        "verify_fold_sequence",
    ),
    "graph_core": (
        "BudgetExceededError",
        "Graph",
        "NoRetract",
        "ParseError",
        "RetractCertificate",
        "SearchBudget",
        "complement",
        "components",
        "compose_certificates",
        "format_edge_list",
        "format_graph6",
        "induced_subgraph",
        "is_homomorphism",
        "parse_edge_list",
        "parse_graph6",
        "random_cograph",
        "verify_retract_certificate",
    ),
    "matching": ("BipartiteInstance", "Matching", "max_matching", "saturates_right"),
    "oracle": (
        "brute_achromatic",
        "brute_chromatic",
        "brute_clique",
        "brute_folding_number",
        "brute_hom",
        "brute_retract",
    ),
    "reduction": ("ThreePartitionInstance", "brute_3partition", "encode", "validate"),
    "retract_cograph": (
        "PartitionedInstance",
        "fpt_retract",
        "hom_exists",
        "partitioned_retract",
        "retract",
    ),
    "retract_threshold": (
        "EliminationOrder",
        "NotThresholdError",
        "threshold_elimination",
        "threshold_retract",
    ),
    "retract_tp": ("NotTriviallyPerfectError", "tp_retract", "universal_vertices"),
}
_SOURCE_OF = {name: module for module, names in _SOURCES.items() for name in names}

__all__ = sorted(_SOURCE_OF)


def __getattr__(name: str):
    """Import a public name, or a submodule, on first access."""
    module = _SOURCE_OF.get(name)
    if module is not None:
        value = getattr(import_module(f".{module}", __name__), name)
        globals()[name] = value
        return value
    if name in _SOURCES:
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
