"""Exact fairness audits, losses, and hardness constructions for risk assignments.

The package works over two demographic groups and a finite set of feature
vectors. Everything numeric is an exact rational unless a function says
otherwise, so audit verdicts are decisions, not approximations.

Each exported name is imported from its module on first use, so a program
that audits loads neither the searches nor the reduction, and one that only
validates loads no audit.
"""
import sys
from importlib import import_module
from types import ModuleType


class _Package(ModuleType):
    # `loss` names both a submodule and its function. Importing the submodule
    # binds it to `riskaudit.loss`, which `__getattr__` would then never see,
    # so that binding takes the function instead
    def __setattr__(self, name: str, value) -> None:
        super().__setattr__(name, value.loss if name == "loss" and isinstance(value, ModuleType) else value)


sys.modules[__name__].__class__ = _Package

__version__ = "0.1.0"

_EXPORTS = {
    "audit": (
        "ApproxAuditReport", "AuditReport", "ConsequenceFlags", "audit_approx", "audit_exact",
        "classify_consequence", "consequence_slack", "passes_fairness",
    ),
    "errors": (
        "DegenerateGroupError", "DocumentError", "DomainError", "InvalidAssignmentError",
        "InvalidInstanceError", "ReductionInfeasibleError", "RiskAuditError",
    ),
    "loss": (
        "FairnessDifference", "LossReport", "fairness_difference", "find_fair_nontrivial",
        "identity_assignment", "interpolate", "is_nontrivial", "loss", "normalize_assignment",
        "target_lambda", "trivial_assignment",
    ),
    "model": (
        "GROUPS", "DivergenceEntry", "DivergenceReport", "FeatureVector", "GroupStats", "Instance",
        "Record", "RecordTable", "RiskAssignment", "ValidationReport", "as_fraction",
        "derived_stats", "feature", "ingest_records", "require_valid", "validate_instance",
    ),
    "partitions": ("DEFAULT_MAX_ITEMS", "Partition", "bell_number", "enumerate_partitions"),
    "reduction": (
        "ReducedInstance", "SubsetSumInstance", "check_reduction_equation", "decode_partition",
        "encode_solution", "is_normal_form", "reduce_subset_sum", "search_groupings",
        "search_normal_forms", "solve_subset_sum",
    ),
    "serialize": (
        "SCHEMA_VERSION", "assignment_from_doc", "assignment_to_doc", "dumps_doc",
        "instance_from_doc", "instance_to_doc", "loads_json", "parse_assignment", "parse_instance",
        "parse_rational", "parse_reduced", "records_from_csv", "reduced_from_doc", "reduced_to_doc",
    ),
    "solver": ("OBJECTIVES", "SolveResult", "assignment_from_partition", "solve_integral"),
    "sweep": (
        "SweepReport", "approx_audit_corpus", "banded_split_assignment",
        "calibrated_split_assignment", "pooled_rounded_assignment", "random_equal_rate_instance",
        "random_gapped_instance", "random_instance", "random_perfect_instance",
        "random_proportional_instance", "theorem_sweep", "two_bin_certain_assignment",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_HOME))
