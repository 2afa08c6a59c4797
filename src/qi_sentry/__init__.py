"""qi-sentry: quasi-identifier selection for tabular clinical-style data.

Pipeline: ingest a delimited table, classify columns (DID/QI/SA/NSA),
score the QI columns by uniqueness and equivalence-class influence,
grade the data requestor, and select the final QI set against the
grade-derived threshold.

Each public name, and each submodule, is imported on first access
(PEP 562), so ``import qi_sentry`` loads neither numpy nor any
submodule; a program pays only for the modules it uses.
"""

from importlib import import_module

_EXPORTS = {
    "assessment": (
        "AssessmentForm",
        "LinkageGrade",
        "RequestorScore",
        "UserGrade",
        "grade_requestor",
        "score_linkage",
        "score_reid_ability",
        "score_understanding",
    ),
    "classifier": (
        "ClassificationRules",
        "ClassifiedTable",
        "ColumnClass",
        "Rule",
        "classification_census",
        "classify",
        "default_rules",
        "load_rules",
    ),
    "errors": (
        "IngestError",
        "InvalidForm",
        "InvalidSpec",
        "MetricUndefined",
        "NoSuchColumn",
        "QiSentryError",
        "RulesError",
    ),
    "generate": ("ColumnSpec", "SyntheticSpec", "generate_table", "rules_for_spec"),
    "metrics": (
        "GroupingEngine",
        "RiskScore",
        "UniversePolicy",
        "equivalence_class_count",
        "influence",
        "score_columns",
        "secondary_qis",
        "uniqueness",
    ),
    "selection": (
        "SelectionReport",
        "SelectionThreshold",
        "build_report",
        "manual_threshold",
        "select_final_qis",
        "threshold_for",
    ),
    "table": ("CellValue", "ColumnMeta", "IngestOptions", "Table", "ingest_delimited"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = (*_EXPORTS, "oracle", "cli")

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return import_module(f".{name}", __name__)  # the import binds it here
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
