"""qi-sentry: quasi-identifier selection for tabular clinical-style data.

Pipeline: ingest a delimited table, classify columns (DID/QI/SA/NSA),
score the QI columns by uniqueness and equivalence-class influence,
grade the data requestor, and select the final QI set against the
grade-derived threshold.
"""

from .assessment import (
    AssessmentForm,
    LinkageGrade,
    RequestorScore,
    UserGrade,
    grade_requestor,
    score_linkage,
    score_reid_ability,
    score_understanding,
)
from .classifier import (
    ClassificationRules,
    ClassifiedTable,
    ColumnClass,
    Rule,
    classification_census,
    classify,
    default_rules,
    load_rules,
)
from .errors import (
    IngestError,
    InvalidForm,
    InvalidSpec,
    MetricUndefined,
    NoSuchColumn,
    QiSentryError,
    RulesError,
)
from .generate import ColumnSpec, SyntheticSpec, generate_table, rules_for_spec
from .metrics import (
    GroupingEngine,
    RiskScore,
    UniversePolicy,
    equivalence_class_count,
    influence,
    score_columns,
    secondary_qis,
    uniqueness,
)
from .selection import (
    SelectionReport,
    SelectionThreshold,
    build_report,
    manual_threshold,
    select_final_qis,
    threshold_for,
)
from .table import CellValue, ColumnMeta, IngestOptions, Table, ingest_delimited

__all__ = [
    "AssessmentForm",
    "CellValue",
    "ClassificationRules",
    "ClassifiedTable",
    "ColumnClass",
    "ColumnMeta",
    "ColumnSpec",
    "GroupingEngine",
    "IngestError",
    "IngestOptions",
    "InvalidForm",
    "InvalidSpec",
    "LinkageGrade",
    "MetricUndefined",
    "NoSuchColumn",
    "QiSentryError",
    "RequestorScore",
    "RiskScore",
    "Rule",
    "RulesError",
    "SelectionReport",
    "SelectionThreshold",
    "SyntheticSpec",
    "Table",
    "UniversePolicy",
    "UserGrade",
    "build_report",
    "classification_census",
    "classify",
    "default_rules",
    "equivalence_class_count",
    "generate_table",
    "grade_requestor",
    "influence",
    "ingest_delimited",
    "load_rules",
    "manual_threshold",
    "rules_for_spec",
    "score_columns",
    "score_linkage",
    "score_reid_ability",
    "score_understanding",
    "secondary_qis",
    "select_final_qis",
    "threshold_for",
    "uniqueness",
]
