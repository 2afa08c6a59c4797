"""Column classification into DID / QI / SA / NSA.

The judgment "could this column identify someone when combined with
other data" is not computable from cell values, so it is externalized
into an ordered rules file: first matching pattern wins, and anything
unmatched gets the default class. To force one column's class, put an
exact-name rule first. The QI columns that come out of this stage are
the primary QIs; the risk metrics narrow them down afterwards.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from fnmatch import fnmatchcase
from importlib import resources
from pathlib import Path

from .errors import RulesError, read_json
from .table import Table


class ColumnClass(str, Enum):
    DID = "DID"  # direct identifier: always removed
    QI = "QI"    # quasi-identifier: identifying in combination
    SA = "SA"    # sensitive attribute: harms on disclosure
    NSA = "NSA"  # everything else

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class Rule:
    """One classification rule: a case-insensitive name glob.

    A pattern without wildcards is an exact-name match.
    """

    pattern: str
    assign: ColumnClass
    note: str = ""

    def __post_init__(self):
        if not self.pattern:
            raise RulesError("rule pattern must be non-empty")

    def matches(self, column_name: str) -> bool:
        return fnmatchcase(column_name.lower(), self.pattern.lower())


@dataclass(frozen=True)
class ClassificationRules:
    """Ordered rules plus the fallback class; order is significant."""

    rules: tuple[Rule, ...] = ()
    default_class: ColumnClass = ColumnClass.NSA

    def class_for(self, column_name: str) -> ColumnClass:
        for rule in self.rules:
            if rule.matches(column_name):
                return rule.assign
        return self.default_class


@dataclass(frozen=True)
class ClassifiedTable:
    """A table with one class per column; primary QIs are the QI columns."""

    table: Table
    classes: dict[str, ColumnClass]
    primary_qis: frozenset[str]


def classify(table: Table, rules: ClassificationRules) -> ClassifiedTable:
    """Assign every column the class of its first matching rule, else the default.

    Total over valid inputs; classification never fails.
    """
    classes = {name: rules.class_for(name) for name in table.column_names}
    qis = frozenset(name for name, cls in classes.items() if cls is ColumnClass.QI)
    return ClassifiedTable(table=table, classes=classes, primary_qis=qis)


def classification_census(classified: ClassifiedTable) -> dict[str, int]:
    """Per-class column counts; values sum to the number of columns."""
    census = {"did": 0, "qi": 0, "sa": 0, "nsa": 0}
    for cls in classified.classes.values():
        census[cls.value.lower()] += 1
    return census


# -- rules files -------------------------------------------------------

def parse_rules(doc: dict) -> ClassificationRules:
    """Build rules from a parsed JSON document.

    Expected shape::

        { "default": "NSA",
          "rules": [ { "match": "<glob>", "class": "DID|QI|SA|NSA", "note": "..." } ] }
    """
    if not isinstance(doc, dict):
        raise RulesError("rules document must be a JSON object")
    try:
        default = ColumnClass(doc.get("default", "NSA"))
    except ValueError:
        raise RulesError(f"unknown default class {doc.get('default')!r}") from None
    raw_rules = doc.get("rules", [])
    if not isinstance(raw_rules, list):
        raise RulesError('"rules" must be a list')
    rules = []
    for i, entry in enumerate(raw_rules):
        if not isinstance(entry, dict) or "match" not in entry or "class" not in entry:
            raise RulesError(f'rule #{i} must be an object with "match" and "class"')
        try:
            assign = ColumnClass(entry["class"])
        except ValueError:
            raise RulesError(f"rule #{i}: unknown class {entry['class']!r}") from None
        if not isinstance(entry["match"], str) or not entry["match"]:
            raise RulesError(f"rule #{i}: match pattern must be a non-empty string")
        rules.append(Rule(pattern=entry["match"], assign=assign, note=entry.get("note", "")))
    return ClassificationRules(rules=tuple(rules), default_class=default)


def rules_to_doc(rules: ClassificationRules) -> dict:
    """Inverse of :func:`parse_rules`."""
    entries = []
    for rule in rules.rules:
        entry = {"match": rule.pattern, "class": rule.assign.value}
        if rule.note:
            entry["note"] = rule.note
        entries.append(entry)
    return {"default": rules.default_class.value, "rules": entries}


def load_rules(path: str | Path) -> ClassificationRules:
    return parse_rules(read_json(path, RulesError, "rules file"))


def default_rules() -> ClassificationRules:
    """The shipped safe-harbor-inspired pattern set (see data/default_rules.json)."""
    doc = json.loads(
        resources.files("qi_sentry.data").joinpath("default_rules.json").read_text("utf-8")
    )
    return parse_rules(doc)
