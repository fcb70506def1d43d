"""Finding model shared by every analysis pass.

A :class:`Finding` is one diagnostic: a rule id, a location (file:line
for lint findings; a ``<pass:scheme@world=N[/cell]>`` pseudo-path for
the semantic passes) and a message.  How a semantic finding renders and
what its fingerprint hashes is data — the per-source :data:`SOURCES`
table — not a branch per pass.  Findings carry a stable *fingerprint*:
an identity that survives unrelated line shifts, so a finding can be
tracked across runs and tests can pin it.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass, field
from typing import Mapping, NamedTuple

__all__ = ["Finding", "CellFindings", "JSON_REPORT_SCHEMA", "SOURCES",
           "rule_table", "sort_findings"]


class Source(NamedTuple):
    """How one semantic pass's findings present themselves."""

    label: str           # ``str.format`` template over scheme/world
    cell_in_path: bool   # fingerprint by pseudo-path, not (scheme, world):
                         # the path carries the campaign/model/fleet-cell
                         # axis that scheme/world alone cannot distinguish


_WORLD = "{scheme}@world={world}"

#: ``Finding.source`` -> presentation, one row per semantic pass.  A
#: source not listed here (``lint``, ``faults``) renders as a file
#: location and fingerprints by (scheme, world).
SOURCES: dict[str, Source] = {
    "schedule": Source(_WORLD, False),
    "contract": Source("{scheme}", False),
    "race": Source(_WORLD, False),
    "plan": Source("{scheme}", False),
    "shape": Source(_WORLD, False),
    "health": Source(_WORLD, False),
    "liveness": Source(_WORLD, True),
    "overlap": Source(_WORLD, True),
    "sched": Source("{scheme}@jobs={world}", True),
    "elastic": Source(_WORLD, True),
}


@dataclass(frozen=True)
class Finding:
    """One diagnostic from the linter or a semantic pass."""

    rule: str            # e.g. "REP001", "SCH005", "CON003", "BWP001"
    path: str            # file path, or a <pass:...> pseudo-path
    line: int            # 1-based; 0 for non-lint findings
    col: int             # 0-based; 0 for non-lint findings
    message: str
    source: str = "lint"     # "lint", "faults" or a key of SOURCES
    snippet: str = ""        # stripped source line (file findings)
    scheme: str = ""         # reduction scheme, compression method, or solver
    world: int = 0           # world size (0 for lint/contract/plan findings)
    occurrence: int = field(default=0, compare=False)

    @classmethod
    def semantic(cls, source: str, rule: str, message: str, scheme: str = "",
                 world: int = 0, path: str | None = None) -> Finding:
        """A battery (non-file) finding.

        ``path`` defaults to the source's render label as a pseudo-path,
        ``<source:scheme[@world=N]>``; passes whose cells carry a further
        axis (campaign, model, fleet cell) pass their case path.
        """
        if path is None:
            label = SOURCES[source].label.format(scheme=scheme, world=world)
            path = f"<{source}:{label}>"
        return cls(rule=rule, path=path, line=0, col=0, message=message,
                   source=source, scheme=scheme, world=world)

    @property
    def fingerprint(self) -> str:
        """Location-tolerant identity: survives unrelated line shifts.

        Lint findings — and any finding carrying a source snippet, such
        as the DLV006 / OVL006 / SCD007 file diagnostics — hash (rule,
        path, stripped line text, occurrence index among identical
        lines); semantic findings hash (rule, pseudo-path, message) when
        the source's path carries the cell, else (rule, scheme, world,
        message).
        """
        if self.source == "lint" or self.snippet:
            raw = f"{self.rule}|{self.path}|{self.snippet}|{self.occurrence}"
        elif self.source in SOURCES and SOURCES[self.source].cell_in_path:
            raw = f"{self.rule}|{self.path}|{self.message}"
        else:
            raw = f"{self.rule}|{self.scheme}|{self.world}|{self.message}"
        return hashlib.sha256(raw.encode("utf-8")).hexdigest()[:16]

    def to_dict(self) -> dict:
        """Every field but the occurrence index, plus the fingerprint."""
        data = asdict(self)
        del data["occurrence"]
        data["fingerprint"] = self.fingerprint
        return data

    def render(self) -> str:
        if self.source in SOURCES and not self.snippet:
            label = SOURCES[self.source].label.format(scheme=self.scheme,
                                                      world=self.world)
            return f"{self.source}[{label}]: {self.rule} {self.message}"
        return f"{self.path}:{self.line}:{self.col + 1}: {self.rule} {self.message}"


class CellFindings(list):
    """The findings of one battery cell: a list that knows its cell.

    A check binds ``(source, rules, scheme, world, path)`` once and then
    emits ``(rule, message)`` pairs; a rule id missing from the pass's
    table is a programming error, refused here.
    """

    def __init__(self, source: str, rules: Mapping[str, str],
                 scheme: str = "", world: int = 0,
                 path: str | None = None) -> None:
        super().__init__()
        self.source, self.rules = source, rules
        self.scheme, self.world, self.path = scheme, world, path

    def emit(self, rule: str, message: str, scheme: str | None = None
             ) -> None:
        """Append one finding; ``scheme`` overrides the cell's (the HLT
        checks name a campaign per finding)."""
        if rule not in self.rules:
            raise KeyError(f"{rule} is not in the {self.source} rule table")
        self.append(Finding.semantic(
            self.source, rule, message,
            self.scheme if scheme is None else scheme, self.world, self.path))


def rule_table(intro: str | None, rules: Mapping[str, str]) -> str:
    """A pass module's docstring: its intro, then its rule table (the
    one per-rule copy in code; the long form is docs/analysis.md)."""
    return (intro or "") + "\n".join(
        f"``{rule}``  {text}" for rule, text in rules.items()) + "\n"


def sort_findings(findings: list[Finding]) -> list[Finding]:
    return sorted(findings, key=lambda f: (f.source, f.path, f.line, f.col,
                                           f.rule, f.message))


#: Minimal JSON-schema-style description of ``--format json`` output,
#: validated by tests without requiring the ``jsonschema`` package.
JSON_REPORT_SCHEMA = {
    "type": "object",
    "required": ["version", "findings", "summary"],
    "properties": {
        "version": {"type": "integer"},
        "findings": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["rule", "path", "line", "col", "message",
                             "source", "fingerprint"],
                "properties": {
                    "rule": {"type": "string"},
                    "path": {"type": "string"},
                    "line": {"type": "integer"},
                    "col": {"type": "integer"},
                    "message": {"type": "string"},
                    "source": {"type": "string"},
                    "snippet": {"type": "string"},
                    "scheme": {"type": "string"},
                    "world": {"type": "integer"},
                    "fingerprint": {"type": "string"},
                },
            },
        },
        "summary": {
            "type": "object",
            "required": ["total", "by_rule"],
            "properties": {
                "total": {"type": "integer"},
                "by_rule": {"type": "object"},
            },
        },
    },
}
