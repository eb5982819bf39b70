"""Core model of the analyzer: findings, sources, rules, suppressions.

A :class:`SourceFile` wraps one parsed Python file together with its
suppression table; a :class:`Rule` inspects one file at a time and yields
:class:`Finding` objects.  The
:class:`~repro.analysis.engine.Analyzer` drives the rules and filters
findings a ``# repro: allow[RULE-ID]`` comment waives.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

__all__ = ["Finding", "Rule", "SourceFile", "attr_chain", "parse_suppressions"]

#: ``# repro: allow[RULE-ID]`` (optionally ``allow[A,B]``), with free-form
#: reason text after the bracket.  ``allow[*]`` waives every rule.
_SUPPRESS_RE = re.compile(r"#\s*repro:\s*allow\[([A-Za-z0-9*,\- ]+)\]")


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at a source location."""

    path: str
    line: int
    col: int
    rule_id: str
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule_id} {self.message}"

    def to_dict(self) -> dict:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule_id,
            "message": self.message,
        }


def parse_suppressions(lines: Iterable[str]) -> dict[int, set[str]]:
    """Map line number -> waived rule ids for ``# repro: allow[...]`` comments.

    A suppression on a code line covers findings on that line; a comment
    standing alone on its own line covers the next line instead (useful
    above a ``with`` statement or a decorated definition).
    """
    table: dict[int, set[str]] = {}
    for number, text in enumerate(lines, start=1):
        match = _SUPPRESS_RE.search(text)
        if match is None:
            continue
        rules = {part.strip() for part in match.group(1).split(",") if part.strip()}
        target = number + 1 if text.lstrip().startswith("#") else number
        table.setdefault(target, set()).update(rules)
    return table


class SourceFile:
    """One parsed Python source file plus its suppression table."""

    def __init__(self, path: str | Path, text: str | None = None):
        self.path = Path(path)
        self.text = self.path.read_text() if text is None else text
        self.lines = self.text.splitlines()
        self.tree = ast.parse(self.text, filename=str(self.path))
        self.suppressions = parse_suppressions(self.lines)

    @property
    def posix(self) -> str:
        """The path with forward slashes — what path-scoped rules match on."""
        return self.path.as_posix()

    def is_suppressed(self, finding: Finding) -> bool:
        waived = self.suppressions.get(finding.line)
        if not waived:
            return False
        return finding.rule_id in waived or "*" in waived

    def finding(self, rule_id: str, node: ast.AST, message: str) -> Finding:
        return Finding(
            path=str(self.path),
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule_id=rule_id,
            message=message,
        )


class Rule:
    """Base class for analyzer rules: each overrides :meth:`check_file`."""

    rule_id: str = ""
    description: str = ""

    def check_file(self, source: SourceFile) -> Iterator[Finding]:
        return iter(())


def attr_chain(node: ast.AST) -> str | None:
    """Dotted name for an attribute chain (``a.b.c``), else None.

    Calls inside the chain break it (``a().b`` has no static root), which
    is the conservative behaviour the rules want.
    """
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None
