"""The analyzer driver and its command-line front end.

``Analyzer`` walks the given paths for ``.py`` files, runs every rule on
each file, then drops
findings waived by ``# repro: allow[RULE-ID]`` comments.  Unparsable
files are reported as ``REPRO-PARSE`` findings rather than crashing the
run.  ``main`` is what ``python -m repro analyze`` dispatches to: exit 0
when clean, 1 on findings, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Iterable, Sequence

from repro.analysis.core import Finding, Rule, SourceFile
from repro.analysis.rules import DEFAULT_RULES

__all__ = ["Analyzer", "iter_python_files", "main"]

PARSE_RULE_ID = "REPRO-PARSE"


def iter_python_files(paths: Iterable[str | Path]) -> list[Path]:
    """Expand files/directories into a sorted, de-duplicated ``.py`` list."""
    seen: dict[Path, None] = {}
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            candidates: Iterable[Path] = sorted(path.rglob("*.py"))
        else:
            candidates = [path]
        for candidate in candidates:
            if "__pycache__" in candidate.parts:
                continue
            seen.setdefault(candidate, None)
    return list(seen)


class Analyzer:
    """Run a rule set over a file tree and collect findings."""

    def __init__(self, rules: Sequence[Rule] | None = None):
        self.rules = tuple(DEFAULT_RULES if rules is None else rules)

    def analyze_paths(self, paths: Iterable[str | Path]) -> list[Finding]:
        files: list[SourceFile] = []
        findings: list[Finding] = []
        for path in iter_python_files(paths):
            try:
                files.append(SourceFile(path))
            except (SyntaxError, ValueError, OSError) as error:
                line = getattr(error, "lineno", None) or 1
                findings.append(Finding(
                    path=str(path), line=line, col=1,
                    rule_id=PARSE_RULE_ID, message=str(error),
                ))
        findings.extend(self.analyze_files(files))
        return sorted(findings)

    def analyze_files(self, files: list[SourceFile]) -> list[Finding]:
        by_path = {str(source.path): source for source in files}
        findings: list[Finding] = []
        for source in files:
            for rule in self.rules:
                findings.extend(rule.check_file(source))
        kept = []
        for finding in findings:
            source = by_path.get(finding.path)
            if source is not None and source.is_suppressed(finding):
                continue
            kept.append(finding)
        return sorted(kept)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro analyze",
        description="Project-specific static analysis (repro.analysis).",
    )
    parser.add_argument("paths", nargs="*", default=["src"],
                        help="files or directories to analyze (default: src)")
    parser.add_argument("--json", action="store_true",
                        help="emit findings as a JSON array")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule table and exit")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_rules:
        for rule in DEFAULT_RULES:
            print(f"{rule.rule_id}: {rule.description}")
        print(f"{PARSE_RULE_ID}: a file the analyzer cannot parse")
        return 0
    findings = Analyzer().analyze_paths(args.paths)
    if args.json:
        print(json.dumps([finding.to_dict() for finding in findings], indent=2))
    else:
        for finding in findings:
            print(finding.format())
        count = len(findings)
        if count:
            print(f"{count} finding{'s' if count != 1 else ''}", file=sys.stderr)
    return 1 if findings else 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
