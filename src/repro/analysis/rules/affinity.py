"""REPRO-SESSION — solver sessions touched outside claim-mediated modules.

Concurrency safety in this codebase is the per-code claim, not locking a
session: a ``SolveSession`` (or the ``CodeContext`` that owns one, or the
``split_check`` that solves on one) may only be driven through the
resource/engine/job layer, where every execution
holds its task's claimed code.  Any other module calling session methods
directly — importing the classes, constructing them, or reaching through a
``.session`` attribute — bypasses the claim and can race a live solve.

The allowlist names the modules that ARE the mediation layer (plus the
``smt`` package that defines the types and the package ``__init__``
re-exports).  Tests are not analyzed by the CI job, so single-threaded
test usage stays unrestricted.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.core import Finding, Rule, SourceFile

__all__ = ["SESSION_TYPES", "SessionAffinityRule"]

SESSION_TYPES = frozenset({"SolveSession", "CodeContext", "split_check"})

#: posix path suffixes/fragments of modules allowed to touch sessions.
ALLOWED_PATHS = (
    "repro/smt/",
    "repro/api/resources.py",
    "repro/api/engine.py",
    "repro/api/backends.py",
    "repro/api/jobs.py",
    "repro/api/__init__.py",
    "repro/analysis/",
)


class SessionAffinityRule(Rule):
    rule_id = "REPRO-SESSION"
    description = (
        "direct SolveSession/CodeContext/split_check use outside the "
        "claim-mediated modules"
    )

    def check_file(self, source: SourceFile) -> Iterator[Finding]:
        posix = source.posix
        if any(fragment in posix for fragment in ALLOWED_PATHS):
            return
        for node in ast.walk(source.tree):
            if isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    if alias.name in SESSION_TYPES:
                        yield source.finding(
                            self.rule_id,
                            node,
                            f"imports '{alias.name}': solver sessions are "
                            "driven under a claimed code; go through "
                            "Engine.run/submit",
                        )
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                if node.func.id in SESSION_TYPES:
                    yield source.finding(
                        self.rule_id,
                        node,
                        f"constructs '{node.func.id}' directly; sessions must "
                        "be created and driven by the resource layer",
                    )
            elif isinstance(node, ast.Attribute):
                # x.session.<anything> — reaching through a context's live
                # session from an unmediated module.
                value = node.value
                if isinstance(value, ast.Attribute) and value.attr == "session":
                    yield source.finding(
                        self.rule_id,
                        node,
                        f"reaches through '.session.{node.attr}'; only an "
                        "execution holding the claimed code may drive its session",
                    )
