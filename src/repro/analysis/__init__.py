"""``repro.analysis`` — project-specific static analysis for the repro codebase.

The verification engine's correctness rests on conventions no generic
linter knows about: claim-protected solver sessions, lock-guarded shared
registries, a non-blocking asyncio front door, and exception handlers
that must not swallow failures silently.  This package mechanizes those
conventions as AST-level rules (stdlib :mod:`ast` only, no third-party
dependencies) behind a small rule engine with per-line suppression
comments::

    some_call()  # repro: allow[REPRO-LOCK] reason the exception is sound

Run it as ``python -m repro analyze src/`` (exits nonzero on findings)
or programmatically through :class:`Analyzer`.
"""

from repro.analysis.core import Finding, Rule, SourceFile
from repro.analysis.engine import Analyzer, main
from repro.analysis.rules import DEFAULT_RULES

__all__ = [
    "Analyzer",
    "DEFAULT_RULES",
    "Finding",
    "Rule",
    "SourceFile",
    "main",
]
