"""The project rule set. Add new rules here and in the README table."""

from repro.analysis.rules.affinity import SessionAffinityRule
from repro.analysis.rules.asyncblock import BlockingInAsyncRule
from repro.analysis.rules.exceptions import SilentExceptRule
from repro.analysis.rules.locks import LockDisciplineRule

__all__ = [
    "DEFAULT_RULES",
    "BlockingInAsyncRule",
    "LockDisciplineRule",
    "SessionAffinityRule",
    "SilentExceptRule",
]

DEFAULT_RULES = (
    LockDisciplineRule(),
    SessionAffinityRule(),
    BlockingInAsyncRule(),
    SilentExceptRule(),
)
