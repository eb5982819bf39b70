"""Seeded REPRO-SESSION violations: direct session use from an
unmediated module (this file does not live under an allowlisted path)."""

from repro.smt.interface import SolveSession  # BAD: import of a session type
from repro.smt.parallel import split_check  # BAD: split_check drives a session


def sneaky_check(formula, context):
    session = SolveSession(formula)  # BAD: constructs a session directly
    session.check()
    return context.session.check()  # BAD: reaches through .session
