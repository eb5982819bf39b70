"""Benchmark configuration: in-tree imports plus shared fixtures and helpers.

Every benchmark prints the rows/series of the table or figure it reproduces
(a figure's paper scale is noted in its benchmark's docstring, and the
Fig. 4 curve's targets in ROADMAP.md; the distances here are scaled down to
laptop size, preserving the shape of the results).
"""

import pathlib
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


@pytest.fixture(scope="session")
def engine():
    from repro.api import Engine

    return Engine()
