"""Per-rule fixture tests: each rule catches its seeded violation and
passes its clean twin; suppression comments waive findings."""

from pathlib import Path

import pytest

from repro.analysis import Analyzer
from repro.analysis.core import SourceFile, parse_suppressions
from repro.analysis.engine import PARSE_RULE_ID

FIXTURES = Path(__file__).parent / "fixtures"

CASES = [
    ("lock_bad.py", "lock_clean.py", "REPRO-LOCK", 4),
    ("affinity_bad.py", "affinity_clean.py", "REPRO-SESSION", 4),
    ("async_bad.py", "async_clean.py", "REPRO-ASYNC", 3),
    ("exc_bad.py", "exc_clean.py", "REPRO-EXC", 3),
]


def analyze(*names):
    return Analyzer().analyze_paths([FIXTURES / name for name in names])


@pytest.mark.parametrize("bad, clean, rule_id, count", CASES)
def test_rule_catches_seeded_violation(bad, clean, rule_id, count):
    findings = analyze(bad)
    assert findings, f"{bad} should produce findings"
    assert {f.rule_id for f in findings} == {rule_id}
    assert len(findings) == count


@pytest.mark.parametrize("bad, clean, rule_id, count", CASES)
def test_rule_passes_clean_twin(bad, clean, rule_id, count):
    assert analyze(clean) == []


def test_bad_fixtures_analyzed_together_keep_their_rules():
    findings = analyze(*[case[0] for case in CASES])
    assert {f.rule_id for f in findings} == {case[2] for case in CASES}


def test_suppression_comment_waives_the_finding():
    assert analyze("suppressed_ok.py") == []


def test_suppression_is_rule_specific():
    text = (FIXTURES / "suppressed_ok.py").read_text()
    wrong_rule = text.replace("allow[REPRO-LOCK]", "allow[REPRO-ASYNC]")
    source = SourceFile(FIXTURES / "suppressed_ok.py", text=wrong_rule)
    findings = Analyzer().analyze_files([source])
    assert [f.rule_id for f in findings] == ["REPRO-LOCK"]


def test_suppression_on_standalone_comment_covers_next_line():
    table = parse_suppressions([
        "# repro: allow[REPRO-LOCK] reason",
        "self._cache[k] = v",
        "x = 1  # repro: allow[REPRO-EXC]",
    ])
    assert table == {2: {"REPRO-LOCK"}, 3: {"REPRO-EXC"}}


def test_wildcard_suppression_waives_every_rule():
    text = (FIXTURES / "lock_bad.py").read_text().replace(
        "self._job_counter += 1  # BAD: outside _submit_lock",
        "self._job_counter += 1  # repro: allow[*]",
    )
    source = SourceFile(FIXTURES / "lock_bad.py", text=text)
    findings = Analyzer().analyze_files([source])
    assert all(f.line != text.splitlines().index(
        "        self._job_counter += 1  # repro: allow[*]") + 1 for f in findings)
    assert len(findings) == 3  # one of the four seeded violations waived


def test_unparsable_file_reports_parse_finding(tmp_path):
    bad = tmp_path / "broken.py"
    bad.write_text("def unclosed(:\n")
    findings = Analyzer().analyze_paths([bad])
    assert [f.rule_id for f in findings] == [PARSE_RULE_ID]


def test_lock_rule_ignores_unregistered_classes(tmp_path):
    snippet = tmp_path / "other.py"
    snippet.write_text(
        "class Unrelated:\n"
        "    def bump(self):\n"
        "        self._hits += 1\n"
    )
    assert Analyzer().analyze_paths([snippet]) == []


def test_async_rule_exempts_nested_sync_defs(tmp_path):
    snippet = tmp_path / "nested.py"
    snippet.write_text(
        "import time\n"
        "async def outer(loop):\n"
        "    def blocking():\n"
        "        time.sleep(1)\n"
        "    return await loop.run_in_executor(None, blocking)\n"
    )
    assert Analyzer().analyze_paths([snippet]) == []
