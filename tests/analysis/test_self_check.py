"""Self-check: the analyzer is clean on the repository's own src tree,
fast enough for CI, and wired into the ``python -m repro`` CLI."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

from repro.analysis import Analyzer
from repro.analysis.rules import DEFAULT_RULES

REPO_ROOT = Path(__file__).parents[2]
SRC = REPO_ROOT / "src"
FIXTURES = Path(__file__).parent / "fixtures"


def run_cli(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "repro", "analyze", *argv],
        capture_output=True, text=True, env=env, cwd=REPO_ROOT, timeout=120,
    )


def test_src_tree_is_clean_at_head():
    findings = Analyzer().analyze_paths([SRC])
    assert findings == [], "\n".join(f.format() for f in findings)


def test_analyzer_wall_clock_under_ten_seconds():
    start = time.perf_counter()
    Analyzer().analyze_paths([SRC])
    assert time.perf_counter() - start < 10.0


def test_cli_exits_zero_on_clean_tree():
    proc = run_cli("src")
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_cli_exits_nonzero_on_each_seeded_fixture():
    for fixture in sorted(FIXTURES.glob("*_bad.py")):
        if fixture.name.startswith("suppressed"):
            continue
        proc = run_cli(str(fixture))
        assert proc.returncode == 1, f"{fixture.name}: {proc.stdout}"
        assert fixture.name in proc.stdout


def test_cli_json_output_is_structured():
    proc = run_cli(str(FIXTURES / "lock_bad.py"), "--json")
    assert proc.returncode == 1
    findings = json.loads(proc.stdout)
    assert findings and all(f["rule"] == "REPRO-LOCK" for f in findings)
    assert {"path", "line", "col", "rule", "message"} <= set(findings[0])


def test_cli_list_rules_names_the_rule_set():
    proc = run_cli("--list-rules")
    assert proc.returncode == 0
    for rule in DEFAULT_RULES:
        assert rule.rule_id in proc.stdout
    named = {line.split(":")[0] for line in proc.stdout.splitlines()}
    assert named == {
        "REPRO-LOCK", "REPRO-SESSION", "REPRO-ASYNC", "REPRO-EXC", "REPRO-PARSE",
    }
