"""CLI, baseline round-trip, and gate self-check tests for ``repro lint``."""

from __future__ import annotations

import importlib.util
import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.analysis.lint.baseline import (
    entries_from_findings,
    load_baseline,
    write_baseline,
)
from repro.analysis.lint.core import lint_paths
from repro.analysis.lint.reporters import LINT_REPORT_VERSION
from repro.campaign.cli import main as repro_main
from repro.exceptions import ReproError

REPO_ROOT = Path(__file__).resolve().parents[1]
COMMITTED_BASELINE = REPO_ROOT / ".repro-lint-baseline.json"

#: One minimal violation per rule — each must independently fail the gate.
SEEDED_VIOLATIONS = {
    "global-rng": "import numpy as np\nx = np.random.normal()\n",
    "wall-clock": "import time\nstamp = time.time()\n",
    "unsorted-iteration": (
        "from pathlib import Path\n"
        "names = [p.name for p in Path('.').glob('*.json')]\n"
    ),
    "spec-hash-fields": textwrap.dedent(
        """
        from dataclasses import dataclass

        @dataclass(frozen=True)
        class BadSpec:
            name: str = ""

            def content_hash(self):
                payload = {"name": self.name}
                payload.pop("name")
                return str(payload)
        """
    ),
    "frozen-mutation": (
        "class C:\n    pass\nobject.__setattr__(C(), 'x', 1)\n"
    ),
    "durable-write": "handle = open('log.txt', 'a')\n",
}


def run_lint_cli(*argv: str) -> int:
    """Invoke the wired-up ``python -m repro lint`` entry point."""
    return repro_main(["lint", *argv])


class TestSeededViolations:
    """Acceptance criterion: a seeded violation of each rule exits 1."""

    @pytest.mark.parametrize("rule", sorted(SEEDED_VIOLATIONS))
    def test_each_rule_fails_the_gate(self, rule, tmp_path, capsys):
        bad = tmp_path / "seeded.py"
        bad.write_text(SEEDED_VIOLATIONS[rule])
        assert run_lint_cli(str(bad)) == 1
        out = capsys.readouterr().out
        assert f"[{rule}]" in out

    def test_all_violations_in_one_file(self, tmp_path, capsys):
        bad = tmp_path / "everything.py"
        bad.write_text("\n".join(SEEDED_VIOLATIONS[r] for r in sorted(SEEDED_VIOLATIONS)))
        assert run_lint_cli(str(bad)) == 1
        out = capsys.readouterr().out
        for rule in SEEDED_VIOLATIONS:
            assert f"[{rule}]" in out

    def test_rule_filter_narrows_the_run(self, tmp_path, capsys):
        bad = tmp_path / "two.py"
        bad.write_text(SEEDED_VIOLATIONS["wall-clock"] + SEEDED_VIOLATIONS["durable-write"])
        assert run_lint_cli(str(bad), "--rule", "wall-clock") == 1
        out = capsys.readouterr().out
        assert "[wall-clock]" in out
        assert "[durable-write]" not in out

    def test_unknown_rule_is_a_usage_error(self, tmp_path, capsys):
        assert run_lint_cli(str(tmp_path), "--rule", "bogus") == 2
        assert "unknown rule" in capsys.readouterr().err


class TestCleanRuns:
    def test_clean_file_exits_zero(self, tmp_path, capsys):
        good = tmp_path / "good.py"
        good.write_text("import numpy as np\n\ndef f(rng):\n    return rng.normal()\n")
        assert run_lint_cli(str(good)) == 0
        assert "clean" in capsys.readouterr().out

    def test_list_rules_catalogs_all_six(self, capsys):
        assert run_lint_cli("--list-rules") == 0
        out = capsys.readouterr().out
        for rule in SEEDED_VIOLATIONS:
            assert rule in out


class TestJsonReport:
    def test_json_schema_and_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text(SEEDED_VIOLATIONS["global-rng"])
        assert run_lint_cli(str(bad), "--json") == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == LINT_REPORT_VERSION
        assert payload["exit_code"] == 1
        assert payload["files_checked"] == 1
        (finding,) = payload["findings"]
        assert finding["rule"] == "global-rng"
        assert finding["fingerprint"]
        assert sorted(payload["rules"]) == sorted(SEEDED_VIOLATIONS)

    def test_json_clean_run(self, tmp_path, capsys):
        good = tmp_path / "good.py"
        good.write_text("x = 1\n")
        assert run_lint_cli(str(good), "--json") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["findings"] == []
        assert payload["exit_code"] == 0


class TestBaselineRoundTrip:
    def test_write_then_filter_then_new_violation(self, tmp_path, capsys):
        bad = tmp_path / "grandfathered.py"
        bad.write_text(SEEDED_VIOLATIONS["wall-clock"])
        baseline_file = tmp_path / "baseline.json"

        # Without a baseline the violation fails the gate.
        assert run_lint_cli(str(bad)) == 1
        # Grandfather it.
        assert run_lint_cli(str(bad), "--write-baseline", "--baseline-file", str(baseline_file)) == 0
        assert baseline_file.exists()
        # Now the gate passes, reporting the finding as baselined.
        assert run_lint_cli(str(bad), "--baseline", "--baseline-file", str(baseline_file)) == 0
        assert "1 baselined" in capsys.readouterr().out
        # A *new* violation alongside the grandfathered one still fails.
        bad.write_text(SEEDED_VIOLATIONS["wall-clock"] + SEEDED_VIOLATIONS["durable-write"])
        assert run_lint_cli(str(bad), "--baseline", "--baseline-file", str(baseline_file)) == 1
        out = capsys.readouterr().out
        assert "[durable-write]" in out
        assert "[wall-clock]" not in out  # absorbed by the baseline

    def test_baseline_matching_survives_line_drift(self, tmp_path):
        bad = tmp_path / "drift.py"
        bad.write_text(SEEDED_VIOLATIONS["wall-clock"])
        baseline_file = tmp_path / "baseline.json"
        assert run_lint_cli(str(bad), "--write-baseline", "--baseline-file", str(baseline_file)) == 0
        # Shift the offending line down; the fingerprint must still match.
        bad.write_text("# a new leading comment\n\n" + SEEDED_VIOLATIONS["wall-clock"])
        assert run_lint_cli(str(bad), "--baseline", "--baseline-file", str(baseline_file)) == 0

    def test_duplicate_violation_needs_two_entries(self, tmp_path):
        bad = tmp_path / "dupes.py"
        bad.write_text(SEEDED_VIOLATIONS["wall-clock"])
        baseline_file = tmp_path / "baseline.json"
        assert run_lint_cli(str(bad), "--write-baseline", "--baseline-file", str(baseline_file)) == 0
        # The same offending line twice: one entry absorbs only one finding.
        bad.write_text("import time\nstamp = time.time()\nstamp = time.time()\n")
        assert run_lint_cli(str(bad), "--baseline", "--baseline-file", str(baseline_file)) == 1

    def test_stale_entry_is_an_error(self, tmp_path, capsys):
        bad = tmp_path / "fixed.py"
        bad.write_text(SEEDED_VIOLATIONS["wall-clock"])
        baseline_file = tmp_path / "baseline.json"
        assert run_lint_cli(str(bad), "--write-baseline", "--baseline-file", str(baseline_file)) == 0
        # Fix the violation: the now-unmatched entry must fail the run so
        # the baseline ratchets down instead of accreting dead weight.
        bad.write_text("x = 1\n")
        assert run_lint_cli(str(bad), "--baseline", "--baseline-file", str(baseline_file)) == 2
        assert "stale baseline entry" in capsys.readouterr().out

    def test_missing_baseline_file_is_an_error(self, tmp_path, capsys):
        good = tmp_path / "good.py"
        good.write_text("x = 1\n")
        missing = tmp_path / "nope.json"
        assert run_lint_cli(str(good), "--baseline", "--baseline-file", str(missing)) == 2
        assert "baseline file not found" in capsys.readouterr().err

    def test_load_rejects_malformed_payload(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("[]")
        with pytest.raises(ReproError, match="missing 'entries'"):
            load_baseline(path)

    def test_write_baseline_is_sorted_and_hand_editable(self, tmp_path):
        bad = tmp_path / "mixed.py"
        bad.write_text(SEEDED_VIOLATIONS["wall-clock"] + SEEDED_VIOLATIONS["durable-write"])
        result = lint_paths([bad])
        entries = entries_from_findings(result.findings)
        path = write_baseline(tmp_path / "b.json", entries)
        payload = json.loads(path.read_text())
        rules = [entry["rule"] for entry in payload["entries"]]
        assert rules == sorted(rules)
        # No opaque hashes stored: every field is a human-readable string.
        for entry in payload["entries"]:
            assert set(entry) == {"rule", "module", "scope", "code", "justification"}


class TestRepoGate:
    """The committed tree must be clean under its committed baseline."""

    def test_src_repro_is_clean_against_committed_baseline(self, capsys):
        status = run_lint_cli(
            str(REPO_ROOT / "src" / "repro"),
            "--baseline",
            "--baseline-file",
            str(COMMITTED_BASELINE),
        )
        out = capsys.readouterr().out
        assert status == 0, f"committed tree fails its own lint gate:\n{out}"
        assert "clean" in out

    def test_committed_baseline_is_minimal_and_justified(self):
        baseline = load_baseline(COMMITTED_BASELINE)
        # The baseline is a ratchet, not a dumping ground, and it stands at
        # zero: growing it takes a deliberate edit here.
        assert len(baseline.entries) == 0

    def test_check_contracts_script_passes(self):
        completed = subprocess.run(
            [sys.executable, str(REPO_ROOT / "scripts" / "check_contracts.py"), "--skip-mypy"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
        )
        assert completed.returncode == 0, completed.stdout + completed.stderr
        assert "static-analysis contracts: OK" in completed.stdout


@pytest.mark.skipif(
    importlib.util.find_spec("mypy") is None,
    reason="mypy not installed (CI installs it; the gate skips locally)",
)
def test_mypy_gate_passes():
    completed = subprocess.run(
        [sys.executable, "-m", "mypy", "--config-file", str(REPO_ROOT / "pyproject.toml")],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
