"""Tests of the ``python -m repro`` CLI, including a real kill-mid-campaign
crash followed by a ``resume`` that executes only the missing work."""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.campaign import CampaignDefinition, CampaignStore, plan_campaign
from repro.campaign.cli import main
from repro.engine import (
    AttackSpec,
    ContingencySpec,
    DetectorSpec,
    GridSpec,
    MTDSpec,
    ScenarioSpec,
)

REPO_SRC = str(Path(__file__).resolve().parent.parent / "src")


def cli_base(**overrides) -> ScenarioSpec:
    defaults = dict(
        name="cli-base",
        grid=GridSpec(case="ieee14", baseline="dc-opf"),
        attack=AttackSpec(n_attacks=6, seed=1),
        mtd=MTDSpec(policy="random", max_relative_change=0.1),
        n_trials=1,
        base_seed=17,
        deltas=(0.5, 0.9),
    )
    defaults.update(overrides)
    return ScenarioSpec(**defaults)


def write_definition(path: Path, definition: CampaignDefinition) -> Path:
    path.write_text(definition.to_json())
    return path


class TestCliInProcess:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert "repro" in capsys.readouterr().out

    def test_suites_list(self, capsys):
        assert main(["suites", "list"]) == 0
        out = capsys.readouterr().out
        for name in ("fig6a", "fig8", "tables", "scale"):
            assert name in out

    def test_cases_list(self, capsys):
        assert main(["cases", "list"]) == 0
        out = capsys.readouterr().out
        for name in ("ieee14", "synthetic118", "case30.m"):
            assert name in out

    def test_cases_info_registry_case(self, capsys):
        assert main(["cases", "info", "ieee14"]) == 0
        out = capsys.readouterr().out
        assert "buses" in out and "14" in out
        assert "D-FACTS branches" in out
        assert "base MVA" in out

    def test_cases_info_matpower_case(self, capsys):
        assert main(["cases", "info", "case30.m"]) == 0
        out = capsys.readouterr().out
        assert "network name: 'case30'" in out
        assert "30" in out
        assert "line ratings: 41/41 limited" in out

    def test_cases_info_unknown_case_errors(self, capsys):
        assert main(["cases", "info", "no-such-case"]) == 2
        assert "unknown case" in capsys.readouterr().err

    def test_campaign_run_status_resume_query_csv(self, tmp_path, capsys):
        definition = CampaignDefinition(
            name="cli-campaign",
            base=cli_base(),
            grids=({"attack.ratio": (0.06, 0.07, 0.08, 0.09)},),
            shard_size=2,
        )
        def_path = write_definition(tmp_path / "campaign.json", definition)
        store = str(tmp_path / "cli.campaign")

        # Checkpointed run: one shard only.
        assert main(["campaign", "run", str(def_path), "--store", store,
                     "--shard-limit", "1"]) == 0
        out = capsys.readouterr().out
        assert "executed 2" in out and "incomplete" in out

        # Status reflects the checkpoint (non-zero exit while incomplete).
        assert main(["campaign", "status", "--store", store]) == 1
        out = capsys.readouterr().out
        assert "2/4 scenarios complete" in out

        # Resume finishes only the missing shards.
        assert main(["campaign", "resume", "--store", store]) == 0
        out = capsys.readouterr().out
        assert "executed 2" in out and "skipped 2" in out and "complete" in out
        assert main(["campaign", "status", "--store", store]) == 0
        capsys.readouterr()

        # Query with filter, grouping and CSV export.
        csv_path = tmp_path / "out.csv"
        assert main(["campaign", "query", "--store", store,
                     "--metric", "eta(0.9)", "--group-by", "attack.ratio",
                     "--csv", str(csv_path)]) == 0
        out = capsys.readouterr().out
        assert "4 scenario(s)" in out
        assert csv_path.exists()
        assert len(csv_path.read_text().strip().splitlines()) == 5  # header + 4

        assert main(["campaign", "query", "--store", store,
                     "--where", "attack.ratio=0.07"]) == 0
        out = capsys.readouterr().out
        assert "1 scenario(s)" in out

        assert main(["campaign", "query", "--store", store,
                     "--where", "attack.ratio=0.5"]) == 1

    def test_budget_overrides_and_set(self, tmp_path, capsys):
        definition = CampaignDefinition(name="cli-budget", base=cli_base(n_trials=4))
        def_path = write_definition(tmp_path / "campaign.json", definition)
        store = str(tmp_path / "budget.campaign")
        assert main(["campaign", "run", str(def_path), "--store", store,
                     "--trials", "2", "--attacks", "4",
                     "--set", "mtd.max_relative_change=0.05"]) == 0
        capsys.readouterr()
        results = list(CampaignStore(store).results())
        (result,) = results
        assert result.spec.n_trials == 2
        assert result.spec.attack.n_attacks == 4
        assert result.spec.mtd.max_relative_change == 0.05

    def test_suites_run(self, tmp_path, capsys):
        store = str(tmp_path / "tables.campaign")
        assert main(["suites", "run", "tables", "--store", store,
                     "--trials", "2", "--attacks", "8", "--shard-size", "1"]) == 0
        out = capsys.readouterr().out
        assert "executed 2" in out and "complete" in out

    def test_mismatched_campaign_is_an_error(self, tmp_path, capsys):
        definition = CampaignDefinition(name="one", base=cli_base())
        other = CampaignDefinition(name="two", base=cli_base(base_seed=99))
        store = str(tmp_path / "clash.campaign")
        assert main(["campaign", "run",
                     str(write_definition(tmp_path / "a.json", definition)),
                     "--store", store]) == 0
        assert main(["campaign", "run",
                     str(write_definition(tmp_path / "b.json", other)),
                     "--store", store]) == 2
        assert "error:" in capsys.readouterr().err

    def test_invalid_batch_size_leaves_no_store(self, tmp_path, capsys):
        definition = CampaignDefinition(name="bad-batch", base=cli_base())
        def_path = write_definition(tmp_path / "campaign.json", definition)
        store = tmp_path / "s.campaign"
        assert main(["campaign", "run", str(def_path),
                     "--store", str(store), "--batch-size", "0"]) == 2
        assert "batch_size must be at least 1" in capsys.readouterr().err
        assert not store.exists()

    def test_rerun_of_complete_campaign_is_a_store_replay(self, tmp_path, capsys):
        definition = CampaignDefinition(
            name="replay", base=cli_base(), shard_size=1,
            grids=({"attack.ratio": (0.06, 0.08)},),
        )
        def_path = str(write_definition(tmp_path / "campaign.json", definition))
        store = str(tmp_path / "replay.campaign")
        assert main(["campaign", "run", def_path, "--store", store]) == 0
        assert "executed 2, skipped 0 already stored" in capsys.readouterr().out
        assert main(["campaign", "run", def_path, "--store", store]) == 0
        assert "executed 0, skipped 2 already stored" in capsys.readouterr().out

    def test_bad_set_syntax_is_an_error(self, tmp_path, capsys):
        definition = CampaignDefinition(name="bad", base=cli_base())
        def_path = write_definition(tmp_path / "campaign.json", definition)
        assert main(["campaign", "run", str(def_path),
                     "--store", str(tmp_path / "s"), "--set", "nonsense"]) == 2
        assert "path=value" in capsys.readouterr().err


def durable_records(store_dir: Path) -> int:
    """Complete (newline-terminated, parseable) records across all segments —
    exactly what the store will recover after a crash."""
    count = 0
    for segment in (store_dir / "segments").glob("*.ndjson"):
        for line in segment.read_bytes().splitlines(keepends=True):
            if not line.endswith(b"\n"):
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(record, dict) and "spec_hash" in record:
                count += 1
    return count


class TestKillResume:
    """SIGKILL a running campaign, then resume it from the CLI: everything
    durable stays skipped, everything else re-executes, nothing twice."""

    N_POINTS = 24

    def definition(self) -> CampaignDefinition:
        base = cli_base(
            name="kill-campaign",
            attack=AttackSpec(n_attacks=60, seed=1),
            detector=DetectorSpec(method="monte-carlo", n_noise_trials=1200),
        )
        ratios = tuple(round(0.05 + 0.002 * k, 3) for k in range(self.N_POINTS))
        return CampaignDefinition(
            name="kill-campaign", base=base,
            grids=({"attack.ratio": ratios},), shard_size=2,
        )

    def test_kill_mid_campaign_then_resume(self, tmp_path):
        definition = self.definition()
        def_path = write_definition(tmp_path / "campaign.json", definition)
        store_dir = tmp_path / "kill.campaign"

        env = dict(os.environ)
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = REPO_SRC + (os.pathsep + existing if existing else "")
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "campaign", "run", str(def_path),
             "--store", str(store_dir)],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, env=env,
        )
        try:
            # Wait until at least two scenarios are durable, then kill -9.
            deadline = time.time() + 120
            while time.time() < deadline:
                if durable_records(store_dir) >= 2:
                    break
                if process.poll() is not None:
                    pytest.fail("campaign finished before it could be killed; "
                                "increase the per-point budget")
                time.sleep(0.01)
            else:
                pytest.fail("campaign produced no durable results to kill over")
            process.send_signal(signal.SIGKILL)
            process.wait(timeout=60)
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=60)

        completed_at_kill = durable_records(store_dir)
        assert 0 < completed_at_kill < self.N_POINTS

        # Resume from the CLI and parse its spec-hash accounting.
        resume = subprocess.run(
            [sys.executable, "-m", "repro", "campaign", "resume",
             "--store", str(store_dir)],
            capture_output=True, text=True, env=env, timeout=600,
        )
        assert resume.returncode == 0, resume.stderr
        match = re.search(r"executed (\d+), skipped (\d+)", resume.stdout)
        assert match, resume.stdout
        executed, skipped = map(int, match.groups())
        assert skipped == completed_at_kill
        assert executed == self.N_POINTS - completed_at_kill

        # The store now holds exactly the full plan, once each.
        store = CampaignStore(store_dir)
        plan = plan_campaign(definition)
        assert store.completed_hashes() == set(plan.items)
        assert len(store) == self.N_POINTS


class TestContingencyCampaign:
    """Campaigns sweeping contingency dimensions: per-outage spec hashes
    drive the resume accounting, and the derived scalar ``outage`` label
    is a first-class ``--group-by`` key."""

    #: Screenable (non-bridge, OPF-feasible) ieee14 branch outages.
    OUTAGES = (1, 4, 6, 7)

    def definition(self) -> CampaignDefinition:
        base = cli_base(name="n1-cli", contingency=ContingencySpec())
        return CampaignDefinition(
            name="n1-cli",
            base=base,
            grids=(
                {
                    "contingency.branch_outages": tuple((k,) for k in self.OUTAGES),
                    "attack.ratio": (0.06, 0.08),
                },
            ),
            shard_size=2,
        )

    def test_resume_executes_exactly_the_missing_outage_hashes(self, tmp_path, capsys):
        definition = self.definition()
        def_path = write_definition(tmp_path / "campaign.json", definition)
        store_path = str(tmp_path / "n1.campaign")

        # Checkpoint after two shards: four of eight outage points durable.
        assert main(["campaign", "run", str(def_path), "--store", store_path,
                     "--shard-limit", "2"]) == 0
        out = capsys.readouterr().out
        assert "executed 4" in out and "incomplete" in out
        assert main(["campaign", "status", "--store", store_path]) == 1
        assert "4/8 scenarios complete" in capsys.readouterr().out

        plan = plan_campaign(definition)
        store = CampaignStore(store_path)
        completed = store.completed_hashes()
        missing = set(plan.items) - completed
        assert len(missing) == 4

        # Resume executes exactly the missing hashes — nothing twice.
        assert main(["campaign", "resume", "--store", store_path]) == 0
        out = capsys.readouterr().out
        match = re.search(r"executed (\d+), skipped (\d+)", out)
        assert match, out
        executed, skipped = map(int, match.groups())
        assert executed == len(missing)
        assert skipped == len(completed)
        store = CampaignStore(store_path)
        assert store.completed_hashes() == set(plan.items)
        assert len(store) == len(self.OUTAGES) * 2

        # Every result derives from a distinct (outage, ratio) pair and the
        # contingency trials carry the per-topology false-alarm metric.
        results = list(store.results())
        pairs = {(r.spec.contingency.outage, r.spec.attack.ratio) for r in results}
        assert len(pairs) == len(results)
        assert all("bdd_false_alarm_rate" in r.trials[0].metrics for r in results)

    def test_query_groups_by_outage_label(self, tmp_path, capsys):
        definition = self.definition()
        def_path = write_definition(tmp_path / "campaign.json", definition)
        store_path = str(tmp_path / "n1.campaign")
        assert main(["campaign", "run", str(def_path), "--store", store_path]) == 0
        capsys.readouterr()

        # Grouping by the derived scalar label pools the two attack ratios
        # of each outage into one row.
        csv_path = tmp_path / "grouped.csv"
        assert main(["campaign", "query", "--store", store_path,
                     "--metric", "eta(0.9)", "--group-by", "contingency.outage",
                     "--csv", str(csv_path)]) == 0
        out = capsys.readouterr().out
        assert "8 scenario(s)" in out
        for k in self.OUTAGES:
            assert f"b{k}" in out
        # The CSV export stays per-scenario (8 rows), the group table pools.
        rows = csv_path.read_text().strip().splitlines()
        assert len(rows) == 1 + len(self.OUTAGES) * 2

        from repro.campaign.query import summarize_groups

        results = list(CampaignStore(store_path).results())
        groups = summarize_groups(
            results, metric="eta(0.9)", group_by=["contingency.outage"]
        )
        assert [group.key for group in groups] == [(f"b{k}",) for k in self.OUTAGES]
        assert all(group.n_scenarios == 2 for group in groups)

        # Filtering on the label selects one outage's scenarios.
        assert main(["campaign", "query", "--store", store_path,
                     "--where", "contingency.outage=b4"]) == 0
        assert "2 scenario(s)" in capsys.readouterr().out


class TestContingencyKillResume:
    """SIGKILL a campaign mid-N-1-screen, then resume: the missing outage
    hashes — and only those — re-execute."""

    OUTAGES = (1, 4, 6, 7, 8, 9, 10, 11, 12, 14, 15, 16)
    N_POINTS = len(OUTAGES)

    def definition(self) -> CampaignDefinition:
        base = cli_base(
            name="n1-kill",
            attack=AttackSpec(n_attacks=60, seed=1),
            detector=DetectorSpec(method="monte-carlo", n_noise_trials=1200),
            contingency=ContingencySpec(),
        )
        return CampaignDefinition(
            name="n1-kill",
            base=base,
            grids=({"contingency.branch_outages": tuple((k,) for k in self.OUTAGES)},),
            shard_size=1,
        )

    def test_kill_mid_screen_then_resume(self, tmp_path):
        definition = self.definition()
        def_path = write_definition(tmp_path / "campaign.json", definition)
        store_dir = tmp_path / "n1-kill.campaign"

        env = dict(os.environ)
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = REPO_SRC + (os.pathsep + existing if existing else "")
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "campaign", "run", str(def_path),
             "--store", str(store_dir)],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, env=env,
        )
        try:
            deadline = time.time() + 120
            while time.time() < deadline:
                if durable_records(store_dir) >= 2:
                    break
                if process.poll() is not None:
                    pytest.fail("campaign finished before it could be killed; "
                                "increase the per-point budget")
                time.sleep(0.01)
            else:
                pytest.fail("campaign produced no durable results to kill over")
            process.send_signal(signal.SIGKILL)
            process.wait(timeout=60)
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=60)

        completed_at_kill = durable_records(store_dir)
        assert 0 < completed_at_kill < self.N_POINTS

        resume = subprocess.run(
            [sys.executable, "-m", "repro", "campaign", "resume",
             "--store", str(store_dir)],
            capture_output=True, text=True, env=env, timeout=600,
        )
        assert resume.returncode == 0, resume.stderr
        match = re.search(r"executed (\d+), skipped (\d+)", resume.stdout)
        assert match, resume.stdout
        executed, skipped = map(int, match.groups())
        assert skipped == completed_at_kill
        assert executed == self.N_POINTS - completed_at_kill

        # The store holds exactly one result per screened outage.
        store = CampaignStore(store_dir)
        plan = plan_campaign(definition)
        assert store.completed_hashes() == set(plan.items)
        labels = {result.spec.contingency.outage for result in store.results()}
        assert labels == {f"b{k}" for k in self.OUTAGES}
