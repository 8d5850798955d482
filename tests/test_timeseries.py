"""Tests of the time-series operation engine.

Covers the spec layer (profiles, tuning, operation components, JSON/hash),
the engine (golden compatibility with the pre-refactor serial scheduler
loop, scan-vs-bisect agreement, parallel/batched bit-identity, warm-up and
staleness policies) and the campaign integration (daily-operation suites
run, resume and query through the store).
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.campaign import CampaignOrchestrator, query_results
from repro.campaign.suites import campaign_from_suite
from repro.engine import ScenarioEngine, ScenarioSpec, scenario_suite
from repro.engine.trial import run_trial
from repro.exceptions import ConfigurationError
from repro.loads.profiles import (
    available_shapes,
    day_shape,
    multi_day_profile,
    profile_for_network,
)
from repro.opf.dc_opf import solve_dc_opf
from repro.timeseries import engine as operation_engine
from repro.timeseries import (
    OperationEngine,
    OperationResult,
    OperationSpec,
    ProfileSpec,
    TuningSpec,
    build_operation_context,
    daily_operation_spec,
)

#: Pre-refactor ``DailyMTDScheduler`` output (captured from the serial loop
#: before it became a wrapper): IEEE 14-bus, loads [205, 212, 220] MW,
#: n_attacks=80, gamma_grid=arange(0.05, 0.45, 0.1), seed=0, historical
#: per-hour seeds and hour-0 behaviour (fresh attacker knowledge).  The
#: engine must reproduce these records bit-for-bit at the same settings
#: (``GOLDEN_SPEC`` plus the two oracles in ``TestGoldenCompatibility``).
GOLDEN_RECORDS = [
    {
        "hour": 0,
        "total_load_mw": 204.99999999999997,
        "baseline_cost": 4099.999999999962,
        "mtd_cost": 4127.00044545183,
        "cost_increase_percent": 0.6585474500455786,
        "gamma_threshold": 0.25000000000000006,
        "achieved_eta": 0.825,
        "spa_attacker_vs_baseline": 1.4788543577864024e-15,
        "spa_attacker_vs_mtd": 0.25000000040195813,
        "spa_baseline_vs_mtd": 0.25000000040195813,
    },
    {
        "hour": 1,
        "total_load_mw": 212.0,
        "baseline_cost": 4239.999999999884,
        "mtd_cost": 4328.425245996883,
        "cost_increase_percent": 2.0855010848349482,
        "gamma_threshold": 0.25000000000000006,
        "achieved_eta": 0.875,
        "spa_attacker_vs_baseline": 0.022568130007163748,
        "spa_attacker_vs_mtd": 0.25000000040195813,
        "spa_baseline_vs_mtd": 0.24810231194492838,
    },
    {
        "hour": 2,
        "total_load_mw": 219.99999999999997,
        "baseline_cost": 4401.550015954151,
        "mtd_cost": 4573.581193608292,
        "cost_increase_percent": 3.9084226472625674,
        "gamma_threshold": 0.25000000000000006,
        "achieved_eta": 0.8875,
        "spa_attacker_vs_baseline": 1.9232557098277964e-15,
        "spa_attacker_vs_mtd": 0.2500000000537033,
        "spa_baseline_vs_mtd": 0.2500000000537033,
    },
]

GOLDEN_SPEC = daily_operation_spec(
    name="ts-golden",
    case="ieee14",
    profile=ProfileSpec(
        explicit_totals_mw=(205.0, 212.0, 220.0),
        peak_load_mw=None,
        min_load_mw=None,
    ),
    tuning=TuningSpec(
        method="scan",
        gamma_grid=tuple(float(g) for g in np.arange(0.05, 0.45, 0.1)),
    ),
    n_attacks=80,
    seed=0,
)


def tiny_spec(**overrides) -> ScenarioSpec:
    """A fast operation spec for structural tests (seconds, not minutes)."""
    defaults = dict(
        name="ts-tiny",
        profile=ProfileSpec(
            explicit_totals_mw=(205.0, 212.0, 220.0),
            peak_load_mw=None,
            min_load_mw=None,
        ),
        tuning=TuningSpec(gamma_grid=(0.05, 0.2)),
        n_attacks=24,
        seed=0,
    )
    defaults.update(overrides)
    return daily_operation_spec(**defaults)


# ----------------------------------------------------------------------
# load profiles
# ----------------------------------------------------------------------
class TestSeasonalProfiles:
    def test_registered_shapes(self):
        assert {"winter-weekday", "winter-weekend", "summer-weekday", "flat"} <= set(
            available_shapes()
        )
        for name in available_shapes():
            assert day_shape(name).shape == (24,)

    def test_unknown_shape_rejected(self):
        with pytest.raises(ConfigurationError):
            day_shape("spring-holiday")

    def test_weekend_lies_below_weekday(self):
        assert day_shape("winter-weekend").max() < day_shape("winter-weekday").max()

    def test_summer_peaks_in_the_afternoon(self):
        assert 14 <= int(np.argmax(day_shape("summer-weekday"))) <= 17

    def test_multi_day_profile_band_and_length(self):
        profile = multi_day_profile(
            ["winter-weekday", "winter-weekend"], peak_load_mw=220.0, min_load_mw=143.0
        )
        assert profile.shape == (48,)
        assert profile.max() == pytest.approx(220.0)
        assert profile.min() == pytest.approx(143.0)
        # The weekend day keeps its relative level against the weekday peak.
        assert profile[24:].max() < profile[:24].max()

    def test_multi_day_profile_validation(self):
        with pytest.raises(ConfigurationError):
            multi_day_profile([], 220.0, 143.0)
        with pytest.raises(ConfigurationError):
            multi_day_profile(["winter-weekday"], 100.0, 150.0)

    def test_profile_for_network_normalises_per_case(self, net14):
        profile = profile_for_network(net14, peak_fraction=1.0, min_fraction=0.65)
        assert profile.max() == pytest.approx(net14.total_load_mw())
        assert profile.min() == pytest.approx(0.65 * net14.total_load_mw())


class TestProfileSpec:
    def test_n_hours_and_truncation(self):
        assert ProfileSpec().n_hours() == 24
        assert ProfileSpec(n_days=3).n_hours() == 72
        assert ProfileSpec(n_days=2, hours=30).n_hours() == 30
        assert ProfileSpec(explicit_totals_mw=(1.0, 2.0), peak_load_mw=None,
                           min_load_mw=None, hours=1).n_hours() == 1

    def test_explicit_days_override_shape(self):
        spec = ProfileSpec(days=("winter-weekday", "winter-weekend"))
        assert spec.day_names() == ("winter-weekday", "winter-weekend")
        assert spec.n_hours() == 48

    def test_totals_absolute_band(self):
        totals = ProfileSpec(peak_load_mw=200.0, min_load_mw=100.0).totals_mw()
        assert totals.max() == pytest.approx(200.0)
        assert totals.min() == pytest.approx(100.0)

    def test_totals_per_case_normalisation(self):
        spec = ProfileSpec(peak_load_mw=None, min_load_mw=None,
                           peak_fraction=1.2, min_fraction=0.6)
        totals = spec.totals_mw(nominal_total_mw=100.0)
        assert totals.max() == pytest.approx(120.0)
        assert totals.min() == pytest.approx(60.0)
        with pytest.raises(ConfigurationError):
            spec.totals_mw()  # nominal total required in fraction mode

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ProfileSpec(shape="bogus")
        with pytest.raises(ConfigurationError):
            ProfileSpec(n_days=0)
        with pytest.raises(ConfigurationError):
            ProfileSpec(peak_load_mw=100.0, min_load_mw=None)
        with pytest.raises(ConfigurationError):
            ProfileSpec(peak_load_mw=100.0, min_load_mw=150.0)
        with pytest.raises(ConfigurationError):
            ProfileSpec(hours=0)


# ----------------------------------------------------------------------
# spec layer
# ----------------------------------------------------------------------
class TestOperationSpecLayer:
    def test_tuning_validation(self):
        with pytest.raises(ConfigurationError):
            TuningSpec(method="newton")
        with pytest.raises(ConfigurationError):
            TuningSpec(gamma_grid=())
        with pytest.raises(ConfigurationError):
            TuningSpec(gamma_grid=(0.2, 0.1))
        with pytest.raises(ConfigurationError):
            TuningSpec(gamma_grid=(0.1, 2.0))
        with pytest.raises(ConfigurationError):
            TuningSpec(delta=0.0)

    def test_operation_validation(self):
        with pytest.raises(ConfigurationError):
            OperationSpec(staleness_hours=0)

    def test_stored_legacy_operation_fields_are_rejected(self):
        """A stored operation payload from before the legacy RNG and warm-up
        modes were removed fails loudly, naming both fields."""
        payload = OperationSpec().to_dict()
        payload.update(rng="legacy", warmup="fresh")
        with pytest.raises(ConfigurationError) as excinfo:
            OperationSpec.from_dict(payload)
        assert "rng" in str(excinfo.value)
        assert "warmup" in str(excinfo.value)

    def test_scenario_requires_designed_policy_and_analytic_detector(self):
        with pytest.raises(ConfigurationError, match="designed"):
            tiny_spec().with_updates({"mtd.policy": "random"})
        with pytest.raises(ConfigurationError, match="analytic"):
            tiny_spec().with_updates({"detector.method": "monte-carlo"})

    def test_n_trials_pinned_to_horizon(self):
        spec = tiny_spec()
        assert spec.n_trials == 3
        # Overriding n_trials is a no-op: the horizon defines the count.
        assert spec.with_updates(n_trials=99).n_trials == 3
        assert spec.with_updates({"operation.profile.hours": 2}).n_trials == 2

    def test_json_round_trip_and_hash(self):
        spec = tiny_spec()
        clone = ScenarioSpec.from_json(spec.to_json())
        assert clone == spec
        assert clone.content_hash() == spec.content_hash()
        # The operation policy participates in the identity.
        changed = spec.with_updates({"operation.staleness_hours": 2})
        assert changed.content_hash() != spec.content_hash()
        assert spec.operation.content_hash() != changed.operation.content_hash()

    def test_plain_specs_keep_their_shape_and_hash(self):
        """Adding the operation component must not disturb existing specs:
        no ``operation`` key in their payload, hashes untouched."""
        plain = ScenarioSpec(name="plain")
        assert "operation" not in plain.to_dict()
        assert ScenarioSpec.from_dict(plain.to_dict()) == plain

    def test_deep_with_updates(self):
        spec = tiny_spec().with_updates(
            {"operation.tuning.method": "scan", "operation.profile.hours": 1}
        )
        assert spec.operation.tuning.method == "scan"
        assert spec.operation.profile.hours == 1
        with pytest.raises(ConfigurationError):
            tiny_spec().with_updates({"operation.bogus.path": 1})


# ----------------------------------------------------------------------
# engine: compatibility and determinism
# ----------------------------------------------------------------------
def legacy_hour_seeds(operation, base_seed, hour):
    """Oracle: the pre-refactor loop's (evaluator, design) seeds of an hour."""
    return int(base_seed) + int(hour), int(base_seed)


def fresh_warmup(build_hours):
    """Oracle: the pre-refactor hour-0 behaviour around ``_build_hours``.

    The first ``staleness_hours`` hours take their *own* baseline matrix as
    the attacker's knowledge (perfectly fresh) instead of wrapping around
    to the end of the horizon.
    """

    def build(network, baseline_mode, operation, base_seed):
        hours = build_hours(network, baseline_mode, operation, base_seed)
        return tuple(
            dataclasses.replace(
                hour,
                knowledge_reactances=hour.baseline.reactances,
                knowledge_angles=solve_dc_opf(
                    network, reactances=hour.baseline.reactances, loads_mw=hour.loads
                ).angles_rad,
            )
            if hour.hour < operation.staleness_hours
            else hour
            for hour in hours
        )

    return build


class TestGoldenCompatibility:
    def test_wrapper_reproduces_pre_refactor_records(self, monkeypatch):
        """The engine at the historical settings (linear scan, legacy
        per-hour seeds, fresh hour-0 knowledge) is bit-identical to the
        pre-refactor serial scheduler loop.  The last two are oracles
        patched into the engine's seams, not runtime options."""
        monkeypatch.setattr(operation_engine, "_hour_seeds", legacy_hour_seeds)
        monkeypatch.setattr(
            operation_engine,
            "_build_hours",
            fresh_warmup(operation_engine._build_hours),
        )
        # Horizon contexts and evaluators are memoised per process: drop
        # any built without the oracles, and the ones built with them.
        operation_engine.clear_operation_caches()
        try:
            result = OperationEngine().run(GOLDEN_SPEC)
        finally:
            operation_engine.clear_operation_caches()
        assert len(result) == len(GOLDEN_RECORDS)
        for record, expected in zip(result, GOLDEN_RECORDS):
            for field_name, value in expected.items():
                assert getattr(record, field_name) == value, field_name

    def test_fresh_warmup_oracle_reproduces_the_historical_skew(self, net14):
        """The oracle hands hour 0 its own matrix; later hours keep the
        engine's one-hour-stale knowledge."""
        spec = daily_operation_spec(
            name="ts-oracle",
            cost_baseline="dispatch-only",
            profile=ProfileSpec(
                explicit_totals_mw=(200.0, 210.0, 220.0),
                peak_load_mw=None,
                min_load_mw=None,
            ),
            n_attacks=8,
        )
        build = fresh_warmup(operation_engine._build_hours)
        hours = build(net14, spec.grid.baseline, spec.operation, spec.base_seed)
        np.testing.assert_allclose(
            hours[0].knowledge_angles, hours[0].baseline.angles_rad
        )
        np.testing.assert_allclose(
            hours[1].knowledge_angles, hours[0].baseline.angles_rad
        )


class TestScanVsBisect:
    def test_agreement_on_the_fig10_setting(self):
        """Bisection selects the same thresholds and records as the linear
        scan on the Fig. 10 configuration, with no more probes."""
        base = scenario_suite("fig10")[0].with_updates(
            {"operation.profile.hours": 2, "attack.n_attacks": 24}
        )
        scan = base.with_updates({"operation.tuning.method": "scan"})
        bisect = base.with_updates({"operation.tuning.method": "bisect"})
        engine = ScenarioEngine()
        scan_result = OperationResult.from_scenario(engine.run(scan))
        bisect_result = OperationResult.from_scenario(engine.run(bisect))
        for a, b in zip(scan_result, bisect_result):
            assert a.gamma_threshold == b.gamma_threshold
            assert a.cost_increase_percent == b.cost_increase_percent
            assert a.achieved_eta == b.achieved_eta
            assert a.spa_attacker_vs_mtd == b.spa_attacker_vs_mtd
        assert (
            bisect_result.total_tuning_probes() <= scan_result.total_tuning_probes()
        )


class TestParallelBatchCache:
    def test_parallel_hours_bit_identical_to_serial_multi_day(self):
        """A horizon spanning two (short) days gives the same records on a
        process pool as serially — the seed-spawned per-hour streams make
        hour execution order-independent."""
        spec = tiny_spec(
            name="ts-par",
            profile=ProfileSpec(
                explicit_totals_mw=(205.0, 210.0, 215.0, 220.0, 212.0),
                peak_load_mw=None,
                min_load_mw=None,
            ),
            n_attacks=16,
            tuning=TuningSpec(gamma_grid=(0.05, 0.2)),
        )
        engine = ScenarioEngine()
        serial = engine.run(spec)
        parallel = engine.run(spec, n_workers=2)
        assert serial.trials == parallel.trials

    def test_batched_hours_bit_identical(self):
        spec = tiny_spec(name="ts-batch")
        engine = ScenarioEngine()
        serial = engine.run(spec)
        batched = engine.run(spec, batch_size=2)
        assert serial.trials == batched.trials

    def test_run_trial_dispatch_and_bounds(self):
        spec = tiny_spec(name="ts-dispatch")
        trial = run_trial(spec, 1)
        assert trial.trial_index == 1
        assert "gamma_threshold" in trial.metrics
        assert "cost_increase_percent" in trial.metrics
        with pytest.raises(ConfigurationError):
            run_trial(spec, 3)


class TestWarmupAndStaleness:
    @staticmethod
    def _context(net, **operation_overrides):
        spec = daily_operation_spec(
            name="ts-warmup",
            cost_baseline="dispatch-only",
            profile=ProfileSpec(
                explicit_totals_mw=(200.0, 210.0, 220.0),
                peak_load_mw=None,
                min_load_mw=None,
            ),
            n_attacks=8,
        ).with_updates(
            {f"operation.{key}": value for key, value in operation_overrides.items()}
        )
        return build_operation_context(spec, net)

    def test_wrap_around_uses_previous_days_last_hour(self, net14):
        hours = self._context(net14)
        # Hour 0's attacker operates at the *last* hour's load level…
        np.testing.assert_allclose(
            hours[0].knowledge_angles, hours[2].baseline.angles_rad
        )
        # …while later hours use the previous hour as before.
        np.testing.assert_allclose(
            hours[1].knowledge_angles, hours[0].baseline.angles_rad
        )

    def test_staleness_two_hours(self, net14):
        hours = self._context(net14, staleness_hours=2)
        # t=0 wraps two hours back to hour 1 of the previous (identical) day.
        np.testing.assert_allclose(
            hours[0].knowledge_angles, hours[1].baseline.angles_rad
        )
        np.testing.assert_allclose(
            hours[2].knowledge_angles, hours[0].baseline.angles_rad
        )


# ----------------------------------------------------------------------
# campaign integration
# ----------------------------------------------------------------------
QUICK_OPERATION_OVERRIDES = {
    "attack.n_attacks": 6,
    "operation.profile.hours": 1,
    "operation.tuning.gamma_grid": (0.05,),
}


class TestDailyOperationCampaigns:
    def test_interrupted_suite_resumes_exactly_the_missing_work(self, tmp_path):
        definition = campaign_from_suite(
            "daily-ops", overrides=QUICK_OPERATION_OVERRIDES, shard_size=1
        )
        orchestrator = CampaignOrchestrator(tmp_path / "daily.campaign")
        interrupted = orchestrator.run(definition, shard_limit=2)
        assert not interrupted.complete
        assert len(interrupted.executed) == 2

        resumed = orchestrator.resume()
        assert resumed.complete
        assert set(resumed.skipped) == set(interrupted.executed)
        assert set(resumed.executed).isdisjoint(interrupted.executed)
        assert len(resumed.executed) == definition_points(definition) - 2

        # Query the store on operation fields and read the typed records back.
        results = query_results(
            orchestrator.store, where={"operation.staleness_hours": 1}
        )
        assert len(results) == definition_points(definition)
        for result in results:
            records = OperationResult.from_scenario(result).records
            assert len(records) == 1
            assert records[0].cost_increase_percent >= 0.0

    def test_fig10_suite_is_a_single_operation_point(self):
        suite = scenario_suite("fig10")
        assert len(suite) == 1
        assert suite[0].operation is not None
        assert suite[0].n_trials == 24
        # fig11 reads off the same simulated day.
        assert scenario_suite("fig11")[0].content_hash() == suite[0].content_hash()


def definition_points(definition) -> int:
    return len(definition.points)
