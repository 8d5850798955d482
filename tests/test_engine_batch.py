"""Tests of the engine's batched execution path.

The headline contract (and the PR's acceptance criterion): batched trial
execution is **bit-identical** to the serial per-trial path for the same
seed, for every detector method and MTD policy, under any chunking, and
with factorization caching active.  Also covers the ``batch_size`` knob's
plumbing (spec field, hash exclusion, engine dispatch).
"""

from __future__ import annotations

import pytest

from repro.engine import (
    AttackSpec,
    GridSpec,
    MTDSpec,
    ScenarioEngine,
    ScenarioSpec,
    run_trial,
    run_trial_batch,
)
from repro.estimation.linear_model import LinearModelCache
from repro.exceptions import ConfigurationError


def small_spec(**overrides) -> ScenarioSpec:
    """A fast random-policy scenario (shared-ensemble, analytic detector)."""
    defaults = dict(
        name="batch-small",
        grid=GridSpec(case="ieee14", baseline="dc-opf"),
        attack=AttackSpec(n_attacks=16, seed=1),
        mtd=MTDSpec(policy="random", max_relative_change=0.2),
        n_trials=5,
        base_seed=23,
        deltas=(0.5, 0.9),
        metric="eta(0.9)",
    )
    defaults.update(overrides)
    return ScenarioSpec(**defaults)


def serial_trials(spec):
    return [run_trial(spec, i) for i in range(spec.n_trials)]


class TestBatchedBitIdentity:
    def test_batched_identical_to_serial(self):
        spec = small_spec()
        serial = serial_trials(spec)
        for batch_size in (2, 3, spec.n_trials):
            batched = ScenarioEngine(batch_size=batch_size).run(spec)
            assert [t.metrics for t in batched.trials] == [t.metrics for t in serial]
            assert [t.trial_index for t in batched.trials] == list(range(spec.n_trials))

    def test_batched_identical_for_monte_carlo_detector(self):
        spec = small_spec().with_updates(
            {"detector.method": "monte-carlo", "detector.n_noise_trials": 25}
        )
        serial = serial_trials(spec)
        batched = ScenarioEngine(batch_size=spec.n_trials).run(spec)
        assert [t.metrics for t in batched.trials] == [t.metrics for t in serial]

    def test_batched_identical_for_none_policy(self):
        spec = small_spec().with_updates({"mtd.policy": "none"})
        serial = serial_trials(spec)
        batched = ScenarioEngine(batch_size=spec.n_trials).run(spec)
        assert [t.metrics for t in batched.trials] == [t.metrics for t in serial]

    def test_batched_identical_with_per_trial_ensembles(self):
        spec = small_spec().with_updates({"attack.seed": None})
        serial = serial_trials(spec)
        batched = ScenarioEngine(batch_size=2).run(spec)
        assert [t.metrics for t in batched.trials] == [t.metrics for t in serial]

    def test_parallel_batched_identical_to_serial(self):
        spec = small_spec(n_trials=4)
        serial = serial_trials(spec)
        batched = ScenarioEngine(n_workers=2, batch_size=2).run(spec)
        assert [t.metrics for t in batched.trials] == [t.metrics for t in serial]
        assert batched.n_workers == 2


class TestRunTrialBatch:
    def test_defaults_to_all_trials(self):
        spec = small_spec(n_trials=3)
        assert [t.trial_index for t in run_trial_batch(spec)] == [0, 1, 2]

    def test_respects_requested_order(self):
        spec = small_spec(n_trials=4)
        results = run_trial_batch(spec, [3, 0])
        assert [t.trial_index for t in results] == [3, 0]
        assert results[0].metrics == run_trial(spec, 3).metrics

    def test_rejects_out_of_range_indices(self):
        spec = small_spec(n_trials=2)
        with pytest.raises(ConfigurationError):
            run_trial_batch(spec, [0, 2])

    def test_shares_factorizations_across_trials(self):
        """'none'-policy trials all price the same reactances: one miss, rest hits.

        The Monte-Carlo detector consults the factorization cache on every
        trial (the analytic path may be short-circuited by the evaluator's
        own result memo), so its accounting is the clean observable.
        """
        spec = small_spec(n_trials=4).with_updates(
            {"mtd.policy": "none", "detector.method": "monte-carlo",
             "detector.n_noise_trials": 10}
        )
        cache = LinearModelCache()
        run_trial_batch(spec, model_cache=cache)
        assert cache.misses == 1
        assert cache.hits == spec.n_trials - 1

    def test_random_policy_misses_per_perturbation(self):
        spec = small_spec(n_trials=3).with_updates(
            {"detector.method": "monte-carlo", "detector.n_noise_trials": 10}
        )
        cache = LinearModelCache()
        run_trial_batch(spec, model_cache=cache)
        assert cache.misses == 3
        assert cache.hits == 0


class TestBatchSizeKnob:
    def test_spec_field_round_trips(self):
        spec = small_spec(batch_size=8)
        assert spec.batch_size == 8
        assert ScenarioSpec.from_dict(spec.to_dict()).batch_size == 8
        assert ScenarioSpec.from_json(spec.to_json()).batch_size == 8

    def test_batch_size_excluded_from_content_hash(self):
        spec = small_spec()
        assert spec.content_hash() == spec.with_updates(batch_size=16).content_hash()

    def test_spec_batch_size_validation(self):
        with pytest.raises(ConfigurationError):
            small_spec(batch_size=0)

    def test_engine_batch_size_validation(self):
        with pytest.raises(ConfigurationError):
            ScenarioEngine(batch_size=0)
        engine = ScenarioEngine()
        with pytest.raises(ConfigurationError):
            engine.run(small_spec(), batch_size=-1)

    def test_spec_batch_size_drives_engine(self):
        spec = small_spec(batch_size=2)
        serial = serial_trials(spec)
        result = ScenarioEngine().run(spec)
        assert [t.metrics for t in result.trials] == [t.metrics for t in serial]


class TestTelemetryNeutrality:
    """Telemetry collection must never perturb batched results."""

    @pytest.fixture(autouse=True)
    def _clean_telemetry(self):
        from repro import telemetry

        telemetry.disable()
        telemetry.reset()
        yield
        telemetry.disable()
        telemetry.reset()

    def test_batched_bit_identical_with_telemetry_enabled(self):
        from repro import telemetry

        spec = small_spec()
        serial = serial_trials(spec)
        telemetry.enable()
        for batch_size in (1, 2, spec.n_trials):
            chunks = [
                list(range(start, min(start + batch_size, spec.n_trials)))
                for start in range(0, spec.n_trials, batch_size)
            ]
            batched = [t for chunk in chunks for t in run_trial_batch(spec, chunk)]
            assert [t.metrics for t in batched] == [t.metrics for t in serial]

    def test_batch_snapshot_counts_model_cache_traffic(self):
        from repro import telemetry

        spec = small_spec(mtd=MTDSpec(policy="none"))
        telemetry.enable()
        trials, snapshot = run_trial_batch(spec, return_snapshot=True)
        assert len(trials) == spec.n_trials
        counters = snapshot["counters"]
        assert counters["engine.trials"] == spec.n_trials
        assert counters["engine.batches"] == 1
        # With the 'none' policy every trial shares one perturbation: at
        # most one memo miss (zero when the process-global memo is already
        # warm from earlier tests), every other trial hits.
        hits = counters.get("cache.analytic_memo.hits", 0)
        misses = counters.get("cache.analytic_memo.misses", 0)
        assert hits + misses == spec.n_trials
        assert hits >= spec.n_trials - 1
