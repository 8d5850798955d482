"""Tests for daily MTD operation through the operation engine and the
load profiles."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.loads.profiles import (
    hourly_loads_for_network,
    nyiso_like_winter_day,
    scale_profile_to_band,
)
from repro.timeseries import (
    OperationEngine,
    ProfileSpec,
    TuningSpec,
    daily_operation_spec,
)


def operated_day(totals_mw, gamma_grid, **overrides):
    """Operate ieee14 over an explicit load trace with a linear threshold
    scan."""
    spec = daily_operation_spec(
        case="ieee14",
        profile=ProfileSpec(
            explicit_totals_mw=tuple(float(v) for v in totals_mw),
            peak_load_mw=None,
            min_load_mw=None,
        ),
        tuning=TuningSpec(
            method="scan", gamma_grid=tuple(float(g) for g in gamma_grid)
        ),
        **overrides,
    )
    return OperationEngine().run(spec)


class TestLoadProfiles:
    def test_profile_has_24_hours(self):
        profile = nyiso_like_winter_day()
        assert profile.shape == (24,)

    def test_band_respected(self):
        profile = nyiso_like_winter_day(peak_load_mw=220.0, min_load_mw=143.0)
        assert profile.max() == pytest.approx(220.0)
        assert profile.min() == pytest.approx(143.0)

    def test_evening_peak(self):
        """The peak must fall in the evening (hour index 17 = 6 PM)."""
        profile = nyiso_like_winter_day()
        assert int(np.argmax(profile)) == 17

    def test_overnight_trough(self):
        profile = nyiso_like_winter_day()
        assert int(np.argmin(profile)) in (1, 2, 3, 4)

    def test_invalid_band_rejected(self):
        with pytest.raises(ConfigurationError):
            nyiso_like_winter_day(peak_load_mw=100.0, min_load_mw=150.0)
        with pytest.raises(ConfigurationError):
            nyiso_like_winter_day(peak_load_mw=-1.0)

    def test_scale_profile_to_band(self):
        scaled = scale_profile_to_band(np.array([1.0, 2.0, 3.0]), 10.0, 30.0)
        np.testing.assert_allclose(scaled, [10.0, 20.0, 30.0])

    def test_scale_constant_profile(self):
        scaled = scale_profile_to_band(np.array([2.0, 2.0]), 10.0, 30.0)
        np.testing.assert_allclose(scaled, [20.0, 20.0])

    def test_scale_empty_profile_rejected(self):
        with pytest.raises(ConfigurationError):
            scale_profile_to_band(np.array([]), 0.0, 1.0)

    def test_hourly_loads_keep_proportions(self, net14):
        totals = np.array([150.0, 200.0])
        loads = hourly_loads_for_network(net14, totals)
        assert len(loads) == 2
        for hour, total in enumerate(totals):
            assert loads[hour].sum() == pytest.approx(total)
            # Proportions match the nominal distribution.
            nominal = net14.loads_mw()
            mask = nominal > 0
            np.testing.assert_allclose(
                loads[hour][mask] / nominal[mask],
                np.full(mask.sum(), total / nominal.sum()),
            )

    def test_hourly_loads_default_profile(self, net14):
        loads = hourly_loads_for_network(net14)
        assert len(loads) == 24


class TestDailyScheduler:
    @pytest.fixture(scope="class")
    def short_run(self):
        """A three-hour run shared by the assertions below.  Consecutive
        hourly loads differ by a few percent, as in a real trace, so the
        temporal-correlation property of Fig. 11 applies."""
        return operated_day(
            [205.0, 212.0, 220.0],
            gamma_grid=np.arange(0.05, 0.45, 0.1),
            n_attacks=80,
            seed=0,
        )

    def test_one_record_per_hour(self, short_run):
        assert len(short_run) == 3
        assert [r.hour for r in short_run] == [0, 1, 2]

    def test_loads_recorded(self, short_run):
        np.testing.assert_allclose(short_run.loads(), [205.0, 212.0, 220.0])

    def test_costs_non_negative(self, short_run):
        assert np.all(short_run.cost_increases_percent() >= 0.0)

    def test_peak_hour_is_most_expensive(self, short_run):
        """Fig. 10's observation: the MTD premium grows with load."""
        costs = short_run.cost_increases_percent()
        assert costs[2] >= costs[0]
        assert short_run.peak_cost_hour() == 2 or costs[2] == pytest.approx(costs.max())

    def test_design_angle_meets_tuned_threshold(self, short_run):
        for record in short_run:
            assert record.spa_attacker_vs_mtd >= record.gamma_threshold - 1e-6

    def test_spa_series_keys(self, short_run):
        series = short_run.spa_series()
        assert set(series) == {
            "gamma(Ht, Ht')",
            "gamma(Ht, H't')",
            "gamma(Ht', H't')",
        }
        for values in series.values():
            assert values.shape == (3,)

    def test_baseline_matrices_stay_close(self, short_run):
        """γ(Ht, Ht') must remain small and below the designed γ(Ht, H't') —
        the temporal-correlation observation of Fig. 11."""
        series = short_run.spa_series()
        assert np.all(series["gamma(Ht, Ht')"] <= 0.1 + 1e-9)
        assert np.all(
            series["gamma(Ht, Ht')"] <= series["gamma(Ht, H't')"] + 1e-9
        )

    def test_effectiveness_reported(self, short_run):
        for record in short_run:
            assert 0.0 <= record.achieved_eta <= 1.0

    def test_spec_helper_rejects_unknown_baseline_mode(self):
        with pytest.raises(ConfigurationError, match="cost_baseline"):
            daily_operation_spec(case="ieee14", cost_baseline="bogus")

    def test_dispatch_only_baseline_runs(self):
        result = operated_day(
            [180.0],
            gamma_grid=[0.1, 0.2],
            n_attacks=40,
            cost_baseline="dispatch-only",
            seed=1,
        )
        assert len(result) == 1
        assert result.records[0].cost_increase_percent >= 0.0
