"""Typed records of the time-series operation engine.

Internally every operated hour is one
:class:`~repro.engine.results.TrialResult` (flat float metrics), which is
what flows through the engine, the campaign store and the query layer.
This module provides the typed view on top: an :class:`OperationRecord`
per hour and an :class:`OperationResult` for the horizon (load series,
cost series, the three Fig. 11 subspace-angle series).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.engine.results import ScenarioResult, TrialResult
from repro.exceptions import ConfigurationError

#: Metric names every operated hour records (order is the CSV/record order).
HOUR_METRICS = (
    "total_load_mw",
    "baseline_cost",
    "mtd_cost",
    "cost_increase_percent",
    "gamma_threshold",
    "achieved_eta",
    "spa_attacker_vs_baseline",
    "spa_attacker_vs_mtd",
    "spa_baseline_vs_mtd",
    "n_tuning_probes",
)


@dataclass(frozen=True)
class OperationRecord:
    """Per-hour outcome of simulated MTD operation.

    Attributes
    ----------
    hour:
        Absolute hour index within the horizon (0 = first operated hour).
    day, hour_of_day:
        ``hour`` split over 24-hour days, for multi-day horizons.
    total_load_mw:
        Total system load of the hour.
    baseline_cost, mtd_cost, cost_increase_percent:
        No-MTD OPF cost, post-MTD cost and the Fig. 10 premium
        ``100 · (C' − C)/C``.
    gamma_threshold, achieved_eta:
        SPA threshold selected by the tuning loop and the effectiveness
        ``η'(δ)`` its design achieved.
    spa_attacker_vs_baseline, spa_attacker_vs_mtd, spa_baseline_vs_mtd:
        The three Fig. 11 angles ``γ(H_t, H_{t'})``, ``γ(H_t, H'_{t'})``
        and ``γ(H_{t'}, H'_{t'})``.
    n_tuning_probes:
        Design+evaluation probes the threshold tuning spent on this hour
        (the scan-vs-bisection efficiency accounting).
    """

    hour: int
    total_load_mw: float
    baseline_cost: float
    mtd_cost: float
    cost_increase_percent: float
    gamma_threshold: float
    achieved_eta: float
    spa_attacker_vs_baseline: float
    spa_attacker_vs_mtd: float
    spa_baseline_vs_mtd: float
    n_tuning_probes: int = 0

    @property
    def day(self) -> int:
        """Zero-based day index of the hour."""
        return self.hour // 24

    @property
    def hour_of_day(self) -> int:
        """Hour within its day (0 = 1 AM in the paper's plots)."""
        return self.hour % 24

    @classmethod
    def from_trial(cls, trial: TrialResult) -> "OperationRecord":
        """Rebuild the typed record from an engine trial's metrics."""
        metrics = trial.metrics
        missing = [name for name in HOUR_METRICS if name not in metrics]
        if missing:
            raise ConfigurationError(
                f"trial {trial.trial_index} is not an operation record; "
                f"missing metrics: {', '.join(missing)}"
            )
        values = {name: metrics[name] for name in HOUR_METRICS}
        values["n_tuning_probes"] = int(values["n_tuning_probes"])
        return cls(hour=trial.trial_index, **values)


@dataclass(frozen=True)
class OperationResult:
    """All hourly records of one operated horizon.

    A typed façade over the underlying :class:`ScenarioResult` (kept in
    ``scenario`` so cache/store metadata stays reachable).
    """

    scenario: ScenarioResult
    records: tuple[OperationRecord, ...]

    @classmethod
    def from_scenario(cls, scenario: ScenarioResult) -> "OperationResult":
        """Wrap a scenario result whose trials are operated hours."""
        records = tuple(OperationRecord.from_trial(t) for t in scenario.trials)
        return cls(scenario=scenario, records=records)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[OperationRecord]:
        return iter(self.records)

    # ------------------------------------------------------------------
    def loads(self) -> np.ndarray:
        return np.array([r.total_load_mw for r in self.records])

    def cost_increases_percent(self) -> np.ndarray:
        return np.array([r.cost_increase_percent for r in self.records])

    def spa_series(self) -> dict[str, np.ndarray]:
        """The three Fig. 11 series keyed by their paper notation."""
        return {
            "gamma(Ht, Ht')": np.array([r.spa_attacker_vs_baseline for r in self.records]),
            "gamma(Ht, H't')": np.array([r.spa_attacker_vs_mtd for r in self.records]),
            "gamma(Ht', H't')": np.array([r.spa_baseline_vs_mtd for r in self.records]),
        }

    def peak_cost_hour(self) -> int:
        """Hour with the largest relative cost increase."""
        costs = self.cost_increases_percent()
        return int(np.argmax(costs)) if costs.size else -1

    def total_tuning_probes(self) -> int:
        """Design+evaluation probes spent across the whole horizon."""
        return int(sum(r.n_tuning_probes for r in self.records))


__all__ = ["HOUR_METRICS", "OperationRecord", "OperationResult"]
