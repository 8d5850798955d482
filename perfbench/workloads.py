"""The three benchmark workloads and their output checks.

Each workload has a ``setup`` (imports, case build, plan — timed as
``setup_s``), a ``phase`` that prepares what the operations share, a
fixed list of operations (median timed as ``op_p50_s``) and a check per
operation that runs untimed and untraced.  An operation whose check fails
is counted in ``failed``; it is never retried, re-seeded or dropped.

Inputs derive from ``--seed`` only; the amount of work derives from
``--seconds`` only, so two commits run identical work for identical
arguments.  Library modules are imported inside ``setup`` so that their
import time is part of it.
"""

from __future__ import annotations

import time
from collections import Counter
from pathlib import Path
from typing import Any, Callable

#: Achieved-SPA tolerance (radians); the design's own acceptance test.
SPA_TOL = 1e-6
#: Relative tolerance of the "premium is not negative" cost checks.
COST_RTOL = 1e-6
#: Maximum constraint violation of a feasible OPF (the MultiStart tolerance).
FEASIBILITY_TOL = 1e-5
#: Fig. 11: consecutive no-MTD measurement matrices stay this close (rad).
FIG11_BOUND = 0.1


class Workload:
    """Common driver: subclasses fill in setup, phase, operations, check."""

    name = ""
    #: How many checked operations the phase itself is (0 or 1).
    phase_operations = 0

    def __init__(self, seed: int, seconds: int, scratch: Path) -> None:
        self.seed = int(seed)
        self.seconds = int(seconds)
        self.scratch = scratch
        self.counters: Counter[str] = Counter()

    def setup(self) -> None:
        raise NotImplementedError

    def phase(self) -> None:
        raise NotImplementedError

    def operations(self) -> list[Any]:
        raise NotImplementedError

    def run_op(self, key: Any) -> Any:
        raise NotImplementedError

    def check_op(self, key: Any, output: Any) -> list[str]:
        raise NotImplementedError

    def check_phase(self) -> list[str]:
        """Reasons the phase output is wrong (phases that are operations)."""
        return []

    def execute(self, paused: Callable[[], Any]) -> dict[str, Any]:
        """Run phase then operations; ``paused()`` brackets untraced checks."""
        start = time.perf_counter()
        self.phase()
        phase_s = time.perf_counter() - start
        with paused():
            reasons = self.check_phase()
        failures = [f"phase: {reason}" for reason in reasons]
        failed = 1 if reasons and self.phase_operations else 0
        op_times = []
        for key in self.operations():
            op_start = time.perf_counter()
            output = self.run_op(key)
            op_times.append(time.perf_counter() - op_start)
            with paused():
                reasons = self.check_op(key, output)
            if reasons:
                failed += 1
                failures.extend(f"{key}: {reason}" for reason in reasons)
        return {
            "op_times": op_times,
            "work_s": phase_s + sum(op_times),
            "attempted": len(op_times) + self.phase_operations,
            "failed": failed,
            "failures": failures,
            "counters": dict(self.counters),
        }


# ----------------------------------------------------------------------
# operated-day
# ----------------------------------------------------------------------
class OperatedDay(Workload):
    """Fig. 10/11 day on ieee14: context build, then sampled hours.

    Runnable by name but not declared in ``BENCHMARK.json``: its Fig. 11
    check fails on every seed until the eq. (1) tie-break defect (ROADMAP
    item 1) is fixed, and a declared workload must report correct outputs.
    """

    name = "operated-day"
    #: Operated hours per second of ``--seconds`` (every second hour at 20 s).
    HOURS_PER_SECOND = 0.6

    def setup(self) -> None:
        from repro.timeseries import ProfileSpec, TuningSpec, daily_operation_spec
        from repro.timeseries import engine as operation_engine

        self._engine = operation_engine
        self.spec = daily_operation_spec(
            name="perfbench-operated-day",
            case="ieee14",
            cost_baseline="reactance-opf",
            profile=ProfileSpec(shape="winter-weekday"),
            tuning=TuningSpec(method="bisect"),
            staleness_hours=1,
            n_attacks=300,
            design_method="two-stage",
            seed=self.seed,
        )
        self.network = operation_engine._cached_network(self.spec.grid)

    def phase(self) -> None:
        # The engine's per-process horizon memo: 24 eq. (1) baselines and
        # the stale-knowledge dispatches that every hour then reads.
        operation = self.spec.operation
        self.hours = self._engine._cached_hours(
            self.spec.grid, operation, self.spec.base_seed
        )

    def operations(self) -> list[int]:
        n_day = len(self.hours)
        n = max(2, min(n_day, round(self.seconds * self.HOURS_PER_SECOND)))
        return sorted({round(k * n_day / n) for k in range(n)})

    def run_op(self, hour: int):
        return self._engine.run_operation_trial(self.spec, hour)

    def check_op(self, hour: int, output) -> list[str]:
        m = output.metrics
        self.counters["timeseries.probes"] += int(m["n_tuning_probes"])
        self.counters["timeseries.hours"] += 1
        self.counters["engine.trials"] += 1
        tuning = self.spec.operation.tuning
        reasons = []
        if m["spa_attacker_vs_mtd"] < m["gamma_threshold"] - SPA_TOL:
            reasons.append(
                f"achieved SPA {m['spa_attacker_vs_mtd']:.6f} < gamma_th {m['gamma_threshold']}"
            )
        if not 0.0 <= m["achieved_eta"] <= 1.0:
            reasons.append(f"eta' {m['achieved_eta']} outside [0, 1]")
        # A carried-over baseline may cost up to ``carryover_tolerance``
        # more than the re-optimised eq. (1), so the premium may be that
        # far below zero and no further.
        slack = self.spec.operation.carryover_tolerance + COST_RTOL
        if m["mtd_cost"] < m["baseline_cost"] * (1.0 - slack):
            reasons.append(
                f"negative premium: MTD cost {m['mtd_cost']} < baseline {m['baseline_cost']}"
            )
        if m["achieved_eta"] < tuning.eta_target and not self._is_fallback(hour, m):
            reasons.append(
                f"eta' {m['achieved_eta']:.3f} below target but gamma_th "
                f"{m['gamma_threshold']} is not the largest feasible grid value"
            )
        if m["spa_attacker_vs_baseline"] > FIG11_BOUND:
            reasons.append(
                f"Fig. 11 invariant: gamma(H_t, H_t') = "
                f"{m['spa_attacker_vs_baseline']:.3f} > {FIG11_BOUND}"
            )
        return reasons

    def _is_fallback(self, hour: int, m: dict[str, float]) -> bool:
        """The next grid threshold admits no feasible design."""
        from repro.exceptions import MTDDesignError
        from repro.mtd.design import design_mtd_perturbation

        grid = self.spec.operation.tuning.gamma_grid
        index = grid.index(m["gamma_threshold"])
        if index == len(grid) - 1:
            return True
        context = self.hours[hour]
        _, design_seed = self._engine._hour_seeds(
            self.spec.operation, self.spec.base_seed, hour
        )
        try:
            design_mtd_perturbation(
                self.network,
                gamma_threshold=grid[index + 1],
                attacker_reactances=context.knowledge_reactances,
                loads_mw=context.loads,
                method=self.spec.mtd.design_method,
                preferred_reactances=context.baseline.reactances,
                seed=design_seed,
            )
        except MTDDesignError:
            return True
        return False


# ----------------------------------------------------------------------
# joint-design
# ----------------------------------------------------------------------
class JointDesign(Workload):
    """ieee14 at nominal load: eq. (1) baseline, then an eq. (4) sweep.

    The seed draws the attack ensemble each design is scored against.  The
    MultiStart solvers keep the library's default seed, as a user running
    the paper's eq. (1)/(4) would: the problem instance (grid, load,
    thresholds) is the workload, so every seed solves the same NLPs.
    """

    name = "joint-design"
    #: The gamma_th sweep spans this range (radians); a point is one operation.
    GAMMA_RANGE = (0.1, 0.3)
    #: Sweep points per second of ``--seconds`` (4 points at 30 s).
    POINTS_PER_SECOND = 0.125
    N_ATTACKS = 1000
    DELTA = 0.9
    phase_operations = 1

    def setup(self) -> None:
        from repro.engine import GridSpec
        from repro.engine.trial import network_for_grid
        from repro.mtd import cost, design, effectiveness
        from repro.opf import reactance_opf

        self._design = design
        self._cost = cost
        self._effectiveness = effectiveness
        self._reactance_opf = reactance_opf
        self.network = network_for_grid(GridSpec(case="ieee14"))

    def phase(self) -> None:
        # Paper eq. (1): the no-MTD optimum over dispatch and D-FACTS
        # reactances, which the attacker is assumed to know.
        self.eq1 = self._reactance_opf.solve_reactance_opf(self.network)
        self.evaluator = self._effectiveness.EffectivenessEvaluator(
            self.network,
            operating_angles_rad=self.eq1.angles_rad,
            base_reactances=self.eq1.reactances,
            n_attacks=self.N_ATTACKS,
            seed=self.seed,
        )

    def check_phase(self) -> list[str]:
        if self.eq1.constraint_violation > FEASIBILITY_TOL:
            return [f"eq. (1) violation {self.eq1.constraint_violation:.2e}"]
        return []

    def operations(self) -> list[float]:
        n = max(1, round(self.seconds * self.POINTS_PER_SECOND))
        low, high = self.GAMMA_RANGE
        if n == 1:
            return [low]
        return [round(low + (high - low) * k / (n - 1), 6) for k in range(n)]

    def run_op(self, gamma: float):
        # Paper eq. (4): min-cost perturbation subject to SPA >= gamma_th,
        # then its premium over eq. (1) and its effectiveness eta'(delta).
        design = self._design.design_mtd_perturbation(
            self.network,
            gamma,
            attacker_reactances=self.eq1.reactances,
            method="joint",
        )
        cost = self._cost.mtd_operational_cost(
            self.network, design.perturbed_reactances, baseline_result=self.eq1
        )
        eta = self.evaluator.evaluate(design.perturbed_reactances).eta(self.DELTA)
        return design, cost, eta

    def check_op(self, gamma: float, output) -> list[str]:
        design, cost, eta = output
        reasons = []
        if design.opf.constraint_violation > FEASIBILITY_TOL:
            reasons.append(f"eq. (4) violation {design.opf.constraint_violation:.2e}")
        if design.achieved_spa < gamma - SPA_TOL:
            reasons.append(f"achieved SPA {design.achieved_spa:.6f} < gamma_th {gamma}")
        if cost.mtd_cost < self.eq1.cost * (1.0 - COST_RTOL):
            reasons.append(f"MTD cost {cost.mtd_cost} < eq. (1) cost {self.eq1.cost}")
        if not 0.0 <= eta <= 1.0:
            reasons.append(f"eta' {eta} outside [0, 1]")
        return reasons


# ----------------------------------------------------------------------
# campaign-sweep
# ----------------------------------------------------------------------
class CampaignSweep(Workload):
    """Random-MTD grid campaign into a fresh store, then its replay."""

    name = "campaign-sweep"
    #: Planned scenarios per second of ``--seconds`` (2000 at 20 s).
    POINTS_PER_SECOND = 100
    CHANGES = (0.02, 0.05, 0.1, 0.2)
    #: Replays (resume + query) per run, each checked.
    N_REPLAYS = 3

    def setup(self) -> None:
        from repro.campaign import CampaignDefinition, plan_campaign
        from repro.engine import AttackSpec, GridSpec, MTDSpec, ScenarioSpec

        n_ratios = max(1, round(self.seconds * self.POINTS_PER_SECOND / len(self.CHANGES)))
        ratios = tuple(round(0.04 + 0.05 * k / n_ratios, 6) for k in range(n_ratios))
        base = ScenarioSpec(
            name="perfbench-campaign",
            grid=GridSpec(case="ieee14", baseline="dc-opf"),
            attack=AttackSpec(n_attacks=100, seed=self.seed),
            mtd=MTDSpec(policy="random", max_relative_change=0.1),
            n_trials=2,
            base_seed=self.seed,
            deltas=(0.5, 0.9),
            metric="eta(0.9)",
        )
        self.definition = CampaignDefinition(
            name="perfbench-campaign",
            base=base,
            grids=({"attack.ratio": ratios, "mtd.max_relative_change": self.CHANGES},),
            shard_size=8,
        )
        self.plan = plan_campaign(self.definition)

    def execute(self, paused: Callable[[], Any]) -> dict[str, Any]:
        from repro.campaign import CampaignOrchestrator
        from repro.campaign.query import query_results

        store_dir = self.scratch / "campaign-store"
        orchestrator = CampaignOrchestrator(store_dir, n_workers=1, batch_size=8)
        start = time.perf_counter()
        orchestrator.run(self.definition)
        run_s = time.perf_counter() - start
        with paused():
            records = list(orchestrator.store.records())
        orchestrator.store.close()
        stored = Counter(record["spec_hash"] for record in records)
        # A scenario's durable latency: engine run plus store append, read
        # as the gap between consecutive append stamps.
        stamps = [record["created_unix"] for record in records]
        op_times = [later - earlier for earlier, later in zip(stamps, stamps[1:])]
        planned = set(self.plan.items)
        bad = sorted({h for h in planned if stored[h] != 1} | (set(stored) - planned))
        failures = [f"scenario {h[:12]}: stored {stored[h]} times" for h in bad]
        failed = len(bad)

        start = time.perf_counter()
        for replay in range(self.N_REPLAYS):
            again = CampaignOrchestrator(store_dir)
            resumed = again.resume()
            results = query_results(again.store)
            again.store.close()
            with paused():
                reasons = self._check_replay(resumed, results, planned)
            if reasons:
                failed += 1
                failures.extend(f"replay {replay}: {reason}" for reason in reasons)
        replay_s = time.perf_counter() - start
        self.counters["engine.trials"] = sum(len(r.trials) for r in results)
        self.counters["campaign.store.bytes"] = sum(
            path.stat().st_size for path in store_dir.rglob("*") if path.is_file()
        )
        return {
            "op_times": op_times,
            "work_s": run_s + replay_s,
            "attempted": len(planned) + self.N_REPLAYS,
            "failed": failed,
            "failures": failures,
            "counters": dict(self.counters),
        }

    def _check_replay(self, resumed, results, planned: set[str]) -> list[str]:
        self.counters["campaign.resume.executed"] += len(resumed.executed)
        reasons = []
        if resumed.executed:
            reasons.append(f"resume executed {len(resumed.executed)} scenarios")
        returned = [r.spec.content_hash() for r in results]
        if len(returned) != len(planned) or set(returned) != planned:
            reasons.append(f"query returned {len(returned)} records for {len(planned)} planned")
        return reasons


WORKLOADS = {cls.name: cls for cls in (OperatedDay, JointDesign, CampaignSweep)}
