"""The scenario engine: expand specs into trials and execute them.

:class:`ScenarioEngine` is the single entry point the benchmarks, examples
and tests drive Monte-Carlo experiments through.  It expands a
:class:`~repro.engine.spec.ScenarioSpec` (or a suite/sweep of them) into
contiguous blocks of trial indices and executes every block through
:func:`repro.engine.batch.run_trial_batch`, either serially or on a
``concurrent.futures`` process pool.  Because every trial seeds itself from
``(base_seed, trial_index)`` (see :mod:`repro.engine.trial`), the parallel
results are bit-identical to the serial ones — parallelism is purely a
throughput knob.

The same holds for the block size (``batch_size`` on the engine, the spec,
or the :meth:`ScenarioEngine.run` call; one trial per block by default):
each block shares one
:class:`~repro.estimation.linear_model.LinearModelCache`, so trials
evaluating the same (case, perturbation) pair factorize the measurement
Jacobian once, and the results are bit-identical to calling
:func:`~repro.engine.trial.run_trial` per index.

The engine keeps results in memory only.  Durable, hash-addressed
persistence — and replaying a completed scenario without executing it —
is :func:`repro.campaign.orchestrator.run_campaign` against a
:class:`~repro.campaign.store.CampaignStore`.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from itertools import repeat
from typing import Any, Iterable, Mapping, Sequence

from repro.campaign.plan import plan_sweep
from repro.engine.batch import run_trial_batch, run_trial_batch_instrumented
from repro.engine.results import ScenarioResult
from repro.engine.spec import ScenarioSpec
from repro.exceptions import ConfigurationError
from repro.telemetry import metrics as _metrics
from repro.telemetry import progress as _progress
from repro.telemetry.config import _STATE as _TELEMETRY
from repro.telemetry.spans import span as _span


class ScenarioEngine:
    """Executes scenario specifications.

    Parameters
    ----------
    n_workers:
        Default worker count for :meth:`run`; 1 means serial in-process
        execution, larger values use a process pool.
    batch_size:
        Default trial-block size for :meth:`run`.  ``None`` or 1 runs one
        trial per block; larger values run blocks of ``batch_size`` trials
        sharing one factorization cache.  Results are bit-identical either
        way.
    """

    def __init__(self, n_workers: int = 1, batch_size: int | None = None) -> None:
        if n_workers < 1:
            raise ConfigurationError(f"n_workers must be at least 1, got {n_workers}")
        if batch_size is not None and batch_size < 1:
            raise ConfigurationError(
                f"batch_size must be at least 1 (or None), got {batch_size}"
            )
        self._n_workers = int(n_workers)
        self._batch_size = None if batch_size is None else int(batch_size)

    @property
    def n_workers(self) -> int:
        """Default worker count used by :meth:`run`."""
        return self._n_workers

    @property
    def batch_size(self) -> int | None:
        """Default trial-block size used by :meth:`run` (``None`` = 1)."""
        return self._batch_size

    # ------------------------------------------------------------------
    def run(
        self,
        spec: ScenarioSpec,
        n_workers: int | None = None,
        batch_size: int | None = None,
    ) -> ScenarioResult:
        """Run one scenario.

        Parameters
        ----------
        spec:
            The scenario to execute.
        n_workers:
            Override of the engine's default worker count for this run.
        batch_size:
            Override of the trial-block size for this run; falls back to
            ``spec.batch_size``, then the engine default.  Never changes
            results, only how they are computed.
        """
        workers = self._n_workers if n_workers is None else int(n_workers)
        if workers < 1:
            raise ConfigurationError(f"n_workers must be at least 1, got {workers}")
        workers = min(workers, spec.n_trials)
        if batch_size is None:
            batch_size = spec.batch_size if spec.batch_size is not None else self._batch_size
        if batch_size is not None and batch_size < 1:
            raise ConfigurationError(
                f"batch_size must be at least 1 (or None), got {batch_size}"
            )
        chunks = _chunk_indices(spec.n_trials, int(batch_size or 1))

        instrumented = _TELEMETRY.enabled
        before = _metrics.snapshot() if instrumented else None
        scenario_span = (
            _span("engine.scenario", scenario=spec.name, n_trials=spec.n_trials)
            if instrumented
            else None
        )
        start = time.perf_counter()
        if scenario_span is not None:
            scenario_span.__enter__()
        try:
            if workers <= 1:
                # Explicit loop (not a comprehension) so the progress sink
                # can heartbeat mid-scenario; a no-op without one.
                batches = []
                for chunk in chunks:
                    batches.append(run_trial_batch(spec, chunk))
                    _progress.tick(
                        scenario=spec.name,
                        trial=chunk[-1] + 1,
                        n_trials=spec.n_trials,
                    )
            else:
                # Pool workers do not inherit the parent's runtime telemetry
                # switch under every start method, so an instrumented run
                # ships the wrapper that forces it on worker-side and returns
                # (batch, snapshot) pairs; merging the per-block deltas is
                # exact and order-independent.
                worker = run_trial_batch_instrumented if instrumented else run_trial_batch
                with ProcessPoolExecutor(max_workers=workers) as pool:
                    batches = list(pool.map(worker, repeat(spec), chunks))
                if instrumented:
                    for _, worker_snapshot in batches:
                        _metrics.merge_snapshot(worker_snapshot)
                    batches = [batch for batch, _ in batches]
        finally:
            if scenario_span is not None:
                scenario_span.__exit__(None, None, None)
        elapsed = time.perf_counter() - start
        if instrumented:
            _metrics.counter("engine.scenarios")
            _metrics.counter("engine.trials_executed", spec.n_trials)
            telemetry = _metrics.snapshot().subtract(before).to_dict()
        else:
            telemetry = None

        return ScenarioResult(
            spec=spec,
            trials=tuple(trial for batch in batches for trial in batch),
            elapsed_seconds=elapsed,
            n_workers=workers,
            telemetry=telemetry,
        )

    # ------------------------------------------------------------------
    def run_suite(
        self,
        specs: Iterable[ScenarioSpec],
        n_workers: int | None = None,
        batch_size: int | None = None,
    ) -> list[ScenarioResult]:
        """Run several scenarios in order.

        Scenario *trials* are parallelised; scenarios themselves run one
        after another so that a suite's memory high-water mark stays at one
        scenario's working set.
        """
        return [
            self.run(spec, n_workers=n_workers, batch_size=batch_size) for spec in specs
        ]

    def run_sweep(
        self,
        base: ScenarioSpec,
        grid: Mapping[str, Sequence[Any]],
        n_workers: int | None = None,
        name_format: str | None = None,
        batch_size: int | None = None,
    ) -> list[ScenarioResult]:
        """Expand ``base`` over a parameter grid and run every point.

        ``grid`` maps dotted spec paths to value sequences, e.g.
        ``{"mtd.gamma_threshold": (0.1, 0.2, 0.3), "grid.case": ("ieee14",
        "ieee30")}``; the cartesian product is executed in row-major order.

        Expansion and execution order are delegated to the campaign planner
        (:func:`repro.campaign.plan.plan_sweep`), so an in-memory sweep and
        a persistent campaign over the same base/grid run the *same* specs
        with bit-identical results; for a durable, sharded, resumable sweep
        use :func:`repro.campaign.orchestrator.run_campaign` instead.
        """
        plan = plan_sweep(base, grid, name_format=name_format)
        return plan.run(self, n_workers=n_workers, batch_size=batch_size)


def _chunk_indices(n_trials: int, batch_size: int) -> list[list[int]]:
    """Contiguous trial-index blocks of at most ``batch_size`` each."""
    return [
        list(range(start, min(start + batch_size, n_trials)))
        for start in range(0, n_trials, batch_size)
    ]


__all__ = ["ScenarioEngine"]
