"""Forked MultiStart: the parallel path is bit-identical to the inline one.

``repro.utils.parallel`` runs eq. (4)'s local solves and the joint design's
two-stage fallback in forked workers (eq. (1) forks here only on request).  Every test here runs the
same computation twice — on the parallel path and forced inline by
reporting one usable CPU — and requires byte-equal outputs.  The parallel
path is taken whatever the BLAS thread count (the helper would otherwise
stay inline under a multi-threaded BLAS).  On a single-CPU host both runs
are inline and the comparisons hold trivially; ``TestHelper`` checks that
the parallel path really forks where it can.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from repro.exceptions import MTDDesignError, OPFConvergenceError
from repro.grid.cases import load_case
from repro.mtd import design as design_module
from repro.mtd.design import DesignContext, design_mtd_perturbation
from repro.opf import multistart
from repro.opf.multistart import MultiStartOptimizer
from repro.opf.reactance_opf import solve_reactance_opf
from repro.telemetry import metrics
from repro.telemetry.config import enabled_scope
from repro.utils import parallel

multi_cpu = pytest.mark.skipif(
    parallel.usable_cpus() < 2, reason="the parallel path needs two usable CPUs"
)


@pytest.fixture(autouse=True)
def forked(monkeypatch):
    """Fork whenever two CPUs are usable, whatever the BLAS thread count."""
    monkeypatch.setattr(parallel, "blas_threads", lambda: 1)


@pytest.fixture
def inline(monkeypatch):
    """Force the helper onto its inline path for the rest of the test."""

    def force() -> None:
        monkeypatch.setattr(parallel, "usable_cpus", lambda: 1)

    return force


def opf_fingerprint(result) -> tuple:
    return (
        repr(result.cost),
        result.dispatch_mw.tobytes(),
        result.angles_rad.tobytes(),
        result.flows_mw.tobytes(),
        result.reactances.tobytes(),
        result.status,
        result.iterations,
        repr(result.constraint_violation),
        result.success,
    )


def design_fingerprint(design) -> tuple:
    return (
        design.method,
        repr(design.achieved_spa),
        design.perturbed_reactances.tobytes(),
        opf_fingerprint(design.opf),
    )


def context_fingerprint(context: DesignContext) -> tuple:
    return (
        [(key, repr(value)) for key, value in context.spa.items()],
        [(key, None if opf is None else opf_fingerprint(opf)) for key, opf in context.opf.items()],
        [(key, x.tobytes(), repr(spa)) for key, (x, spa) in context.max_spa.items()],
    )


# ----------------------------------------------------------------------
# Module-level task bodies, so a ProcessPoolExecutor can ship them
# ----------------------------------------------------------------------
def _pids_from_pool_worker() -> tuple[int, list[int]]:
    return os.getpid(), parallel.run_tasks([os.getpid, os.getpid, os.getpid])


def _raise(exc: BaseException):
    raise exc


class TestHelper:
    @multi_cpu
    def test_tasks_run_in_forked_workers_in_task_order(self):
        results = parallel.run_tasks([lambda i=i: (i, os.getpid()) for i in range(5)])
        assert [index for index, _ in results] == list(range(5))
        assert os.getpid() not in {pid for _, pid in results}

    @multi_cpu
    def test_start_task_runs_in_a_forked_worker(self):
        join = parallel.start_task(os.getpid)
        assert join() != os.getpid()

    def test_inline_when_one_cpu_is_usable(self, inline):
        inline()
        assert parallel.run_tasks([os.getpid, os.getpid]) == [os.getpid()] * 2
        assert parallel.start_task(os.getpid)() == os.getpid()

    def test_single_task_runs_inline(self):
        assert parallel.run_tasks([os.getpid]) == [os.getpid()]
        assert parallel.run_tasks([]) == []

    def test_no_nesting_inside_a_process_pool_worker(self):
        context = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(max_workers=1, mp_context=context) as pool:
            worker_pid, task_pids = pool.submit(_pids_from_pool_worker).result(timeout=120)
        assert task_pids == [worker_pid] * 3

    @pytest.mark.parametrize("force_inline", [False, True])
    def test_first_failure_in_task_order_reraises_with_type_and_message(
        self, inline, force_inline
    ):
        if force_inline:
            inline()
        tasks = [
            lambda: 1,
            lambda: _raise(MTDDesignError("the D-FACTS range cannot achieve it")),
            lambda: _raise(ValueError("later failure")),
        ]
        with pytest.raises(MTDDesignError, match="cannot achieve it"):
            parallel.run_tasks(tasks)
        failure = OPFConvergenceError("no feasible local optimum", best_result=(1, 2))
        with pytest.raises(OPFConvergenceError, match="no feasible") as caught:
            parallel.start_task(lambda: _raise(failure))()
        assert caught.value.best_result == (1, 2)

    @pytest.mark.parametrize("force_inline", [False, True])
    def test_worker_metrics_merge_into_the_parent(self, inline, force_inline):
        if force_inline:
            inline()

        def task(n: int) -> int:
            metrics.counter("test.parallel.units", n)
            return n

        metrics.reset()
        try:
            with enabled_scope(True):
                parallel.run_tasks([lambda n=n: task(n) for n in (1, 2, 3, 4)])
                parallel.start_task(lambda: task(10))()
            counters = metrics.snapshot().counters
        finally:
            metrics.reset()
        assert counters["test.parallel.units"] == 20


class TestEq1BitIdentity:
    def test_eq1_runs_inline(self, monkeypatch):
        def no_fork(tasks):
            raise AssertionError("eq. (1) forked")

        monkeypatch.setattr(multistart, "run_tasks", no_fork)
        solve_reactance_opf(load_case("ieee14"), n_random_starts=1)

    @pytest.mark.parametrize("case_name", ["ieee14", "ieee30"])
    def test_parallel_equals_inline_across_loads(self, inline, monkeypatch, case_name):
        """eq. (1) forced onto the forked path equals its inline solve."""
        solve = MultiStartOptimizer.solve
        monkeypatch.setattr(
            MultiStartOptimizer, "solve",
            lambda self, starts, fork=False: solve(self, starts, fork=True),
        )
        network = load_case(case_name)

        def solves() -> list[tuple]:
            return [
                opf_fingerprint(
                    solve_reactance_opf(
                        network, loads_mw=network.loads_mw() * scale, n_random_starts=1
                    )
                )
                for scale in (0.75, 1.0, 1.1)
            ]

        parallel_runs = solves()
        inline()
        assert solves() == parallel_runs


def _nlp_counters() -> dict[str, int]:
    return {k: v for k, v in metrics.snapshot().counters.items() if k.startswith("opf.nlp.")}


class TestJointDesignBitIdentity:
    GAMMAS = (0.1, 0.2, 0.3)

    @pytest.fixture(scope="class")
    def eq1(self):
        network = load_case("ieee14")
        return network, solve_reactance_opf(network)

    @pytest.fixture(scope="class")
    def inline_designs(self, eq1):
        """Inline eq. (4) designs with telemetry on, and their ``opf.nlp`` counters."""
        network, baseline = eq1
        designs = {}
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(parallel, "usable_cpus", lambda: 1)
            for gamma in self.GAMMAS:
                metrics.reset()
                try:
                    with enabled_scope(True):
                        design = design_mtd_perturbation(
                            network, gamma, attacker_reactances=baseline.reactances,
                            method="joint",
                        )
                    designs[gamma] = (design_fingerprint(design), _nlp_counters())
                finally:
                    metrics.reset()
        return designs

    def test_parallel_equals_inline_across_thresholds(self, eq1, inline_designs):
        network, baseline = eq1
        with enabled_scope(False):
            parallel_designs = [
                design_fingerprint(
                    design_mtd_perturbation(
                        network, gamma, attacker_reactances=baseline.reactances, method="joint"
                    )
                )
                for gamma in self.GAMMAS
            ]
        assert parallel_designs == [inline_designs[gamma][0] for gamma in self.GAMMAS]

    def test_telemetry_counts_worker_passes(self, eq1, inline_designs):
        network, baseline = eq1
        metrics.reset()
        try:
            with enabled_scope(True):
                design = design_mtd_perturbation(
                    network, 0.2, attacker_reactances=baseline.reactances, method="joint"
                )
            counters = _nlp_counters()
        finally:
            metrics.reset()
        assert (design_fingerprint(design), counters) == inline_designs[0.2]
        assert counters["opf.nlp.derivative_passes"] == counters["opf.nlp.jacobian_evals"] > 0

    def test_context_contents_match_after_joint_designs(self, inline, eq1):
        network, baseline = eq1
        preferred = network.reactances()

        def run() -> tuple[list[tuple], tuple]:
            context = DesignContext()
            designs = [
                design_fingerprint(
                    design_mtd_perturbation(
                        network, gamma, attacker_reactances=baseline.reactances,
                        preferred_reactances=preferred, method="joint",
                        n_random_starts=1, context=context,
                    )
                )
                for gamma in (0.15, 0.25)
            ]
            return designs, context_fingerprint(context)

        parallel_designs, (parallel_spa, *parallel_rest) = run()
        assert parallel_spa and parallel_rest[0] and parallel_rest[1]
        inline()
        inline_designs, (inline_spa, *inline_rest) = run()
        assert inline_designs == parallel_designs
        assert inline_rest == parallel_rest
        # Local solves add SPA entries only where they run: in this process
        # inline, in the workers on the parallel path.
        assert set(parallel_spa) <= set(inline_spa)

    @pytest.mark.parametrize("case_name", ["ieee14", "ieee30"])
    def test_generator_seed_state_matches(self, inline, case_name):
        """ieee30's 10 D-FACTS draw random corners: its two-stage runs first."""
        network = load_case(case_name)

        def run() -> tuple[tuple, dict]:
            rng = np.random.default_rng(2024)
            design = design_mtd_perturbation(
                network, 0.15, method="joint", n_random_starts=1, seed=rng
            )
            return design_fingerprint(design), rng.bit_generator.state

        parallel_run = run()
        inline()
        assert run() == parallel_run


class TestJointDesignFailures:
    @pytest.mark.parametrize("force_inline", [False, True])
    def test_threshold_above_max_spa_raises_the_two_stage_error(self, inline, force_inline):
        if force_inline:
            inline()
        network = load_case("ieee14")
        with pytest.raises(MTDDesignError, match="cannot achieve γ_th=1.500"):
            design_mtd_perturbation(
                network, 1.5, method="joint", n_random_starts=0, max_iterations=3
            )

    @pytest.mark.parametrize("force_inline", [False, True])
    def test_two_stage_error_comes_before_an_nlp_error(
        self, inline, monkeypatch, force_inline
    ):
        if force_inline:
            inline()

        def broken_nlp(*args, **kwargs):
            raise RuntimeError("eq. (4) broke")

        monkeypatch.setattr(design_module, "solve_reactance_opf", broken_nlp)
        network = load_case("ieee14")
        with pytest.raises(MTDDesignError, match="cannot achieve"):
            design_mtd_perturbation(network, 1.5, method="joint")
        with pytest.raises(RuntimeError, match="eq. \\(4\\) broke"):
            design_mtd_perturbation(network, 0.1, method="joint")

    def test_convergence_failure_falls_back_to_the_two_stage_design(
        self, inline, monkeypatch
    ):
        def unconverged(*args, **kwargs):
            raise OPFConvergenceError("no feasible local optimum found by MultiStart")

        monkeypatch.setattr(design_module, "solve_reactance_opf", unconverged)
        network = load_case("ieee14")
        context = DesignContext()
        fallback = design_mtd_perturbation(network, 0.2, method="joint", context=context)
        expected = design_mtd_perturbation(network, 0.2, method="two-stage")
        assert design_fingerprint(fallback) == design_fingerprint(expected)
        inline()
        inline_context = DesignContext()
        inline_fallback = design_mtd_perturbation(
            network, 0.2, method="joint", context=inline_context
        )
        assert design_fingerprint(inline_fallback) == design_fingerprint(fallback)
        assert context_fingerprint(inline_context) == context_fingerprint(context)
