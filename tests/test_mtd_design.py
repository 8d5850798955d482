"""Tests for the MTD design strategies (paper eq. (4)) and the random baseline."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import MTDDesignError
from repro.grid.cases import case14, load_case
from repro.grid.matrices import reduced_measurement_matrix
from repro.mtd import design as design_module
from repro.mtd.design import (
    DesignContext,
    design_mtd_perturbation,
    max_spa_perturbation,
    spa_gradient,
    spa_of_reactances,
)
from repro.mtd.random_mtd import RandomMTDBaseline
from repro.mtd.tradeoff import compute_tradeoff_curve
from repro.opf.multistart import MultiStartOptimizer
from repro.opf.reactance_opf import (
    ReactanceConstraint,
    ReactanceOPFProblem,
    solve_reactance_opf,
)
from repro.utils.linalg import orthonormal_basis


class TestMaxSPA:
    def test_stays_within_dfacts_limits(self, net14):
        design = max_spa_perturbation(net14, seed=0)
        assert design.perturbation.respects_dfacts_limits()

    def test_achieves_meaningful_separation(self, net14):
        design = max_spa_perturbation(net14, seed=0)
        assert design.achieved_spa > 0.2

    def test_beats_random_perturbations(self, net14):
        from repro.mtd.perturbation import ReactancePerturbation

        design = max_spa_perturbation(net14, seed=0)
        H = reduced_measurement_matrix(net14)
        for seed in range(5):
            random_perturbation = ReactancePerturbation.random(net14, 0.5, seed=seed)
            random_spa = spa_of_reactances(
                net14, H, random_perturbation.perturbed_reactances
            )
            assert design.achieved_spa >= random_spa - 1e-9

    def test_no_dfacts_rejected(self):
        net = case14(dfacts_branches=())
        with pytest.raises(MTDDesignError):
            max_spa_perturbation(net)


class TestTwoStageDesign:
    def test_meets_threshold(self, net14):
        for gamma in (0.05, 0.15, 0.25):
            design = design_mtd_perturbation(
                net14, gamma_threshold=gamma, method="two-stage", seed=0
            )
            assert design.achieved_spa >= gamma - 1e-6
            assert design.perturbation.respects_dfacts_limits()

    def test_dispatch_is_feasible(self, net14):
        design = design_mtd_perturbation(net14, gamma_threshold=0.2, method="two-stage", seed=0)
        limits = net14.flow_limits_mw()
        assert np.all(np.abs(design.opf.flows_mw) <= limits + 1e-3)
        assert design.opf.total_generation_mw() == pytest.approx(
            net14.total_load_mw(), abs=1e-3
        )

    def test_cost_monotone_in_threshold(self, net14):
        """Stricter SPA targets can only cost more (the Fig. 9 trade-off)."""
        loads = net14.loads_mw() * (220.0 / net14.total_load_mw())
        costs = []
        for gamma in (0.05, 0.15, 0.25):
            design = design_mtd_perturbation(
                net14, gamma_threshold=gamma, loads_mw=loads, method="two-stage", seed=0
            )
            costs.append(design.cost)
        assert costs[0] <= costs[1] + 1e-6
        assert costs[1] <= costs[2] + 1e-6

    def test_unreachable_threshold_rejected(self, net14):
        with pytest.raises(MTDDesignError):
            design_mtd_perturbation(net14, gamma_threshold=1.5, method="two-stage")

    def test_invalid_threshold_rejected(self, net14):
        with pytest.raises(MTDDesignError):
            design_mtd_perturbation(net14, gamma_threshold=-0.1)
        with pytest.raises(MTDDesignError):
            design_mtd_perturbation(net14, gamma_threshold=2.0)

    def test_no_dfacts_rejected(self):
        net = case14(dfacts_branches=())
        with pytest.raises(MTDDesignError):
            design_mtd_perturbation(net, gamma_threshold=0.1)

    def test_attacker_reactance_override(self, net14):
        """The SPA is measured against the supplied attacker knowledge."""
        x_attacker = net14.reactances()
        for index in net14.dfacts_branches:
            x_attacker[index] *= 0.5
        design = design_mtd_perturbation(
            net14,
            gamma_threshold=0.2,
            attacker_reactances=x_attacker,
            method="two-stage",
            seed=0,
        )
        attacker_matrix = reduced_measurement_matrix(net14, x_attacker)
        achieved = spa_of_reactances(net14, attacker_matrix, design.perturbed_reactances)
        assert achieved >= 0.2 - 1e-6


    def test_each_distinct_reactance_vector_is_evaluated_once(self, monkeypatch):
        """One SPA memo serves the max-SPA search and the line searches alike."""
        network = load_case("ieee14")
        preferred = network.reactances()
        preferred[list(network.dfacts_branches)[0]] *= 1.05
        evaluated: list[bytes] = []
        original = design_module.spa_of_reactances

        def counting(net, attacker, reactances):
            evaluated.append(np.asarray(reactances, dtype=float).tobytes())
            return original(net, attacker, reactances)

        monkeypatch.setattr(design_module, "spa_of_reactances", counting)
        designs = {}
        for label, context in (("plain", None), ("context", DesignContext())):
            evaluated.clear()
            designs[label] = design_mtd_perturbation(
                network, gamma_threshold=0.2, method="two-stage",
                preferred_reactances=preferred, seed=0, context=context,
            )
            assert evaluated
            assert len(evaluated) == len(set(evaluated))
        plain, with_context = designs["plain"], designs["context"]
        assert plain.perturbed_reactances.tobytes() == with_context.perturbed_reactances.tobytes()
        assert plain.opf.dispatch_mw.tobytes() == with_context.opf.dispatch_mw.tobytes()
        assert repr(plain.cost) == repr(with_context.cost)
        assert repr(plain.achieved_spa) == repr(with_context.achieved_spa)


class TestJointDesign:
    def test_joint_meets_threshold_and_never_worse_than_heuristic(self, net14):
        gamma = 0.15
        loads = net14.loads_mw() * (220.0 / net14.total_load_mw())
        heuristic = design_mtd_perturbation(
            net14, gamma_threshold=gamma, loads_mw=loads, method="two-stage", seed=0
        )
        joint = design_mtd_perturbation(
            net14, gamma_threshold=gamma, loads_mw=loads, method="joint",
            n_random_starts=1, seed=0
        )
        assert joint.achieved_spa >= gamma - 1e-4
        assert joint.cost <= heuristic.cost + 1e-6

    def test_max_spa_method_dispatch(self, net14):
        design = design_mtd_perturbation(net14, gamma_threshold=0.1, method="max-spa", seed=0)
        assert design.method == "max-spa"
        assert design.achieved_spa > 0.2


class TestSPAGradient:
    """``spa_gradient`` is the exact derivative of the operational SPA."""

    @pytest.mark.parametrize("case_name", ["ieee14", "ieee30", "case30.m", "synthetic57"])
    def test_matches_central_differences(self, case_name):
        network = load_case(case_name)
        attacker_matrix = reduced_measurement_matrix(network, network.reactances())
        x = network.reactances()
        low, high = network.reactance_bounds()
        dfacts = list(network.dfacts_branches)
        x[dfacts] = np.random.default_rng(3).uniform(low[dfacts], high[dfacts])
        gradient = spa_gradient(network, orthonormal_basis(attacker_matrix), x)
        reference = np.zeros_like(x)
        for branch in range(x.shape[0]):
            step = 1e-6 * x[branch]
            up, down = x.copy(), x.copy()
            up[branch] += step
            down[branch] -= step
            reference[branch] = (
                spa_of_reactances(network, attacker_matrix, up)
                - spa_of_reactances(network, attacker_matrix, down)
            ) / (2.0 * step)
        assert spa_of_reactances(network, attacker_matrix, x) > 0.05
        error = np.max(np.abs(gradient - reference)) / np.max(np.abs(reference))
        assert error <= 1e-5

    def test_finite_at_the_attackers_knowledge(self, net14):
        x = net14.reactances()
        attacker_matrix = reduced_measurement_matrix(net14, x)
        assert spa_of_reactances(net14, attacker_matrix, x) == pytest.approx(0.0, abs=1e-7)
        gradient = spa_gradient(net14, orthonormal_basis(attacker_matrix), x)
        assert gradient.shape == x.shape
        assert np.all(np.isfinite(gradient))


@pytest.fixture(scope="module")
def eq1_reactances14(net14):
    """The eq. (1) optimum's reactances: the attacker's knowledge below."""
    return solve_reactance_opf(net14).reactances


class TestEq4AgainstFiniteDifferenceOracle:
    """Eq. (4) with the exact SPA gradient matches the finite-difference SLSQP path."""

    @pytest.mark.parametrize("gamma", [0.1, 0.2, 0.3])
    def test_cost_and_spa_match(self, net14, eq1_reactances14, gamma):
        attacker_matrix = reduced_measurement_matrix(net14, eq1_reactances14)
        loads = net14.loads_mw()

        def spa_value(x):
            return spa_of_reactances(net14, attacker_matrix, x) - gamma

        # Oracle: SLSQP finite-differences the SPA together with the flows.
        problem = ReactanceOPFProblem(network=net14, loads_mw=loads)

        def flows_and_spa(z):
            x = problem.full_reactances(problem.split(z)[2])
            return np.append(problem.inequality_constraints(z), spa_value(x))

        oracle = MultiStartOptimizer(
            objective=problem.objective,
            bounds=problem.bounds(),
            equality_constraints=problem.equality_constraints,
            inequality_constraints=flows_and_spa,
            max_iterations=200,
        ).solve(problem.starting_points(n_random=2, seed=0)).require_best()
        oracle_cost = problem.cost_from_objective(oracle.objective)

        basis = orthonormal_basis(attacker_matrix)
        exact = solve_reactance_opf(
            net14,
            loads_mw=loads,
            extra_reactance_constraints=[
                ReactanceConstraint(spa_value, lambda x: spa_gradient(net14, basis, x))
            ],
            n_random_starts=2,
            max_iterations=200,
            seed=0,
        )
        assert exact.cost == pytest.approx(oracle_cost, rel=1e-6)
        assert spa_of_reactances(net14, attacker_matrix, exact.reactances) >= gamma - 1e-6


class TestRandomBaseline:
    def test_small_random_perturbations_are_ineffective(self, net14, evaluator14):
        """The paper's Fig. 7/8 finding: 2 %-bounded random perturbations do
        not reliably achieve high effectiveness."""
        baseline = RandomMTDBaseline(net14, evaluator14, max_relative_change=0.02)
        keyspace = baseline.sample_keyspace(10, seed=0)
        assert keyspace.fraction_meeting(delta=0.9, eta_target=0.9) <= 0.1

    def test_keyspace_statistics_shapes(self, net14, evaluator14):
        baseline = RandomMTDBaseline(net14, evaluator14, max_relative_change=0.1)
        keyspace = baseline.sample_keyspace(6, seed=1)
        assert len(keyspace) == 6
        assert keyspace.eta_values(0.5).shape == (6,)
        assert keyspace.spa_values().shape == (6,)
        assert np.all(keyspace.spa_values() >= 0.0)

    def test_designed_mtd_beats_random_keyspace(self, net14, evaluator14):
        """The paper's headline comparison: the designed perturbation is at
        least as effective as every sampled random perturbation."""
        design = design_mtd_perturbation(net14, gamma_threshold=0.25, method="two-stage", seed=0)
        designed_eta = evaluator14.evaluate(design.perturbed_reactances).eta(0.5)
        baseline = RandomMTDBaseline(net14, evaluator14, max_relative_change=0.02)
        keyspace = baseline.sample_keyspace(8, seed=2)
        assert designed_eta >= float(np.max(keyspace.eta_values(0.5)))

    def test_subset_perturbation_mode(self, net14, evaluator14):
        baseline = RandomMTDBaseline(
            net14, evaluator14, max_relative_change=0.1, perturb_all_dfacts=False
        )
        perturbation = baseline.draw_perturbation(seed=3)
        assert 1 <= len(perturbation.perturbed_branches) <= len(net14.dfacts_branches)

    def test_invalid_parameters_rejected(self, net14, evaluator14):
        with pytest.raises(MTDDesignError):
            RandomMTDBaseline(net14, evaluator14, max_relative_change=0.0)
        baseline = RandomMTDBaseline(net14, evaluator14, max_relative_change=0.1)
        with pytest.raises(MTDDesignError):
            baseline.sample_keyspace(0)

    def test_no_dfacts_rejected(self, evaluator14):
        net = case14(dfacts_branches=())
        with pytest.raises(MTDDesignError):
            RandomMTDBaseline(net, evaluator14)


class TestTradeoffCurve:
    def test_curve_structure_and_monotone_trends(self, net14, evaluator14):
        gammas = [0.05, 0.15, 0.25]
        curve = compute_tradeoff_curve(
            net14, evaluator14, gamma_thresholds=gammas, seed=0
        )
        assert len(curve) == 3
        np.testing.assert_allclose(curve.gammas(), gammas)
        etas = curve.eta_series(0.5)
        assert etas[0] <= etas[-1]
        assert np.all(curve.costs_percent() >= 0.0)
        assert np.all(curve.achieved_spas() >= curve.gammas() - 1e-6)

    def test_infeasible_thresholds_skipped(self, net14, evaluator14):
        curve = compute_tradeoff_curve(
            net14, evaluator14, gamma_thresholds=[0.1, 1.4], seed=0
        )
        assert len(curve) == 1

    def test_infeasible_thresholds_raise_when_requested(self, net14, evaluator14):
        with pytest.raises(MTDDesignError):
            compute_tradeoff_curve(
                net14,
                evaluator14,
                gamma_thresholds=[1.4],
                skip_infeasible=False,
                seed=0,
            )

    def test_cheapest_point_meeting_target(self, net14, evaluator14):
        curve = compute_tradeoff_curve(
            net14, evaluator14, gamma_thresholds=[0.05, 0.25], seed=0
        )
        point = curve.cheapest_point_meeting(delta=0.5, eta_target=0.5)
        assert point is not None
        assert point.eta[0.5] >= 0.5
        assert curve.cheapest_point_meeting(delta=0.5, eta_target=1.01) is None
