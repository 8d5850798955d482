"""Tests for the OPF solvers (dispatch-only LP and joint reactance NLP)."""

from __future__ import annotations

import numpy as np
import pytest
from scipy.optimize import minimize

from repro.exceptions import OPFConvergenceError, OPFInfeasibleError
from repro.grid.cases import available_cases, case4gs, case14, load_case
from repro.grid.matrices import generator_incidence_matrix, incidence_matrix
from repro.opf.dc_opf import opf_cost, solve_dc_opf
from repro.opf.multistart import LocalSolve, MultiStartOptimizer
from repro.opf.reactance_opf import (
    ReactanceConstraint,
    ReactanceOPFProblem,
    solve_reactance_opf,
)
from repro.powerflow.dc import solve_dc_power_flow
from repro.telemetry import metrics
from repro.telemetry.config import enabled_scope


class TestDCOPF:
    def test_paper_table_ii(self, net4, opf4):
        """Pre-perturbation dispatch, flows and cost of Table II."""
        np.testing.assert_allclose(opf4.dispatch_mw, [350.0, 150.0], atol=1e-4)
        np.testing.assert_allclose(
            opf4.flows_mw, [126.56, 173.44, -43.44, -26.56], atol=0.01
        )
        assert opf4.cost == pytest.approx(1.15e4, rel=1e-6)

    def test_dispatch_respects_generator_limits(self, net14, opf14):
        p_min, p_max = net14.generator_limits_mw()
        assert np.all(opf14.dispatch_mw >= p_min - 1e-6)
        assert np.all(opf14.dispatch_mw <= p_max + 1e-6)

    def test_dispatch_meets_load(self, net14, opf14):
        assert opf14.total_generation_mw() == pytest.approx(net14.total_load_mw(), abs=1e-4)

    def test_flows_respect_limits(self, net14, opf14):
        limits = net14.flow_limits_mw()
        assert np.all(np.abs(opf14.flows_mw) <= limits + 1e-4)

    def test_flows_consistent_with_power_flow(self, net14, opf14):
        pf = solve_dc_power_flow(net14, generation_mw=opf14.dispatch_mw)
        np.testing.assert_allclose(pf.flows_mw, opf14.flows_mw, atol=1e-4)

    def test_cheapest_generators_used_first(self, net14, opf14):
        """Without binding constraints on them, cheap units should not idle
        while expensive units run."""
        costs = net14.generator_costs()
        dispatch = opf14.dispatch_mw
        # Generator at bus 6 (50 $/MWh) is the most expensive; it should be
        # at its minimum because cheaper capacity is available.
        most_expensive = int(np.argmax(costs))
        assert dispatch[most_expensive] == pytest.approx(0.0, abs=1e-6)

    def test_load_override(self, net14):
        light = solve_dc_opf(net14, loads_mw=net14.loads_mw() * 0.5)
        assert light.cost < opf_cost(net14)

    def test_reactance_override_changes_cost_under_congestion(self, net14):
        # At nominal load the 14-bus system is congested (lines 2 and 3 bind),
        # so changing reactances changes the achievable cost.
        x = net14.reactances()
        x[1] *= 0.5
        assert opf_cost(net14, reactances=x) != pytest.approx(opf_cost(net14))

    def test_infeasible_when_load_exceeds_capacity(self, net14):
        with pytest.raises(OPFInfeasibleError):
            solve_dc_opf(net14, loads_mw=net14.loads_mw() * 3.0)

    def test_wrong_load_length_rejected(self, net14):
        with pytest.raises(OPFInfeasibleError):
            solve_dc_opf(net14, loads_mw=np.ones(3))

    def test_binding_limits_reported(self, net14, opf14):
        binding = opf14.binding_flow_limits(net14)
        limits = net14.flow_limits_mw()
        for index in binding:
            assert abs(abs(opf14.flows_mw[index]) - limits[index]) < 1e-3

    def test_dispatch_by_bus_totals(self, net14, opf14):
        per_bus = opf14.dispatch_by_bus(net14)
        assert per_bus.sum() == pytest.approx(opf14.total_generation_mw())

    def test_summary_mentions_cost(self, opf14):
        assert "cost" in opf14.summary().lower()


class TestReactanceOPF:
    def test_never_worse_than_dispatch_only(self, net14):
        """Optimising reactances can only reduce (or match) the cost."""
        lp = solve_dc_opf(net14)
        joint = solve_reactance_opf(net14, n_random_starts=1, seed=0)
        assert joint.cost <= lp.cost + 1e-3

    def test_solution_within_dfacts_bounds(self, net14):
        joint = solve_reactance_opf(net14, n_random_starts=1, seed=0)
        x_min, x_max = net14.reactance_bounds()
        assert np.all(joint.reactances >= x_min - 1e-8)
        assert np.all(joint.reactances <= x_max + 1e-8)

    def test_solution_satisfies_power_balance(self, net14):
        joint = solve_reactance_opf(net14, n_random_starts=1, seed=0)
        pf = solve_dc_power_flow(
            net14, generation_mw=joint.dispatch_mw, reactances=joint.reactances
        )
        np.testing.assert_allclose(pf.flows_mw, joint.flows_mw, atol=0.5)
        assert joint.total_generation_mw() == pytest.approx(net14.total_load_mw(), abs=0.5)

    def test_falls_back_to_lp_without_dfacts(self):
        net = case14(dfacts_branches=())
        result = solve_reactance_opf(net)
        lp = solve_dc_opf(net)
        assert result.cost == pytest.approx(lp.cost)

    def test_extra_constraint_is_respected(self, net4):
        """A constraint forcing line 1's reactance up must be honoured."""
        nominal_x0 = net4.reactances()[0]

        def push_line1_up(x):
            return x[0] - 1.2 * nominal_x0  # >= 0 iff x0 >= 1.2 * nominal

        def push_line1_up_gradient(x):
            gradient = np.zeros_like(x)
            gradient[0] = 1.0
            return gradient

        constraint = ReactanceConstraint(push_line1_up, push_line1_up_gradient)
        result = solve_reactance_opf(
            net4,
            extra_reactance_constraints=[constraint],
            n_random_starts=2,
            seed=0,
        )
        assert result.reactances[0] >= 1.2 * nominal_x0 - 1e-6

    def test_extra_constraint_without_gradient_is_rejected(self, net4):
        def push_line1_up(x):
            return x[0] - 1.2 * net4.reactances()[0]

        with pytest.raises(TypeError, match="push_line1_up.*no gradient"):
            solve_reactance_opf(net4, extra_reactance_constraints=[push_line1_up])
        with pytest.raises(TypeError, match="ReactanceConstraint"):
            solve_reactance_opf(net4, extra_reactance_constraints=[0.5])

    def test_plain_value_gradient_tuple_is_accepted(self, net4):
        problem = ReactanceOPFProblem(
            network=net4,
            loads_mw=net4.loads_mw(),
            extra_reactance_constraints=((np.sum, np.ones_like),),
        )
        (constraint,) = problem.extra_reactance_constraints
        assert isinstance(constraint, ReactanceConstraint)
        jacobian = problem.reactance_constraints_jacobian(np.ones(problem.n_variables))
        assert jacobian.shape == (1, problem.n_variables)
        assert np.all(jacobian[0, -problem.n_dfacts :] == 1.0)
        assert not np.any(jacobian[0, : -problem.n_dfacts])

    def test_problem_vector_layout(self, net14):
        problem = ReactanceOPFProblem(network=net14, loads_mw=net14.loads_mw())
        assert problem.n_variables == 5 + 13 + 6
        z = np.arange(problem.n_variables, dtype=float)
        g, theta, x_d = problem.split(z)
        assert g.shape == (5,)
        assert theta.shape == (13,)
        assert x_d.shape == (6,)
        full = problem.full_reactances(x_d)
        assert full.shape == (20,)
        np.testing.assert_allclose(full[list(net14.dfacts_branches)], x_d)

    def test_problem_rejects_bad_loads(self, net14):
        with pytest.raises(OPFInfeasibleError):
            ReactanceOPFProblem(network=net14, loads_mw=np.ones(2))


class TestConstraintAssembly:
    """The broadcast builders equal the dense ``diag(1/x)`` products bit for bit."""

    @pytest.mark.parametrize("case_name", available_cases())
    def test_matches_dense_diagonal_products(self, case_name):
        network = load_case(case_name)
        problem = ReactanceOPFProblem(network=network, loads_mw=network.loads_mw())
        A = incidence_matrix(network)
        C = generator_incidence_matrix(network)
        loads_pu = network.loads_mw() / network.base_mva
        limits_pu = network.flow_limits_mw() / network.base_mva
        limited = np.isfinite(limits_pu)
        low, high = np.array(problem.bounds(), dtype=float).T
        rng = np.random.default_rng(11)
        for _ in range(2):
            z = rng.uniform(low, high)
            g, theta_red, x_d = problem.split(z)
            x = problem.full_reactances(x_d)
            theta = problem.full_angles(theta_red)
            susceptance = A @ np.diag(1.0 / x) @ A.T
            flows = np.diag(1.0 / x) @ A.T @ theta
            assert np.array_equal(
                problem.equality_constraints(z), C @ g - loads_pu - susceptance @ theta
            )
            parts = [limits_pu[limited] - flows[limited], limits_pu[limited] + flows[limited]]
            expected = np.concatenate(parts) if np.any(limited) else np.zeros(0)
            assert np.array_equal(problem.inequality_constraints(z), expected)
            result = problem.result_from_vector(z, status="test", iterations=0, violation=0.0)
            assert np.array_equal(result.flows_mw, flows * network.base_mva)


class TestMultiStart:
    def test_finds_global_minimum_of_multimodal_function(self):
        # f(x) = (x^2 - 1)^2 has minima at ±1; starts near both should find them.
        optimizer = MultiStartOptimizer(
            objective=lambda z: float((z[0] ** 2 - 1.0) ** 2),
            bounds=[(-2.0, 2.0)],
        )
        outcome = optimizer.solve([np.array([1.5]), np.array([-1.5])])
        best = outcome.require_best()
        assert abs(abs(best.x[0]) - 1.0) < 1e-4
        assert outcome.n_feasible == 2

    def test_constraint_violation_tracked(self):
        optimizer = MultiStartOptimizer(
            objective=lambda z: float(z[0]),
            bounds=[(0.0, 10.0)],
            inequality_constraints=lambda z: np.array([z[0] - 5.0]),
        )
        outcome = optimizer.solve([np.array([7.0])])
        best = outcome.require_best()
        assert best.x[0] >= 5.0 - 1e-6

    def test_no_feasible_point_raises(self):
        # Constraints x >= 5 and bounds x <= 1 are incompatible.
        optimizer = MultiStartOptimizer(
            objective=lambda z: float(z[0]),
            bounds=[(0.0, 1.0)],
            inequality_constraints=lambda z: np.array([z[0] - 5.0]),
        )
        outcome = optimizer.solve([np.array([0.5])])
        assert outcome.best is None
        with pytest.raises(OPFConvergenceError):
            outcome.require_best()

    def test_empty_starts_rejected(self):
        optimizer = MultiStartOptimizer(objective=lambda z: 0.0, bounds=[(0, 1)])
        with pytest.raises(ValueError):
            optimizer.solve([])

    def test_local_solver_error_is_contained(self):
        def exploding(z):
            raise ValueError("bad region")

        optimizer = MultiStartOptimizer(objective=exploding, bounds=[(0, 1)])
        outcome = optimizer.solve([np.array([0.5])])
        assert outcome.best is None
        assert not outcome.runs[0].success

    def test_telemetry_counts_match_scipy_and_leave_results_unchanged(self):
        bounds = [(-2.0, 2.0), (-2.0, 2.0)]

        def objective(z):
            return float((z[0] - 1.0) ** 2 + (z[1] + 0.5) ** 2 + z[0] * z[1])

        def inequality(z):
            return np.array([1.0 - z[0] - z[1], z[0] + 1.5])

        starts = [np.array([1.5, 1.5]), np.array([-1.0, 0.5])]
        optimizer = MultiStartOptimizer(
            objective=objective, bounds=bounds, inequality_constraints=inequality
        )
        with enabled_scope(False):
            off = optimizer.solve(starts)
        metrics.reset()
        try:
            with enabled_scope(True):
                on = optimizer.solve(starts)
            counters = metrics.snapshot().counters
        finally:
            metrics.reset()

        for run_off, run_on, start in zip(off.runs, on.runs, starts):
            assert run_off.x.tobytes() == run_on.x.tobytes()
            assert run_off.objective == run_on.objective
            direct = minimize(
                objective, start, method="SLSQP", bounds=bounds,
                constraints=[{"type": "ineq", "fun": inequality}],
                options={"maxiter": 200, "ftol": 1e-8},
            )
            assert (run_on.iterations, run_on.nfev, run_on.njev) == (
                direct.nit, direct.nfev, direct.njev
            )
            assert run_on.njev > 0
        assert counters["opf.nlp.local_solves"] == len(starts)
        assert counters["opf.nlp.iterations"] == sum(run.iterations for run in on.runs)
        assert counters["opf.nlp.jacobian_evals"] == sum(run.njev for run in on.runs)

    def test_feasibility_tolerance_constant(self):
        assert LocalSolve.FEASIBILITY_TOL == pytest.approx(1e-5)
