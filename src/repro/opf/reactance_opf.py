"""Joint dispatch + D-FACTS reactance OPF (paper eq. (1)).

When D-FACTS devices are installed, the operator may optimise branch
reactances alongside the generation dispatch.  The resulting problem is
non-linear (the nodal balance couples reactances and angles through
``B(x) θ``) and non-convex; following the paper we solve it with a local SQP
method under a MultiStart driver.

The same machinery serves the MTD design problem of eq. (4): the caller adds
extra inequality constraints that depend only on the full branch-reactance
vector (e.g. the subspace-angle constraint ``γ(H_t, H'(x)) ≥ γ_th``).  Each
comes with its exact gradient, and SLSQP receives them as their own
constraint block with a Jacobian.

The objective gradient and the balance and flow Jacobians come from
:meth:`ReactanceOPFProblem.derivatives`: forward differences by exactly the
rule scipy's SLSQP applies when it is given no derivative (same steps, same
bound handling, same arithmetic), so every iterate is bit-identical to
scipy's own finite differences, but one structured pass reuses the
assembled matrices instead of re-evaluating every block once per variable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from repro.exceptions import OPFConvergenceError, OPFInfeasibleError
from repro.grid.matrices import (
    NetworkLike,
    generator_incidence_matrix,
    incidence_matrix,
    non_slack_indices,
)
from repro.opf.dc_opf import solve_dc_opf
from repro.opf.multistart import MultiStartOptimizer
from repro.opf.result import OPFResult
from repro.telemetry import metrics as _metrics
from repro.telemetry.config import _STATE as _TELEMETRY
from repro.utils.rng import as_generator

#: scipy's default absolute finite-difference step for SLSQP, ``√eps``.
_FD_STEP: float = float(np.finfo(float).eps) ** 0.5


class ReactanceConstraint(NamedTuple):
    """An inequality constraint on the full branch-reactance vector ``x``.

    ``value(x)`` returns a scalar (or a length-``m`` vector) that is
    non-negative when the constraint is satisfied; ``gradient(x)`` returns
    its exact derivative with respect to ``x``, shape ``(L,)`` (or
    ``(m, L)``).  A plain ``(value, gradient)`` tuple is accepted as well.
    """

    value: Callable[[np.ndarray], float | np.ndarray]
    gradient: Callable[[np.ndarray], np.ndarray]


def _as_reactance_constraint(constraint: object) -> ReactanceConstraint:
    """Validate one extra constraint, naming what is missing on failure."""
    if isinstance(constraint, tuple) and len(constraint) == 2 and all(
        callable(part) for part in constraint
    ):
        return ReactanceConstraint(*constraint)
    if callable(constraint):
        name = getattr(constraint, "__name__", repr(constraint))
        raise TypeError(
            f"extra reactance constraint {name!r} has no gradient: pass "
            "ReactanceConstraint(value, gradient), where gradient(x) is the "
            "derivative of value(x) with respect to the full branch-reactance "
            "vector x"
        )
    raise TypeError(
        "an extra reactance constraint must be a ReactanceConstraint(value, "
        f"gradient) pair of callables, got {type(constraint).__name__}"
    )


@dataclass
class ReactanceOPFProblem:
    """The joint dispatch + reactance OPF in decision-vector form.

    The decision vector is ``z = [g (p.u.), θ_non-slack (rad), x_D (p.u.)]``
    where ``x_D`` contains only the reactances of D-FACTS-equipped branches.
    """

    network: NetworkLike
    loads_mw: np.ndarray
    extra_reactance_constraints: tuple[ReactanceConstraint, ...] = ()

    def __post_init__(self) -> None:
        network = self.network
        self.extra_reactance_constraints = tuple(
            _as_reactance_constraint(c) for c in self.extra_reactance_constraints
        )
        self.loads_mw = np.asarray(self.loads_mw, dtype=float).ravel()
        if self.loads_mw.shape[0] != network.n_buses:
            raise OPFInfeasibleError(
                f"expected {network.n_buses} loads, got {self.loads_mw.shape[0]}",
                status="bad-input",
            )
        self._base = network.base_mva
        self._n_gen = network.n_generators
        self._keep = non_slack_indices(network)
        self._n_theta = self._keep.shape[0]
        self._dfacts = np.array(network.dfacts_branches, dtype=int)
        self._n_dfacts = self._dfacts.shape[0]
        self._A = incidence_matrix(network)
        # C-ordered copy so ``b[:, None] * A^T`` has the memory layout of the
        # dense ``diag(b) @ A^T`` and the matrix-vector products round alike.
        self._A_T = np.ascontiguousarray(self._A.T)
        self._C = generator_incidence_matrix(network)
        self._costs = network.generator_costs()
        self._p_min, self._p_max = network.generator_limits_mw()
        self._x_nominal = network.reactances()
        self._x_min, self._x_max = network.reactance_bounds()
        self._limits_pu = network.flow_limits_mw() / self._base
        self._finite_limits = np.isfinite(self._limits_pu)
        self._has_limits = bool(np.any(self._finite_limits))
        self._finite_limit_values = self._limits_pu[self._finite_limits]
        self._loads_pu = self.loads_mw / self._base
        self._cost_weights = self._costs * self._base
        self._lower, self._upper = np.array(self.bounds(), dtype=float).T
        #: One-entry memo: the z bytes of the last derivative pass and its result.
        self._derivative_memo: tuple[bytes, tuple[np.ndarray, np.ndarray, np.ndarray]] | None = None

    # ------------------------------------------------------------------
    # Decision-vector layout helpers
    # ------------------------------------------------------------------
    @property
    def n_variables(self) -> int:
        return self._n_gen + self._n_theta + self._n_dfacts

    @property
    def n_dfacts(self) -> int:
        return self._n_dfacts

    def split(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Split ``z`` into ``(g_pu, θ_non-slack, x_D)``."""
        z = np.asarray(z, dtype=float).ravel()
        g = z[: self._n_gen]
        theta = z[self._n_gen : self._n_gen + self._n_theta]
        x_d = z[self._n_gen + self._n_theta :]
        return g, theta, x_d

    def full_reactances(self, x_d: np.ndarray) -> np.ndarray:
        """Expand D-FACTS reactances into the full branch reactance vector."""
        x = self._x_nominal.copy()
        if self._n_dfacts:
            x[self._dfacts] = x_d
        return x

    def full_angles(self, theta_reduced: np.ndarray) -> np.ndarray:
        """Expand reduced angles (non-slack buses) into a full angle vector."""
        theta = np.zeros(self.network.n_buses)
        theta[self._keep] = theta_reduced
        return theta

    # ------------------------------------------------------------------
    # Objective and constraints (SLSQP conventions)
    # ------------------------------------------------------------------
    def objective(self, z: np.ndarray) -> float:
        """Generation cost in $ per hour (scaled to keep SLSQP well conditioned)."""
        g, _, _ = self.split(z)
        return self._scaled_cost(g)

    def _scaled_cost(self, g: np.ndarray) -> float:
        return float(np.dot(self._cost_weights, g)) * self._objective_scale

    #: Objective values around 1e4 $ are rescaled to O(10) for the SQP solver.
    _objective_scale: float = 1e-3

    def cost_from_objective(self, value: float) -> float:
        """Convert a scaled objective value back to $ per hour."""
        return float(value) / self._objective_scale

    def equality_constraints(self, z: np.ndarray) -> np.ndarray:
        """Nodal power balance ``C g − l − B(x) θ`` (p.u.), must be zero."""
        g, theta_red, x_d = self.split(z)
        x = self.full_reactances(x_d)
        theta = self.full_angles(theta_red)
        return self._C @ g - self._loads_pu - self._susceptance(x) @ theta

    def inequality_constraints(self, z: np.ndarray) -> np.ndarray:
        """Flow-limit constraints ``f^max ∓ f``, non-negative when satisfied."""
        _, theta_red, x_d = self.split(z)
        x = self.full_reactances(x_d)
        theta = self.full_angles(theta_red)
        return self._flow_margins(self._flow_matrix(x) @ theta)

    def _susceptance(self, x: np.ndarray) -> np.ndarray:
        """``B(x) = A diag(1/x) Aᵀ``, assembled by broadcasting."""
        return (self._A * (1.0 / x)) @ self._A.T

    def _flow_matrix(self, x: np.ndarray) -> np.ndarray:
        """``diag(1/x) Aᵀ``, so that the branch flows are ``flow_matrix @ θ``."""
        return (1.0 / x)[:, None] * self._A_T

    def _flow_margins(self, flows: np.ndarray) -> np.ndarray:
        if not self._has_limits:
            return np.zeros(0)
        limited = flows[self._finite_limits]
        limits = self._finite_limit_values
        return np.concatenate([limits - limited, limits + limited])

    # ------------------------------------------------------------------
    # Derivatives: scipy's 2-point rule, evaluated with structure
    # ------------------------------------------------------------------
    def derivatives(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Objective gradient, balance Jacobian and flow Jacobian in one pass.

        Bit-identical to ``scipy.optimize.approx_derivative(f, z,
        method="2-point", abs_step=√eps, bounds=self.bounds())`` for each of
        :meth:`objective`, :meth:`equality_constraints` and
        :meth:`inequality_constraints` — the derivatives SLSQP computes
        itself when given none: ``z`` is clipped into the bounds, the step
        ``h = √eps`` falls back to ``√eps·max(1, |z_i|)`` where it vanishes
        and is flipped or shortened at the bounds, and column ``i`` is
        ``(f(z + h_i e_i) − f(z)) / ((z_i + h_i) − z_i)``.  Structure makes
        the pass cheap: a block's column for a variable it does not read is
        ``0.0/dx_i``, the angle columns reuse the assembled ``B(x)`` and
        flow matrix, the dispatch columns reuse ``B(x) θ``, and only the
        D-FACTS columns re-assemble.  The last pass is memoised on the bytes
        of ``z``, so SLSQP's three callbacks at one iterate share it; the
        returned arrays are read-only.
        """
        z = np.asarray(z, dtype=float).ravel()
        key = z.tobytes()
        if self._derivative_memo is not None and self._derivative_memo[0] == key:
            return self._derivative_memo[1]
        if _TELEMETRY.enabled:
            _metrics.counter("opf.nlp.derivative_passes")
        z = np.clip(z, self._lower, self._upper)
        stepped = z + self._forward_steps(z)
        dx = stepped - z
        n_gen, n_theta = self._n_gen, self._n_theta
        g, theta_red, x_d = self.split(z)
        x = self.full_reactances(x_d)
        theta = self.full_angles(theta_red)
        susceptance = self._susceptance(x)
        flow_matrix = self._flow_matrix(x)
        dispatch = self._C @ g - self._loads_pu
        injected = susceptance @ theta
        cost0 = self._scaled_cost(g)
        balance0 = dispatch - injected
        flows0 = self._flow_margins(flow_matrix @ theta)

        # f(z + h_i e_i) for every i, one column per variable.
        cost = np.full(z.shape[0], cost0)
        balance = np.empty((balance0.shape[0], z.shape[0]))
        flows = np.empty((flows0.shape[0], z.shape[0]))
        for i in range(n_gen):
            g_i = g.copy()
            g_i[i] = stepped[i]
            cost[i] = self._scaled_cost(g_i)
            balance[:, i] = self._C @ g_i - self._loads_pu - injected
            flows[:, i] = flows0
        for j in range(n_theta):
            theta_j = theta.copy()
            theta_j[self._keep[j]] = stepped[n_gen + j]
            balance[:, n_gen + j] = dispatch - susceptance @ theta_j
            flows[:, n_gen + j] = self._flow_margins(flow_matrix @ theta_j)
        for k in range(self._n_dfacts):
            x_k = x.copy()
            x_k[self._dfacts[k]] = stepped[n_gen + n_theta + k]
            balance[:, n_gen + n_theta + k] = dispatch - self._susceptance(x_k) @ theta
            flows[:, n_gen + n_theta + k] = self._flow_margins(self._flow_matrix(x_k) @ theta)

        result = (
            (cost - cost0) / dx,
            (balance - balance0[:, None]) / dx,
            (flows - flows0[:, None]) / dx,
        )
        for array in result:
            array.flags.writeable = False
        self._derivative_memo = (key, result)
        return result

    def _forward_steps(self, z: np.ndarray) -> np.ndarray:
        """scipy's absolute 2-point steps at ``z``, adjusted to the bounds."""
        lower, upper = self._lower, self._upper
        sign = (z >= 0).astype(float) * 2 - 1
        step = np.where(
            (z + _FD_STEP) - z == 0, _FD_STEP * sign * np.maximum(1.0, np.abs(z)), _FD_STEP
        )
        if np.all((lower == -np.inf) & (upper == np.inf)):
            return step
        lower_dist = z - lower
        upper_dist = upper - z
        trial = z + step
        violated = (trial < lower) | (trial > upper)
        fitting = np.abs(step) <= np.maximum(lower_dist, upper_dist)
        step[violated & fitting] *= -1
        forward = (upper_dist >= lower_dist) & ~fitting
        step[forward] = upper_dist[forward]
        backward = (upper_dist < lower_dist) & ~fitting
        step[backward] = -lower_dist[backward]
        return step

    def objective_gradient(self, z: np.ndarray) -> np.ndarray:
        """Finite-difference gradient of :meth:`objective` (see :meth:`derivatives`)."""
        return self.derivatives(z)[0]

    def balance_jacobian(self, z: np.ndarray) -> np.ndarray:
        """Finite-difference Jacobian of :meth:`equality_constraints`."""
        return self.derivatives(z)[1]

    def flow_jacobian(self, z: np.ndarray) -> np.ndarray:
        """Finite-difference Jacobian of :meth:`inequality_constraints`."""
        return self.derivatives(z)[2]

    def reactance_constraints(self, z: np.ndarray) -> np.ndarray:
        """The extra reactance constraints, non-negative when satisfied."""
        x = self.full_reactances(self.split(z)[2])
        values = [c.value(x) for c in self.extra_reactance_constraints]
        return np.concatenate([np.atleast_1d(np.asarray(v, dtype=float)) for v in values])

    def reactance_constraints_jacobian(self, z: np.ndarray) -> np.ndarray:
        """Exact Jacobian of :meth:`reactance_constraints` with respect to ``z``.

        Each gradient is taken over the full branch-reactance vector; only
        its D-FACTS columns depend on ``z``, and they land in the ``x_D``
        block of the decision vector.
        """
        x = self.full_reactances(self.split(z)[2])
        rows = np.vstack([np.atleast_2d(c.gradient(x)) for c in self.extra_reactance_constraints])
        jacobian = np.zeros((rows.shape[0], self.n_variables))
        jacobian[:, self._n_gen + self._n_theta :] = rows[:, self._dfacts]
        return jacobian

    def bounds(self) -> list[tuple[float | None, float | None]]:
        """Bounds for ``z``: generator limits, free angles, D-FACTS limits."""
        bounds: list[tuple[float | None, float | None]] = []
        for g in range(self._n_gen):
            bounds.append((self._p_min[g] / self._base, self._p_max[g] / self._base))
        bounds.extend([(-np.pi, np.pi)] * self._n_theta)
        for branch_index in self._dfacts:
            bounds.append((self._x_min[branch_index], self._x_max[branch_index]))
        return bounds

    # ------------------------------------------------------------------
    # Starting points
    # ------------------------------------------------------------------
    def starting_points(
        self,
        n_random: int = 4,
        seed: int | np.random.Generator | None = 0,
    ) -> list[np.ndarray]:
        """Generate MultiStart starting points.

        Each start fixes a candidate D-FACTS reactance vector (the nominal
        values, the box corners, and random interior samples) and warm-starts
        the dispatch and angles from the dispatch-only LP solved at those
        reactances, which gives a point satisfying every constraint except
        possibly the caller's extra reactance constraints.
        """
        rng = as_generator(seed)
        candidates: list[np.ndarray] = []
        if self._n_dfacts:
            nominal = self._x_nominal[self._dfacts]
            lower = self._x_min[self._dfacts]
            upper = self._x_max[self._dfacts]
            candidates.append(nominal)
            candidates.append(lower)
            candidates.append(upper)
            # Alternating corner: odd-indexed devices low, even-indexed high.
            alternating = np.where(np.arange(self._n_dfacts) % 2 == 0, upper, lower)
            candidates.append(alternating)
            for _ in range(max(0, n_random)):
                candidates.append(rng.uniform(lower, upper))
        else:
            candidates.append(np.zeros(0))

        starts = []
        for x_d in candidates:
            starts.append(self._warm_start(x_d))
        return starts

    def _warm_start(self, x_d: np.ndarray) -> np.ndarray:
        x = self.full_reactances(np.asarray(x_d, dtype=float))
        try:
            warm = solve_dc_opf(self.network, reactances=x, loads_mw=self.loads_mw)
            g_pu = warm.dispatch_mw / self._base
            theta_red = warm.angles_rad[self._keep]
        except OPFInfeasibleError:
            # Fall back to a flat start: mid-range dispatch, zero angles.
            g_pu = 0.5 * (self._p_min + self._p_max) / self._base
            theta_red = np.zeros(self._n_theta)
        return np.concatenate([g_pu, theta_red, np.asarray(x_d, dtype=float)])

    # ------------------------------------------------------------------
    def result_from_vector(self, z: np.ndarray, status: str, iterations: int,
                           violation: float) -> OPFResult:
        """Package a solved decision vector into an :class:`OPFResult`."""
        g, theta_red, x_d = self.split(z)
        x = self.full_reactances(x_d)
        theta = self.full_angles(theta_red)
        flows_pu = self._flow_matrix(x) @ theta
        cost = float(np.dot(self._cost_weights, g))
        return OPFResult(
            cost=cost,
            dispatch_mw=g * self._base,
            angles_rad=theta,
            flows_mw=flows_pu * self._base,
            reactances=x,
            success=True,
            status=status,
            iterations=iterations,
            constraint_violation=violation,
        )


def solve_reactance_opf(
    network: NetworkLike,
    loads_mw: np.ndarray | None = None,
    extra_reactance_constraints: Sequence[ReactanceConstraint] = (),
    n_random_starts: int = 4,
    max_iterations: int = 300,
    seed: int | np.random.Generator | None = 0,
) -> OPFResult:
    """Solve the joint dispatch + reactance OPF (paper eq. (1)).

    Parameters
    ----------
    network:
        Network with D-FACTS devices installed on at least one branch (the
        problem degenerates to the dispatch-only LP otherwise, which is then
        solved directly).
    loads_mw:
        Optional load override (MW per bus).
    extra_reactance_constraints:
        Additional :class:`ReactanceConstraint` ``(value, gradient)`` pairs
        evaluated on the *full* branch reactance vector; each value must be
        non-negative when satisfied.  The MTD design problem passes the SPA
        constraint here.  A bare callable without a gradient raises
        :class:`TypeError`.  With extra constraints the local solves run in
        forked workers (:meth:`MultiStartOptimizer.solve` with ``fork``).
    n_random_starts:
        Number of random-interior MultiStart points (in addition to the
        nominal and corner starts).
    max_iterations:
        Iteration cap per local solve.
    seed:
        Seed for the random starting points.

    Returns
    -------
    OPFResult

    Raises
    ------
    OPFConvergenceError
        If no MultiStart run reaches a feasible point.
    """
    loads = network.loads_mw() if loads_mw is None else np.asarray(loads_mw, dtype=float)

    if not network.dfacts_branches and not extra_reactance_constraints:
        return solve_dc_opf(network, loads_mw=loads)

    problem = ReactanceOPFProblem(
        network=network,
        loads_mw=loads,
        extra_reactance_constraints=tuple(extra_reactance_constraints),
    )
    inequality_blocks = [(problem.inequality_constraints, problem.flow_jacobian)]
    if problem.extra_reactance_constraints:
        inequality_blocks.append(
            (problem.reactance_constraints, problem.reactance_constraints_jacobian)
        )
    optimizer = MultiStartOptimizer(
        objective=problem.objective,
        objective_gradient=problem.objective_gradient,
        bounds=problem.bounds(),
        equality_constraints=(problem.equality_constraints, problem.balance_jacobian),
        inequality_constraints=inequality_blocks,
        max_iterations=max_iterations,
    )
    outcome = optimizer.solve(
        problem.starting_points(n_random=n_random_starts, seed=seed),
        fork=bool(problem.extra_reactance_constraints),
    )
    best = outcome.require_best()
    return problem.result_from_vector(
        best.x,
        status=f"slsqp multistart ({outcome.n_feasible}/{len(outcome.runs)} feasible)",
        iterations=best.iterations,
        violation=best.max_violation,
    )


__all__ = ["ReactanceOPFProblem", "solve_reactance_opf", "ReactanceConstraint"]
