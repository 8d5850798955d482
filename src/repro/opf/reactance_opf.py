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
constraint block with a Jacobian; the balance and flow constraints keep
scipy's finite differences, so a problem without extra constraints (eq. (1))
takes the same solver path whether or not the design machinery is in use.
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
from repro.utils.rng import as_generator


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
        self._loads_pu = self.loads_mw / self._base

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
        return float(np.dot(self._costs * self._base, g)) * self._objective_scale

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
        susceptance = (self._A * (1.0 / x)) @ self._A.T
        return self._C @ g - self._loads_pu - susceptance @ theta

    def inequality_constraints(self, z: np.ndarray) -> np.ndarray:
        """Flow-limit constraints ``f^max ∓ f``, non-negative when satisfied."""
        _, theta_red, x_d = self.split(z)
        x = self.full_reactances(x_d)
        theta = self.full_angles(theta_red)
        flows = (1.0 / x)[:, None] * self._A_T @ theta
        if not np.any(self._finite_limits):
            return np.zeros(0)
        limited = self._finite_limits
        limits = self._limits_pu[limited]
        return np.concatenate([limits - flows[limited], limits + flows[limited]])

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
        flows_pu = (1.0 / x)[:, None] * self._A_T @ theta
        cost = float(np.dot(self._costs * self._base, g))
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
        :class:`TypeError`.
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
    optimizer = MultiStartOptimizer(
        objective=problem.objective,
        bounds=problem.bounds(),
        equality_constraints=problem.equality_constraints,
        inequality_constraints=problem.inequality_constraints,
        inequality_with_jacobian=(
            (problem.reactance_constraints, problem.reactance_constraints_jacobian)
            if problem.extra_reactance_constraints
            else None
        ),
        max_iterations=max_iterations,
    )
    outcome = optimizer.solve(problem.starting_points(n_random=n_random_starts, seed=seed))
    best = outcome.require_best()
    return problem.result_from_vector(
        best.x,
        status=f"slsqp multistart ({outcome.n_feasible}/{len(outcome.runs)} feasible)",
        iterations=best.iterations,
        violation=best.max_violation,
    )


__all__ = ["ReactanceOPFProblem", "solve_reactance_opf", "ReactanceConstraint"]
