"""MultiStart driver for non-linear programs.

The paper solves its non-convex problems (the joint reactance OPF of eq. (1)
and the SPA-constrained MTD design of eq. (4)) with MATLAB's ``fmincon``
wrapped in the MultiStart global-search heuristic.  This module provides the
equivalent: run a local SQP solver (:func:`scipy.optimize.minimize` with
SLSQP) from several starting points and keep the best feasible local
optimum.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Sequence, Union

import numpy as np
from scipy.optimize import minimize

from repro.exceptions import OPFConvergenceError
from repro.telemetry import metrics as _metrics
from repro.telemetry.config import _STATE as _TELEMETRY
from repro.utils.parallel import run_tasks

VectorFunction = Callable[[np.ndarray], np.ndarray]

#: One constraint block: ``fun`` alone (the local solver finite-differences
#: it) or a ``(fun, jac)`` pair with ``jac(z)`` of shape ``(m, n)``.
ConstraintBlock = Union[VectorFunction, tuple[VectorFunction, VectorFunction]]


def _as_blocks(
    spec: ConstraintBlock | Sequence[ConstraintBlock] | None,
) -> list[tuple[VectorFunction, VectorFunction | None]]:
    """Normalise a constraint argument into ``(fun, jac or None)`` blocks."""
    if spec is None:
        return []
    if callable(spec):
        return [(spec, None)]
    if isinstance(spec, tuple) and len(spec) == 2 and all(callable(part) for part in spec):
        return [(spec[0], spec[1])]
    return [block for item in spec for block in _as_blocks(item)]


@dataclass
class LocalSolve:
    """Outcome of a single local optimisation run.

    ``nfev`` and ``njev`` are the local solver's objective and Jacobian
    evaluation counts, as scipy reports them.
    """

    x: np.ndarray
    objective: float
    max_violation: float
    success: bool
    message: str
    iterations: int
    nfev: int = 0
    njev: int = 0

    @property
    def feasible(self) -> bool:
        return self.max_violation <= LocalSolve.FEASIBILITY_TOL

    FEASIBILITY_TOL: float = 1e-5


@dataclass
class MultiStartOutcome:
    """Aggregated result of a MultiStart search.

    Attributes
    ----------
    best:
        The best feasible local solve (lowest objective); ``None`` when no
        start converged to a feasible point.
    runs:
        Every local solve, in the order the starts were tried.
    """

    best: LocalSolve | None
    runs: list[LocalSolve] = field(default_factory=list)

    @property
    def n_feasible(self) -> int:
        return sum(1 for run in self.runs if run.feasible)

    def require_best(self) -> LocalSolve:
        """Return the best run or raise :class:`OPFConvergenceError`."""
        if self.best is None:
            best_attempt = min(self.runs, key=lambda r: r.max_violation) if self.runs else None
            raise OPFConvergenceError(
                "no feasible local optimum found by MultiStart "
                f"({len(self.runs)} starts tried)",
                best_result=best_attempt,
            )
        return self.best


class MultiStartOptimizer:
    """Run a local NLP solver from multiple starting points.

    Parameters
    ----------
    objective:
        Callable mapping the decision vector to a scalar cost.
    bounds:
        Sequence of ``(low, high)`` pairs, one per decision variable.
    equality_constraints:
        Constraint values that must equal zero at feasible points (or
        ``None``): a callable, a ``(fun, jac)`` pair, or a list of these.
    inequality_constraints:
        Constraint values that must be **non-negative** at feasible points
        (or ``None``), matching scipy's SLSQP convention; given like
        ``equality_constraints``.  A block without ``jac`` is
        finite-differenced by the local solver; a block with one is handed
        to it with its Jacobian of shape ``(m, n)``.
    objective_gradient:
        Optional gradient of ``objective``; finite-differenced by the local
        solver when ``None``.
    max_iterations:
        Iteration cap for each local solve.
    tolerance:
        Convergence tolerance passed to the local solver.
    """

    def __init__(
        self,
        objective: Callable[[np.ndarray], float],
        bounds: Sequence[tuple[float | None, float | None]],
        equality_constraints: ConstraintBlock | Sequence[ConstraintBlock] | None = None,
        inequality_constraints: ConstraintBlock | Sequence[ConstraintBlock] | None = None,
        objective_gradient: VectorFunction | None = None,
        max_iterations: int = 200,
        tolerance: float = 1e-8,
    ) -> None:
        self._objective = objective
        self._gradient = objective_gradient
        self._bounds = list(bounds)
        self._eq = _as_blocks(equality_constraints)
        self._ineq = _as_blocks(inequality_constraints)
        self._max_iterations = int(max_iterations)
        self._tolerance = float(tolerance)

    # ------------------------------------------------------------------
    def solve(self, starts: Sequence[np.ndarray], *, fork: bool = False) -> MultiStartOutcome:
        """Run the local solver from every start and keep the best feasible run.

        The local solves are independent.  With ``fork`` they run in forked
        workers (:func:`repro.utils.parallel.run_tasks`); the runs come back
        in start order and the reduction below is the serial one, so the
        outcome is bit-identical to solving the starts one after another.
        A fork pays only when a local solve costs more than starting a
        worker (about 17 ms at ieee14): eq. (4)'s SPA-constrained starts
        (16-389 ms) gain, eq. (1)'s (about 3 ms) would lose.
        """
        if not starts:
            raise ValueError("at least one starting point is required")
        tasks = [partial(self._solve_single, np.asarray(start, dtype=float)) for start in starts]
        runs = run_tasks(tasks) if fork else [task() for task in tasks]
        feasible = [run for run in runs if run.feasible]
        best = min(feasible, key=lambda r: r.objective) if feasible else None
        if _TELEMETRY.enabled:
            _metrics.counter("opf.nlp.local_solves", len(runs))
            _metrics.counter("opf.nlp.iterations", sum(run.iterations for run in runs))
            _metrics.counter("opf.nlp.jacobian_evals", sum(run.njev for run in runs))
        return MultiStartOutcome(best=best, runs=runs)

    # ------------------------------------------------------------------
    def _solve_single(self, start: np.ndarray) -> LocalSolve:
        constraints = [
            {"type": kind, "fun": fun, "jac": jac}
            for kind, blocks in (("eq", self._eq), ("ineq", self._ineq))
            for fun, jac in blocks
        ]
        try:
            result = minimize(
                self._objective,
                start,
                method="SLSQP",
                jac=self._gradient,
                bounds=self._bounds,
                constraints=constraints,
                options={"maxiter": self._max_iterations, "ftol": self._tolerance},
            )
        except (ValueError, np.linalg.LinAlgError) as exc:
            # A user callable can raise in an invalid region (e.g. the
            # objective, a constraint or its derivative evaluated where the
            # model is undefined); the start is recorded as failed.
            return LocalSolve(
                x=start,
                objective=float("inf"),
                max_violation=float("inf"),
                success=False,
                message=f"local solver error: {exc}",
                iterations=0,
            )
        x = np.asarray(result.x, dtype=float)
        return LocalSolve(
            x=x,
            objective=float(result.fun),
            max_violation=self._max_violation(x),
            success=bool(result.success),
            message=str(result.message),
            iterations=int(getattr(result, "nit", 0) or 0),
            nfev=int(getattr(result, "nfev", 0) or 0),
            njev=int(getattr(result, "njev", 0) or 0),
        )

    def _max_violation(self, x: np.ndarray) -> float:
        violation = 0.0
        for eq, _ in self._eq:
            eq_values = np.atleast_1d(np.asarray(eq(x), dtype=float))
            if eq_values.size:
                violation = max(violation, float(np.max(np.abs(eq_values))))
        for ineq, _ in self._ineq:
            ineq_values = np.atleast_1d(np.asarray(ineq(x), dtype=float))
            if ineq_values.size:
                violation = max(violation, float(np.max(np.maximum(0.0, -ineq_values))))
        for index, (low, high) in enumerate(self._bounds):
            if low is not None:
                violation = max(violation, float(max(0.0, low - x[index])))
            if high is not None:
                violation = max(violation, float(max(0.0, x[index] - high)))
        return violation


__all__ = ["MultiStartOptimizer", "MultiStartOutcome", "LocalSolve"]
