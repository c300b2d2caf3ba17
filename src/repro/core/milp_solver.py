"""Direct (monolithic) MILP solution of the AC-RR problem.

Problem 2 of the paper is a mixed-integer linear program; this solver hands
the whole thing to HiGHS in one shot.  It serves two purposes:

* it is the reference optimum against which the Benders decomposition and the
  KAC heuristic are validated in the test-suite, and
* it is the most convenient solver for the no-overbooking baseline and for
  instances with the big-M deficit relaxation of Section 3.4 (used by the
  orchestrator once slices have been committed in earlier epochs).
"""

from __future__ import annotations

import time

import numpy as np
from scipy import sparse

from repro.core.lpsolver import canonical_csc, solve_milp, stack_columns
from repro.core.problem import DEFICIT_COST, ACRRProblem, InfeasibleProblemError
from repro.core.solution import (
    OrchestrationDecision,
    SolverStats,
    decision_from_vectors,
)

_DEFICIT_DOMAINS = ("radio", "transport", "compute")


class DirectMILPSolver:
    """Solve the AC-RR MILP (Problem 2) monolithically with HiGHS."""

    def __init__(
        self,
        time_limit_s: float | None = 120.0,
        mip_rel_gap: float = 1e-6,
    ):
        self.time_limit_s = time_limit_s
        self.mip_rel_gap = mip_rel_gap

    # ------------------------------------------------------------------ #
    def solve(self, problem: ACRRProblem) -> OrchestrationDecision:
        """Return the optimal orchestration decision for ``problem``."""
        start = time.perf_counter()
        n = problem.num_items
        use_deficit = problem.options.allow_deficit
        num_deficit = len(_DEFICIT_DOMAINS) if use_deficit else 0
        num_vars = 3 * n + num_deficit

        cost = np.concatenate(
            [
                problem.objective_x(),
                np.zeros(n),
                problem.objective_y(),
                np.full(num_deficit, DEFICIT_COST),
            ]
        )

        # Rows: capacity, selection, coupling; columns: x, z, y, deficits.
        # One canonical column-major matrix, straight from the blocks.
        blocks = (problem.capacity_block(), problem.selection_block(), problem.coupling_block())
        columns = [[block.x for block in blocks], [block.z for block in blocks],
                   [block.y for block in blocks]]
        if use_deficit:
            columns.append(
                [self._deficit_columns(problem), *((block.num_rows, num_deficit) for block in blocks[1:])]
            )

        sla = problem.sla_mbps
        lower = np.zeros(num_vars)
        upper = np.concatenate(
            [np.ones(n), sla, sla, np.full(num_deficit, np.inf)]
        )
        integrality = np.concatenate(
            [np.ones(n), np.zeros(2 * n + num_deficit)]
        )

        result = solve_milp(
            cost=cost,
            matrix=stack_columns(columns),
            row_lower=np.concatenate([block.lower for block in blocks]),
            row_upper=np.concatenate([block.upper for block in blocks]),
            integrality=integrality,
            lower=lower,
            upper=upper,
            time_limit_s=self.time_limit_s,
            mip_rel_gap=self.mip_rel_gap,
        )
        runtime = time.perf_counter() - start
        if not result.success:
            raise InfeasibleProblemError(
                f"direct MILP solve failed: {result.status}"
            )

        x = np.round(result.values[:n])
        z = result.values[n : 2 * n]
        deficits: dict[str, float] = {}
        if use_deficit:
            for domain, value in zip(_DEFICIT_DOMAINS, result.values[3 * n :]):
                deficits[domain] = float(value)
        stats = SolverStats(
            solver="direct-milp",
            iterations=1,
            runtime_s=runtime,
            optimal=result.mip_gap <= max(self.mip_rel_gap, 1e-5),
            gap=result.mip_gap,
            message=result.status,
        )
        return decision_from_vectors(problem, x, z, stats, deficits)

    # ------------------------------------------------------------------ #
    @staticmethod
    def _deficit_columns(problem: ACRRProblem) -> sparse.csc_matrix:
        """One column per deficit domain, relaxing that domain's capacity rows."""
        domains = np.array(problem.deficit_domains())
        rows = [np.flatnonzero(domains == domain) for domain in _DEFICIT_DOMAINS]
        indptr = np.zeros(len(_DEFICIT_DOMAINS) + 1, dtype=np.int32)
        np.cumsum([len(part) for part in rows], out=indptr[1:])
        return canonical_csc(
            indptr,
            np.concatenate(rows).astype(np.int32),
            np.full(len(domains), -1.0),
            (len(domains), len(_DEFICIT_DOMAINS)),
        )
