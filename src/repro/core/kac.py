"""Knapsack Admission Control (KAC): the fast heuristic of Section 4.2.

KAC replaces the exact Benders master problem with a multi-constrained 0-1
knapsack (Problem 6).  The constraints of that knapsack are not known up
front: they are generated lazily from the *feasibility* information of the
slave problem, exactly as in Algorithm 3:

1. start with no capacity knowledge and admit every profitable tenant;
2. evaluate the slave LP for the current admission vector; if it is
   infeasible, extract an extreme ray of the dual slave (here: a phase-1
   infeasibility certificate) and convert it into knapsack weights
   ``w^(k)`` and a knapsack capacity ``W^(k)`` (equations (27)-(28));
3. aggregate all generated constraints into a single surrogate constraint
   with the epsilon-weighting of equations (29)-(30) and re-run the greedy
   first-fit-decreasing knapsack solver (Algorithm 2);
4. repeat until the slave is feasible, then read the reservations ``z`` from
   the slave solution.

One practical refinement (documented in DESIGN.md): admission is decided at
the granularity of *(tenant, compute unit)* bundles -- a bundle contains the
lowest-delay admissible path from every base station to that compute unit --
so that every heuristic solution automatically satisfies the single-path,
same-CU and delay constraints (5)-(7).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.core.decomposition import SlaveProblem
from repro.core.knapsack import KnapsackItem, solve_knapsack_ffd
from repro.core.problem import ACRRProblem, InfeasibleProblemError
from repro.core.solution import (
    OrchestrationDecision,
    SolverStats,
    decision_from_vectors,
)

#: Knapsack rounds before KAC stops adding feasibility weights.
MAX_ITERATIONS = 50

#: Guard rails for the epsilon weight recursion of equation (30).
_EPSILON_MIN = 1e-9
_EPSILON_MAX = 1e9


@dataclass(frozen=True)
class _Bundle:
    """All paths needed to admit one tenant through one compute unit."""

    tenant_index: int
    tenant_name: str
    compute_unit: str
    item_indices: tuple[int, ...]
    cost: float  # sum of the per-item objective-x coefficients (gamma)
    committed: bool

    @property
    def value(self) -> float:
        """Profit of admitting this bundle (positive means worth admitting)."""
        return -self.cost


class KACSolver:
    """The Knapsack Admission Control heuristic (Algorithms 2 and 3)."""

    # ------------------------------------------------------------------ #
    def solve(self, problem: ACRRProblem) -> OrchestrationDecision:
        start = time.perf_counter()
        slave = SlaveProblem(problem)
        cost_x = problem.objective_x()
        bundles = self._build_bundles(problem, cost_x)
        if not bundles:
            raise InfeasibleProblemError(
                "KAC found no admissible (tenant, compute unit) bundle"
            )

        n = problem.num_items
        aggregated_weights = np.zeros(n)
        aggregated_capacity = 0.0
        epsilon = 1.0
        feasibility_cuts = 0
        iterations = 0
        selected = self._initial_selection(bundles, problem)
        outcome = None

        for iteration in range(1, MAX_ITERATIONS + 1):
            iterations = iteration
            x = self._selection_to_vector(selected, n)
            outcome = slave.evaluate(x)
            if outcome.feasible:
                break
            # Infeasible slave: generate knapsack weights from the certificate.
            ray = outcome.ray
            max_component = float(np.max(np.abs(ray))) if ray.size else 0.0
            if max_component > 0:
                ray = ray / max_component
            weights, capacity = slave.knapsack_weights(ray)
            feasibility_cuts += 1
            epsilon = self._next_epsilon(epsilon, weights, capacity)
            aggregated_weights = aggregated_weights + epsilon * weights
            aggregated_capacity = aggregated_capacity + epsilon * capacity
            selected = self._knapsack_selection(
                bundles, problem, aggregated_weights, aggregated_capacity
            )
        else:
            outcome = None

        if outcome is None or not outcome.feasible:
            # The epsilon-aggregated constraint did not converge to a feasible
            # admission set; fall back to dropping the least valuable
            # non-committed bundle until the slave accepts the selection.
            selected, outcome = self._repair(slave, selected, n, bundles)

        x = self._selection_to_vector(selected, n)
        runtime = time.perf_counter() - start
        stats = SolverStats(
            solver="kac",
            iterations=iterations,
            runtime_s=runtime,
            optimal=False,
            cuts_feasibility=feasibility_cuts,
            message="heuristic solution",
        )
        return decision_from_vectors(problem, x, outcome.z, stats)

    # ------------------------------------------------------------------ #
    # Bundle construction
    # ------------------------------------------------------------------ #
    @staticmethod
    def _build_bundles(problem: ACRRProblem, cost_x: np.ndarray) -> list[_Bundle]:
        bundles: list[_Bundle] = []
        base_stations = problem.base_station_names
        for tenant_index, request in enumerate(problem.requests):
            items = problem.items_of_tenant(tenant_index)
            by_cu_bs: dict[tuple[str, str], list] = {}
            for item in items:
                by_cu_bs.setdefault(
                    (item.path.compute_unit, item.path.base_station), []
                ).append(item)
            for cu in problem.compute_unit_names:
                chosen: list[int] = []
                complete = True
                for bs in base_stations:
                    candidates = by_cu_bs.get((cu, bs), [])
                    if not candidates:
                        complete = False
                        break
                    best = min(candidates, key=lambda item: item.path.delay_us)
                    chosen.append(best.index)
                if not complete:
                    continue
                cost = float(sum(cost_x[i] for i in chosen))
                bundles.append(
                    _Bundle(
                        tenant_index=tenant_index,
                        tenant_name=request.name,
                        compute_unit=cu,
                        item_indices=tuple(chosen),
                        cost=cost,
                        committed=request.committed,
                    )
                )
        return bundles

    @staticmethod
    def _best_bundle_per_tenant(bundles: list[_Bundle], problem: ACRRProblem) -> dict[int, _Bundle]:
        """Pick one candidate bundle per tenant for the initial selection.

        Committed tenants stick to their previously chosen compute unit when
        the orchestrator has recorded one (``preferred_compute_unit`` in the
        request metadata) -- keeping committed slices where they already run
        avoids service disruption and keeps the heuristic's starting point
        feasible.  Everyone else takes the highest-value bundle (ties broken
        by the order compute units appear in the topology).
        """
        best: dict[int, _Bundle] = {}
        for bundle in bundles:
            request = problem.requests[bundle.tenant_index]
            preferred_cu = request.metadata.get("preferred_compute_unit")
            current = best.get(bundle.tenant_index)
            if bundle.committed and preferred_cu is not None:
                if bundle.compute_unit == preferred_cu:
                    best[bundle.tenant_index] = bundle
                elif current is None:
                    best[bundle.tenant_index] = bundle
                continue
            if current is None or bundle.value > current.value:
                best[bundle.tenant_index] = bundle
        return best

    def _initial_selection(
        self, bundles: list[_Bundle], problem: ACRRProblem
    ) -> list[_Bundle]:
        """Iteration 1 of Algorithm 3: no capacity knowledge, admit greedily."""
        best_by_tenant = self._best_bundle_per_tenant(bundles, problem)
        return [
            bundle
            for bundle in best_by_tenant.values()
            if bundle.committed or bundle.value > 0.0
        ]

    @staticmethod
    def _selection_to_vector(selected: list[_Bundle], num_items: int) -> np.ndarray:
        x = np.zeros(num_items)
        for bundle in selected:
            for index in bundle.item_indices:
                x[index] = 1.0
        return x

    # ------------------------------------------------------------------ #
    # Knapsack iteration
    # ------------------------------------------------------------------ #
    @staticmethod
    def _next_epsilon(
        epsilon_prev: float, weights: np.ndarray, capacity: float
    ) -> float:
        """Equation (30) with clamping to keep the recursion numerically sane."""
        raw = abs(epsilon_prev * capacity - float(np.sum(epsilon_prev * weights)))
        return float(np.clip(raw, _EPSILON_MIN, _EPSILON_MAX))

    def _knapsack_selection(
        self,
        bundles: list[_Bundle],
        problem: ACRRProblem,
        aggregated_weights: np.ndarray,
        aggregated_capacity: float,
    ) -> list[_Bundle]:
        # Committed tenants must be admitted (constraint (13)), but only one
        # of their candidate bundles (one per compute unit) may be forced into
        # the knapsack -- the one their slice already runs on.
        forced = {
            bundle
            for bundle in self._best_bundle_per_tenant(bundles, problem).values()
            if bundle.committed
        }
        items = [
            KnapsackItem(
                key=bundle,
                value=bundle.value,
                weight=float(sum(aggregated_weights[i] for i in bundle.item_indices)),
                group=bundle.tenant_index,
                mandatory=bundle in forced,
            )
            for bundle in bundles
            if bundle in forced or not bundle.committed
        ]
        chosen = solve_knapsack_ffd(items, aggregated_capacity)
        return [item.key for item in chosen]

    # ------------------------------------------------------------------ #
    # Feasibility repair
    # ------------------------------------------------------------------ #
    def _repair(
        self,
        slave: SlaveProblem,
        selected: list[_Bundle],
        num_items: int,
        bundles: list[_Bundle],
    ):
        """Make the selection feasible: drop optional bundles, re-anchor committed ones.

        Optional (non-committed) bundles are dropped in increasing value
        order.  If only committed bundles remain and the selection is still
        infeasible, the repair tries to move committed slices to an
        alternative compute unit (e.g. from the saturated edge cloud to the
        core cloud), accepting any move that strictly reduces the measured
        infeasibility.  Only when no move helps does it give up.
        """
        working = list(selected)
        while True:
            x = self._selection_to_vector(working, num_items)
            outcome = slave.evaluate(x)
            if outcome.feasible:
                return working, outcome
            removable = [b for b in working if not b.committed]
            if removable:
                worst = min(removable, key=lambda bundle: bundle.value)
                working.remove(worst)
                continue
            improved = self._reanchor_committed(slave, working, num_items, bundles, outcome.infeasibility)
            if improved is None:
                raise InfeasibleProblemError(
                    "KAC cannot find a feasible admission set: the committed "
                    "slices alone exceed the system capacity "
                    "(enable allow_deficit and use the MILP/Benders solvers)"
                )
            working = improved

    def _reanchor_committed(
        self,
        slave: SlaveProblem,
        working: list[_Bundle],
        num_items: int,
        bundles: list[_Bundle],
        current_infeasibility: float,
    ) -> list[_Bundle] | None:
        """Try to move one committed bundle to another CU; None if nothing helps."""
        for bundle in sorted(working, key=lambda b: b.value):
            position = working.index(bundle)
            alternatives = [
                candidate
                for candidate in bundles
                if candidate.tenant_index == bundle.tenant_index
                and candidate.compute_unit != bundle.compute_unit
            ]
            for alternative in alternatives:
                candidate_selection = list(working)
                candidate_selection[position] = alternative
                x = self._selection_to_vector(candidate_selection, num_items)
                outcome = slave.evaluate(x)
                if outcome.feasible or outcome.infeasibility < current_infeasibility - 1e-9:
                    return candidate_selection
        return None
