"""Construction of the AC-RR (admission control & resource reservation) problem.

This module turns a topology, a set of slice requests and the per-tenant
forecasts into the mixed-integer linear program of Section 3 (Problem 2):

* one binary variable ``x_{tau,p}`` per (tenant, candidate path) pair,
  deciding whether tenant ``tau`` is served through path ``p``;
* one continuous variable ``z_{tau,p}`` with the bitrate *reserved* for the
  tenant on that path (the overbooking lever: ``lambda_hat <= z <= Lambda``);
* one auxiliary variable ``y_{tau,p} = z_{tau,p} * x_{tau,p}`` introduced by
  the linearisation (constraints (10)-(12)).

The objective is the linearised expected cost

    Psi(x, y) = sum_i [ (Lambda_i xi_i K_i / (Lambda_i - lambda_hat_i)) - R_i ] x_i
                - [ xi_i K_i / (Lambda_i - lambda_hat_i) ] y_i

subject to the capacity constraints (2)-(4), the path-selection constraints
(5)-(7) and the coupling constraints (8)-(12).  Three modelling choices are
worth calling out (all documented in DESIGN.md):

* **Delay constraint (7)** is enforced by *filtering* the candidate paths of
  each tenant to those with ``D_p <= Delta_tau``; together with the
  at-most-one-path constraint (5) this is exactly equivalent to the explicit
  linear constraint and keeps the problem smaller.
* **Per-path reward/penalty.**  The paper's objective sums the reward over
  every (tenant, path) pair, but its evaluation counts the reward *once per
  admitted tenant* (an admitted tenant holds exactly one path per base
  station).  We therefore spread the tenant reward and penalty uniformly over
  the base stations (``R_p = R / B``), which makes the MILP objective equal to
  the per-tenant accounting used in the evaluation.
* **Constraint (6)** ("an admitted slice gets a slice of every BS, all
  anchored at the same CU") is implemented as per-CU equality chains between
  consecutive base stations, which is equivalent to the paper's all-pairs
  formulation with O(B) instead of O(B^2) rows.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field, replace

import numpy as np
from scipy import sparse

from repro.core.forecast_inputs import ForecastInput
from repro.core.risk import deficit_probability_proxy
from repro.core.slices import SliceRequest
from repro.topology.network import NetworkTopology
from repro.topology.paths import Path, PathSet


@dataclass(frozen=True)
class ProblemOptions:
    """Knobs controlling how the AC-RR MILP is built.

    Attributes
    ----------
    overbooking:
        When False the problem becomes the *no-overbooking* baseline of the
        evaluation: reservations are pinned to the full SLA (``z = Lambda x``)
        and the risk term disappears from the objective.
    allow_deficit:
        Adds the per-domain deficit variables of Section 3.4 (big-M
        relaxation), which keep the problem feasible when previously admitted
        slices no longer fit.
    deficit_cost:
        The big-M cost of one unit of resource deficit.
    max_paths_per_tenant_pair:
        Optional cap on the number of candidate paths considered per
        (tenant, BS, CU) triple after delay filtering; keeps large instances
        tractable.
    epochs_per_day:
        Number of decision epochs per seasonal cycle (day).  The risk scaling
        factor of the paper is ``xi = sigma_hat * L`` with the slice duration
        ``L`` measured in seasonal cycles, so a one-day slice has ``xi =
        sigma_hat`` and longer commitments are proportionally riskier.
    """

    overbooking: bool = True
    allow_deficit: bool = False
    deficit_cost: float = 1.0e4
    max_paths_per_tenant_pair: int | None = None
    epochs_per_day: int = 24

    def without_overbooking(self) -> "ProblemOptions":
        return replace(self, overbooking=False)


@dataclass(frozen=True)
class ProblemItem:
    """One (tenant, candidate path) pair, i.e. one column of the MILP."""

    index: int
    tenant_index: int
    tenant: SliceRequest
    path: Path
    sla_mbps: float
    lambda_hat_mbps: float
    sigma_hat: float
    xi: float
    reward_per_path: float
    penalty_rate_per_path: float
    compute_baseline_cpus: float
    compute_cpus_per_mbps: float
    radio_mhz_per_mbps: float
    transport_overhead: float

    @property
    def risk_slope(self) -> float:
        """xi * K / (Lambda - lambda_hat): marginal risk per Mb/s of under-provisioning."""
        headroom = self.sla_mbps - self.lambda_hat_mbps
        return self.xi * self.penalty_rate_per_path / headroom


class InfeasibleProblemError(RuntimeError):
    """Raised when the AC-RR instance has no feasible solution."""


def _request_structure_key(request: SliceRequest) -> tuple:
    """The fields of a request that shape the MILP structure.

    Metadata is excluded on purpose: it only steers heuristics (e.g. the
    KAC compute-unit preference), never the constraint matrices.
    """
    return (
        request.name,
        request.template,
        request.duration_epochs,
        request.penalty_factor,
        request.arrival_epoch,
        request.committed,
    )


def _structure_signature(requests: list[SliceRequest], options: "ProblemOptions") -> tuple:
    """Everything that shapes the items and constraint sparsity."""
    return (
        tuple(_request_structure_key(request) for request in requests),
        options,
    )


def _normalized_forecasts(
    requests: list[SliceRequest], forecasts: dict[str, ForecastInput]
) -> dict[str, ForecastInput]:
    """Per-request forecasts with the pessimistic fallback and clamping."""
    return {
        request.name: forecasts.get(
            request.name, ForecastInput.pessimistic(request.sla_mbps)
        ).clamped(request.sla_mbps)
        for request in requests
    }


def topology_signature(topology: NetworkTopology) -> tuple:
    """Content signature of everything the AC-RR problem reads off a topology.

    The structure/decision caches key topologies by identity for speed, but
    topologies are mutable (``add_base_station`` etc.); this cheap snapshot
    of the element names and capacities catches in-place mutation between
    epochs so a stale skeleton or decision is never reused.
    """
    capacities = topology.capacities()
    return (
        tuple(sorted(capacities.radio_mhz.items())),
        tuple(sorted(capacities.transport_mbps.items())),
        tuple(sorted(capacities.compute_cpus.items())),
    )


@dataclass
class _ConstraintBlock:
    """A block of sparse linear constraints ``lb <= A_x x + A_z z + A_y y <= ub``."""

    a_x: sparse.csr_matrix
    a_z: sparse.csr_matrix
    a_y: sparse.csr_matrix
    lower: np.ndarray
    upper: np.ndarray
    labels: list[str] = field(default_factory=list)

    @property
    def num_rows(self) -> int:
        return self.a_x.shape[0]


@dataclass(frozen=True)
class ResourceBlock:
    """One tenant's slice of the slave LP, for multi-cut disaggregation.

    ``item_indices`` are the tenant's columns (ascending), ``capacity_rows``
    the capacity rows those items touch (ascending).  Blocks share capacity
    rows: each block sees every shared row restricted to its own columns
    with the *full* right-hand side, which is a relaxation (the dropped
    terms are non-negative), so per-block costs always underestimate the
    joint slave cost -- the property the multi-cut master relies on.
    """

    index: int
    tenant_index: int
    item_indices: tuple[int, ...]
    capacity_rows: tuple[int, ...]


def _csr(rows: list[int], cols: list[int], values: list[float], shape: tuple[int, int]) -> sparse.csr_matrix:
    return sparse.csr_matrix(
        (np.asarray(values, dtype=float), (np.asarray(rows, dtype=int), np.asarray(cols, dtype=int))),
        shape=shape,
    )


class ACRRProblem:
    """One instance of the AC-RR problem for a single decision epoch."""

    def __init__(
        self,
        topology: NetworkTopology,
        path_set: PathSet,
        requests: list[SliceRequest],
        forecasts: dict[str, ForecastInput],
        options: ProblemOptions | None = None,
    ):
        if not requests:
            raise ValueError("the AC-RR problem needs at least one slice request")
        names = [request.name for request in requests]
        if len(set(names)) != len(names):
            raise ValueError("slice request names must be unique")
        self.topology = topology
        self.path_set = path_set
        self.requests = list(requests)
        self.options = options or ProblemOptions()
        self._forecasts = _normalized_forecasts(self.requests, forecasts)
        self._base_station_names = topology.base_station_names
        self._compute_unit_names = topology.compute_unit_names
        self._link_keys = [link.key for link in topology.links]
        self._capacities = topology.capacities()
        self.items: list[ProblemItem] = []
        self._build_items()
        self._index_items()
        self._block_cache: dict[str, object] = {}

    # ------------------------------------------------------------------ #
    # Item construction
    # ------------------------------------------------------------------ #
    def _admissible_paths(self, request: SliceRequest) -> list[Path]:
        """Candidate paths of one tenant after delay filtering (constraint (7))."""
        admissible: list[Path] = []
        for (bs, cu), paths in self.path_set.items():
            eligible = [p for p in paths if p.delay_ms <= request.latency_tolerance_ms]
            cap = self.options.max_paths_per_tenant_pair
            if cap is not None:
                eligible = eligible[:cap]
            admissible.extend(eligible)
        return admissible

    def _forecast_item_fields(
        self, request: SliceRequest, forecast: ForecastInput
    ) -> dict[str, float]:
        """The :class:`ProblemItem` fields that depend on the forecast.

        Shared by the cold build and :meth:`with_forecasts` so the two can
        never derive the item risk inputs differently.
        """
        duration_days = request.duration_epochs / self.options.epochs_per_day
        return {
            "lambda_hat_mbps": forecast.lambda_hat_mbps,
            "sigma_hat": forecast.sigma_hat,
            "xi": forecast.sigma_hat * duration_days,
        }

    def _build_items(self) -> None:
        index = 0
        for tenant_index, request in enumerate(self.requests):
            forecast = self._forecasts[request.name]
            num_bs = max(1, len(self._base_station_names))
            reward_per_path = request.reward / num_bs
            penalty_per_path = request.penalty_rate_per_mbps / num_bs
            forecast_fields = self._forecast_item_fields(request, forecast)
            for path in self._admissible_paths(request):
                bs = self.topology.base_station(path.base_station)
                overhead = max((link.overhead for link in path.links), default=1.0)
                self.items.append(
                    ProblemItem(
                        index=index,
                        tenant_index=tenant_index,
                        tenant=request,
                        path=path,
                        sla_mbps=request.sla_mbps,
                        **forecast_fields,
                        reward_per_path=reward_per_path,
                        penalty_rate_per_path=penalty_per_path,
                        compute_baseline_cpus=request.compute_baseline_cpus,
                        compute_cpus_per_mbps=request.compute_cpus_per_mbps,
                        radio_mhz_per_mbps=bs.mhz_for_bitrate(1.0),
                        transport_overhead=overhead,
                    )
                )
                index += 1
        if not self.items:
            raise InfeasibleProblemError(
                "no admissible (tenant, path) pair: every candidate path violates "
                "the latency tolerances of every request"
            )

    def _index_items(self) -> None:
        self._items_by_cu: dict[str, list[int]] = {cu: [] for cu in self._compute_unit_names}
        self._items_by_bs: dict[str, list[int]] = {bs: [] for bs in self._base_station_names}
        self._items_by_link: dict[tuple[str, str], list[int]] = {
            key: [] for key in self._link_keys
        }
        self._items_by_tenant_bs: dict[tuple[int, str], list[int]] = {}
        self._items_by_tenant_cu_bs: dict[tuple[int, str, str], list[int]] = {}
        self._items_by_tenant: dict[int, list[int]] = {
            t: [] for t in range(len(self.requests))
        }
        for item in self.items:
            self._items_by_cu[item.path.compute_unit].append(item.index)
            self._items_by_bs[item.path.base_station].append(item.index)
            for link in item.path.links:
                self._items_by_link[link.key].append(item.index)
            self._items_by_tenant_bs.setdefault(
                (item.tenant_index, item.path.base_station), []
            ).append(item.index)
            self._items_by_tenant_cu_bs.setdefault(
                (item.tenant_index, item.path.compute_unit, item.path.base_station), []
            ).append(item.index)
            self._items_by_tenant[item.tenant_index].append(item.index)

    # ------------------------------------------------------------------ #
    # Basic accessors
    # ------------------------------------------------------------------ #
    @property
    def num_items(self) -> int:
        return len(self.items)

    @property
    def num_tenants(self) -> int:
        return len(self.requests)

    @property
    def base_station_names(self) -> list[str]:
        return list(self._base_station_names)

    @property
    def compute_unit_names(self) -> list[str]:
        return list(self._compute_unit_names)

    def forecast(self, tenant_name: str) -> ForecastInput:
        return self._forecasts[tenant_name]

    def items_of_tenant(self, tenant_index: int) -> list[ProblemItem]:
        return [self.items[i] for i in self._items_by_tenant[tenant_index]]

    def tenant_index(self, name: str) -> int:
        for index, request in enumerate(self.requests):
            if request.name == name:
                return index
        raise KeyError(f"unknown tenant {name!r}")

    def without_overbooking(self) -> "ACRRProblem":
        """A copy of this instance configured as the no-overbooking baseline."""
        return ACRRProblem(
            topology=self.topology,
            path_set=self.path_set,
            requests=self.requests,
            forecasts={name: fc for name, fc in self._forecasts.items()},
            options=self.options.without_overbooking(),
        )

    # ------------------------------------------------------------------ #
    # Structure reuse (see DESIGN.md, "Control-plane structure cache")
    # ------------------------------------------------------------------ #
    def structure_signature(self) -> tuple:
        """Hashable key of everything that shapes the items and constraint
        sparsity: the request set (names, templates, durations, penalties,
        arrival epochs, committed flags) and the problem options.  Forecasts
        are deliberately excluded -- two problems with equal signatures built
        against the same topology and path set share their skeleton.  The
        tuple is memoized per instance."""
        return self._cached(
            "signature", lambda: _structure_signature(self.requests, self.options)
        )

    def warm_start_signature(self) -> tuple:
        """Like :meth:`structure_signature`, minus the arrival epochs.

        Arrival epochs never enter the MILP matrices -- they only matter for
        release timing -- so two instances that differ *only* in arrivals
        (e.g. a renewed slice) pose byte-identical solver systems.  The
        cross-epoch warm-start layer keys its cut pool on this signature so
        renewals inherit the cuts of their previous life; see
        :func:`repro.core.benders.warm_start_key`.  Memoized per instance.
        """
        return self._cached(
            "warm_signature",
            lambda: (
                tuple(
                    (
                        request.name,
                        request.template,
                        request.duration_epochs,
                        request.penalty_factor,
                        request.committed,
                    )
                    for request in self.requests
                ),
                self.options,
            ),
        )

    def with_forecasts(
        self,
        requests: list[SliceRequest],
        forecasts: dict[str, ForecastInput],
    ) -> "ACRRProblem":
        """Clone this problem's skeleton with new forecast inputs.

        ``requests`` must be structurally identical to this instance's (same
        :func:`structure_signature`); the freshly supplied objects are swapped
        in so request metadata (e.g. the preferred compute unit recorded by
        the orchestrator) stays current.  Items are re-derived by rewriting
        only the forecast-dependent fields; the item indices and the
        forecast-independent capacity/selection constraint blocks are shared
        with this instance, so cached and cold builds yield identical
        matrices.
        """
        expected = [_request_structure_key(r) for r in self.requests]
        provided = [_request_structure_key(r) for r in requests]
        if expected != provided:
            raise ValueError(
                "with_forecasts requires a structurally identical request set"
            )
        # Shallow copy: every structural attribute (topology, path set,
        # capacities, item indices, ...) is shared automatically, including
        # any attribute added to __init__ in the future.
        clone = copy.copy(self)
        clone.requests = list(requests)
        clone._forecasts = _normalized_forecasts(clone.requests, forecasts)
        clone.items = []
        for item in self.items:
            request = requests[item.tenant_index]
            forecast = clone._forecasts[request.name]
            clone.items.append(
                replace(
                    item,
                    tenant=request,
                    **clone._forecast_item_fields(request, forecast),
                )
            )
        # Capacity and selection constraints (and the structure signature)
        # do not depend on forecasts; the coupling block and the objective
        # vectors do, so those rebuild lazily on the clone.
        clone._block_cache = {
            key: value
            for key, value in self._block_cache.items()
            if key
            in (
                "capacity",
                "selection",
                "signature",
                "warm_signature",
                "resource_blocks",
            )
        }
        return clone

    def _cached(self, key: str, build):
        value = self._block_cache.get(key)
        if value is None:
            value = build()
            self._block_cache[key] = value
        return value

    # ------------------------------------------------------------------ #
    # Objective
    # ------------------------------------------------------------------ #
    def objective_x(self) -> np.ndarray:
        """Coefficients of x in the (minimised) linearised objective Psi.

        The returned array is cached on the instance; treat it as read-only.
        """
        return self._cached("objective_x", self._build_objective_x)

    def _build_objective_x(self) -> np.ndarray:
        coeffs = np.zeros(self.num_items)
        for item in self.items:
            if self.options.overbooking:
                coeffs[item.index] = (
                    item.sla_mbps * item.risk_slope - item.reward_per_path
                )
            else:
                coeffs[item.index] = -item.reward_per_path
        return coeffs

    def objective_y(self) -> np.ndarray:
        """Coefficients of y in the (minimised) linearised objective Psi.

        The returned array is cached on the instance; treat it as read-only.
        """
        return self._cached("objective_y", self._build_objective_y)

    def _build_objective_y(self) -> np.ndarray:
        coeffs = np.zeros(self.num_items)
        if not self.options.overbooking:
            return coeffs
        for item in self.items:
            coeffs[item.index] = -item.risk_slope
        return coeffs

    def evaluate_objective(self, x: np.ndarray, z: np.ndarray) -> float:
        """Evaluate the original (non-linearised) objective Psi(x, z)."""
        x = np.asarray(x, dtype=float)
        z = np.asarray(z, dtype=float)
        total = 0.0
        for item in self.items:
            if x[item.index] < 0.5:
                continue
            if self.options.overbooking:
                rho = item.xi * deficit_probability_proxy(
                    reservation_mbps=z[item.index],
                    lambda_hat_mbps=item.lambda_hat_mbps,
                    sla_mbps=item.sla_mbps,
                )
                total += item.penalty_rate_per_path * rho - item.reward_per_path
            else:
                total += -item.reward_per_path
        return total

    # ------------------------------------------------------------------ #
    # Constraint blocks
    # ------------------------------------------------------------------ #
    def capacity_block(self) -> _ConstraintBlock:
        """Capacity constraints (2)-(4): one row per CU, link and BS."""
        return self._cached("capacity", self._build_capacity_block)

    def _build_capacity_block(self) -> _ConstraintBlock:
        n = self.num_items
        rows_x: list[int] = []
        cols_x: list[int] = []
        vals_x: list[float] = []
        rows_z: list[int] = []
        cols_z: list[int] = []
        vals_z: list[float] = []
        upper: list[float] = []
        labels: list[str] = []
        row = 0
        for cu in self._compute_unit_names:
            for i in self._items_by_cu[cu]:
                item = self.items[i]
                if item.compute_baseline_cpus:
                    rows_x.append(row)
                    cols_x.append(i)
                    vals_x.append(item.compute_baseline_cpus)
                if item.compute_cpus_per_mbps:
                    rows_z.append(row)
                    cols_z.append(i)
                    vals_z.append(item.compute_cpus_per_mbps)
            upper.append(self._capacities.compute_cpus[cu])
            labels.append(f"compute:{cu}")
            row += 1
        for key in self._link_keys:
            for i in self._items_by_link[key]:
                item = self.items[i]
                rows_z.append(row)
                cols_z.append(i)
                vals_z.append(item.transport_overhead)
            upper.append(self._capacities.transport_mbps[key])
            labels.append(f"transport:{key[0]}--{key[1]}")
            row += 1
        for bs in self._base_station_names:
            for i in self._items_by_bs[bs]:
                item = self.items[i]
                rows_z.append(row)
                cols_z.append(i)
                vals_z.append(item.radio_mhz_per_mbps)
            upper.append(self._capacities.radio_mhz[bs])
            labels.append(f"radio:{bs}")
            row += 1
        num_rows = row
        return _ConstraintBlock(
            a_x=_csr(rows_x, cols_x, vals_x, (num_rows, n)),
            a_z=_csr(rows_z, cols_z, vals_z, (num_rows, n)),
            a_y=_csr([], [], [], (num_rows, n)),
            lower=np.full(num_rows, -np.inf),
            upper=np.asarray(upper, dtype=float),
            labels=labels,
        )

    def deficit_domains(self) -> list[str]:
        """Domain of each capacity row ('compute', 'transport' or 'radio').

        Used to attach the per-domain deficit variables of Section 3.4 to the
        right capacity rows.
        """
        domains: list[str] = []
        domains.extend("compute" for _ in self._compute_unit_names)
        domains.extend("transport" for _ in self._link_keys)
        domains.extend("radio" for _ in self._base_station_names)
        return domains

    def selection_block(self) -> _ConstraintBlock:
        """Path-selection constraints (5), (6) and (13), on x only."""
        return self._cached("selection", self._build_selection_block)

    def _build_selection_block(self) -> _ConstraintBlock:
        n = self.num_items
        rows: list[int] = []
        cols: list[int] = []
        vals: list[float] = []
        lower: list[float] = []
        upper: list[float] = []
        labels: list[str] = []
        row = 0

        # (5) + (13): at most one path per (tenant, BS); exactly one for
        # committed tenants (they must stay admitted).
        for tenant_index, request in enumerate(self.requests):
            for bs in self._base_station_names:
                indices = self._items_by_tenant_bs.get((tenant_index, bs), [])
                if not indices:
                    if request.committed:
                        raise InfeasibleProblemError(
                            f"committed slice {request.name!r} has no admissible path "
                            f"from base station {bs!r}"
                        )
                    continue
                for i in indices:
                    rows.append(row)
                    cols.append(i)
                    vals.append(1.0)
                lower.append(1.0 if request.committed else 0.0)
                upper.append(1.0)
                labels.append(f"select:{request.name}:{bs}")
                row += 1

        # (6): per (tenant, CU), the number of selected paths must be equal at
        # every base station (chain of equalities over consecutive BSs).
        for tenant_index, request in enumerate(self.requests):
            for cu in self._compute_unit_names:
                per_bs = [
                    self._items_by_tenant_cu_bs.get((tenant_index, cu, bs), [])
                    for bs in self._base_station_names
                ]
                for first, second, bs_first, bs_second in zip(
                    per_bs, per_bs[1:], self._base_station_names, self._base_station_names[1:]
                ):
                    if not first and not second:
                        continue
                    for i in first:
                        rows.append(row)
                        cols.append(i)
                        vals.append(1.0)
                    for i in second:
                        rows.append(row)
                        cols.append(i)
                        vals.append(-1.0)
                    lower.append(0.0)
                    upper.append(0.0)
                    labels.append(f"same-cu:{request.name}:{cu}:{bs_first}~{bs_second}")
                    row += 1

        return _ConstraintBlock(
            a_x=_csr(rows, cols, vals, (row, n)),
            a_z=_csr([], [], [], (row, n)),
            a_y=_csr([], [], [], (row, n)),
            lower=np.asarray(lower, dtype=float),
            upper=np.asarray(upper, dtype=float),
            labels=labels,
        )

    def coupling_block(self) -> _ConstraintBlock:
        """Coupling constraints (8)-(12) linking x, z and y."""
        return self._cached("coupling", self._build_coupling_block)

    def _build_coupling_block(self) -> _ConstraintBlock:
        n = self.num_items
        rows_x: list[int] = []
        cols_x: list[int] = []
        vals_x: list[float] = []
        rows_z: list[int] = []
        cols_z: list[int] = []
        vals_z: list[float] = []
        rows_y: list[int] = []
        cols_y: list[int] = []
        vals_y: list[float] = []
        upper: list[float] = []
        labels: list[str] = []
        row = 0

        def add(
            x_coeff: float | None,
            z_coeff: float | None,
            y_coeff: float | None,
            item_index: int,
            ub: float,
            label: str,
        ) -> None:
            nonlocal row
            if x_coeff:
                rows_x.append(row)
                cols_x.append(item_index)
                vals_x.append(x_coeff)
            if z_coeff:
                rows_z.append(row)
                cols_z.append(item_index)
                vals_z.append(z_coeff)
            if y_coeff:
                rows_y.append(row)
                cols_y.append(item_index)
                vals_y.append(y_coeff)
            upper.append(ub)
            labels.append(label)
            row += 1

        for item in self.items:
            i = item.index
            lam = item.sla_mbps
            floor = item.lambda_hat_mbps if self.options.overbooking else item.sla_mbps
            # (8)  z <= Lambda x
            add(-lam, 1.0, None, i, 0.0, f"z-le-sla:{i}")
            # (9)  lambda_hat x <= z   (or Lambda x <= z without overbooking)
            add(floor, -1.0, None, i, 0.0, f"z-ge-floor:{i}")
            # (10) y <= Lambda x
            add(-lam, None, 1.0, i, 0.0, f"y-le-slax:{i}")
            # (11) y <= z
            add(None, -1.0, 1.0, i, 0.0, f"y-le-z:{i}")
            # (12) z + Lambda x - y <= Lambda
            add(lam, 1.0, -1.0, i, lam, f"y-ge-bilinear:{i}")

        num_rows = row
        return _ConstraintBlock(
            a_x=_csr(rows_x, cols_x, vals_x, (num_rows, n)),
            a_z=_csr(rows_z, cols_z, vals_z, (num_rows, n)),
            a_y=_csr(rows_y, cols_y, vals_y, (num_rows, n)),
            lower=np.full(num_rows, -np.inf),
            upper=np.asarray(upper, dtype=float),
            labels=labels,
        )

    # ------------------------------------------------------------------ #
    # Reservation bounds helper
    # ------------------------------------------------------------------ #
    def reservation_bounds(self, accepted: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Lower/upper bounds on z for a *fixed* admission vector.

        Admitted items must reserve between the forecast and the SLA (or
        exactly the SLA without overbooking); rejected items reserve nothing.
        """
        accepted = np.asarray(accepted, dtype=float)
        lower = np.zeros(self.num_items)
        upper = np.zeros(self.num_items)
        for item in self.items:
            if accepted[item.index] > 0.5:
                floor = (
                    item.lambda_hat_mbps if self.options.overbooking else item.sla_mbps
                )
                lower[item.index] = floor
                upper[item.index] = item.sla_mbps
        return lower, upper

    # ------------------------------------------------------------------ #
    # Block structure (multi-cut disaggregation)
    # ------------------------------------------------------------------ #
    def resource_blocks(self) -> list[ResourceBlock]:
        """Per-tenant slave blocks, in tenant order (deterministic).

        Each block owns the tenant's items and records the capacity rows
        they touch; the coupling rows of an item belong to its block by
        construction.  Used by the multi-cut Benders slave
        (:mod:`repro.core.decomposition`) to price blocks independently.
        """
        return self._cached("resource_blocks", self._build_resource_blocks)

    def _build_resource_blocks(self) -> list[ResourceBlock]:
        capacity = self.capacity_block()
        touched = (
            capacity.a_x.astype(bool) + capacity.a_z.astype(bool)
        ).tocsc()
        blocks: list[ResourceBlock] = []
        for tenant in range(self.num_tenants):
            item_indices = tuple(self._items_by_tenant[tenant])
            rows: set[int] = set()
            for i in item_indices:
                start, stop = touched.indptr[i], touched.indptr[i + 1]
                rows.update(int(r) for r in touched.indices[start:stop])
            blocks.append(
                ResourceBlock(
                    index=tenant,
                    tenant_index=tenant,
                    item_indices=item_indices,
                    capacity_rows=tuple(sorted(rows)),
                )
            )
        return blocks


class ProblemStructureCache:
    """Epoch-over-epoch reuse of the :class:`ACRRProblem` skeleton.

    The orchestrator rebuilds the AC-RR problem every decision epoch, but in
    steady state only the forecasts change: the active request set, the path
    set and the options stay put for many consecutive epochs.  This cache
    compares the structural signature of the incoming build request against
    the previously built problem (topology and path set by identity, requests
    and options by value) and, on a hit, clones the skeleton via
    :meth:`ACRRProblem.with_forecasts` instead of re-running path filtering,
    item construction and constraint-block assembly from scratch.
    """

    def __init__(self) -> None:
        self._problem: ACRRProblem | None = None
        self._topology_signature: tuple | None = None
        self.hits = 0
        self.misses = 0

    def build(
        self,
        topology: NetworkTopology,
        path_set: PathSet,
        requests: list[SliceRequest],
        forecasts: dict[str, ForecastInput],
        options: ProblemOptions | None = None,
        topo_signature: tuple | None = None,
    ) -> ACRRProblem:
        """Build (or rebind) the AC-RR problem for one epoch.

        ``topo_signature`` lets the caller pass an already-computed
        :func:`topology_signature` so it is not derived twice per epoch.
        """
        options = options or ProblemOptions()
        signature = _structure_signature(requests, options)
        if topo_signature is None:
            topo_signature = topology_signature(topology)
        cached = self._problem
        if (
            cached is not None
            and cached.topology is topology
            and cached.path_set is path_set
            and self._topology_signature == topo_signature
            and cached.structure_signature() == signature
        ):
            self.hits += 1
            problem = cached.with_forecasts(requests, forecasts)
        else:
            self.misses += 1
            problem = ACRRProblem(
                topology=topology,
                path_set=path_set,
                requests=requests,
                forecasts=forecasts,
                options=options,
            )
        self._problem = problem
        self._topology_signature = topo_signature
        return problem

    def invalidate(self) -> None:
        self._problem = None
        self._topology_signature = None

    def snapshot(self) -> tuple:
        """Capture the cache for epoch-level rollback (problems are never
        mutated once built, so references suffice)."""
        return (self._problem, self._topology_signature, self.hits, self.misses)

    def restore(self, snapshot: tuple) -> None:
        self._problem, self._topology_signature, self.hits, self.misses = snapshot
