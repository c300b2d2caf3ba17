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

Every column of the model is the same fixed stencil, so the instance is held
as a *table of columns* (:class:`_ItemTable`: one row per (tenant, path)
pair, one array per attribute) and every vector and matrix is index
arithmetic on it, assembled column-major in canonical form -- the layout
HiGHS takes (see DESIGN.md, "Incremental solver layer").  The per-item
:class:`ProblemItem` objects survive as a lazily materialised view.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, replace
from functools import cached_property, partial, wraps
from typing import Callable

import numpy as np
from scipy import sparse

from repro.core.forecast_inputs import ForecastInput
from repro.core.lpsolver import canonical_csc, gather_slices
from repro.core.risk import deficit_probability_proxy
from repro.core.slices import SliceRequest
from repro.topology.network import NetworkTopology
from repro.topology.paths import Path, PathSet
from repro.utils.journal import assign


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
        request.name: (
            forecasts.get(request.name) or ForecastInput.pessimistic(request.sla_mbps)
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
    """A block of sparse linear constraints ``lb <= A_x x + A_z z + A_y y <= ub``.

    Held column-major (``x`` / ``z`` / ``y``: canonical CSC, or just the
    ``(rows, cols)`` shape of a part without entries -- what
    :func:`~repro.core.lpsolver.stack_columns` takes); the row-major
    ``a_x`` / ``a_z`` / ``a_y`` and the row labels are derived on first use.
    """

    x: sparse.csc_matrix | tuple[int, int]
    z: sparse.csc_matrix | tuple[int, int]
    y: sparse.csc_matrix | tuple[int, int]
    lower: np.ndarray
    upper: np.ndarray
    make_labels: Callable[[], list[str]]

    @property
    def num_rows(self) -> int:
        return len(self.upper)

    @cached_property
    def a_x(self) -> sparse.csr_matrix:
        return _row_major(self.x)

    @cached_property
    def a_z(self) -> sparse.csr_matrix:
        return _row_major(self.z)

    @cached_property
    def a_y(self) -> sparse.csr_matrix:
        return _row_major(self.y)

    @cached_property
    def labels(self) -> list[str]:
        return self.make_labels()


def _row_major(part: sparse.csc_matrix | tuple[int, int]) -> sparse.csr_matrix:
    return sparse.csr_matrix(part) if isinstance(part, tuple) else part.tocsr()


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


def _capacity_labels(cu_names, link_keys, bs_names) -> list[str]:
    return (
        [f"compute:{cu}" for cu in cu_names]
        + [f"transport:{a}--{b}" for a, b in link_keys]
        + [f"radio:{bs}" for bs in bs_names]
    )


def _selection_labels(names, bs_names, cu_names, present, chained) -> list[str]:
    return [f"select:{names[t]}:{bs_names[b]}" for t, b in np.argwhere(present)] + [
        f"same-cu:{names[t]}:{cu_names[c]}:{bs_names[b]}~{bs_names[b + 1]}"
        for t, c, b in np.argwhere(chained)
    ]


def _coupling_labels(num_items: int) -> list[str]:
    rows = ("z-le-sla", "z-ge-floor", "y-le-slax", "y-le-z", "y-ge-bilinear")
    return [f"{row}:{i}" for i in range(num_items) for row in rows]


def _coupling_columns(num_items: int, offsets: list[int], values) -> sparse.csc_matrix:
    """One part of the coupling block: column ``i`` owns rows ``5i .. 5i + 4``
    (constraints (8)-(12)) and holds ``values`` -- one row for every column,
    or one row per column -- at ``offsets``.  A zero coefficient (a forecast
    of zero in row (9)) is no entry."""
    rows = 5 * np.arange(num_items, dtype=np.int32)[:, np.newaxis] + np.array(offsets, np.int32)
    values = np.broadcast_to(values, rows.shape).ravel()
    indptr = len(offsets) * np.arange(num_items + 1, dtype=np.int32)
    return canonical_csc(indptr, rows.ravel(), values, (5 * num_items, num_items), values != 0)


@dataclass(frozen=True, eq=False)
class _ItemTable:
    """The (tenant, path) columns of one request set, one array per attribute.

    Everything here is fixed by the request set, the options, the path set
    and the topology -- not by the forecasts -- so :meth:`ACRRProblem.
    with_forecasts` clones share one table.  Items are tenant-contiguous:
    tenant ``t`` owns ``tenant_start[t]:tenant_start[t + 1]``.
    """

    #: The path set's flat path tuple; ``path`` indexes it.
    paths: tuple[Path, ...]
    path: np.ndarray
    tenant: np.ndarray
    tenant_start: np.ndarray
    #: Positions in the topology's base-station / compute-unit order.
    base_station: np.ndarray
    compute_unit: np.ndarray
    #: CSR over items: the transport-link rows a column loads, ascending,
    #: and the load per reserved Mb/s (overhead times multiplicity).
    link_indptr: np.ndarray
    link_row: np.ndarray
    link_load: np.ndarray
    sla: np.ndarray
    reward: np.ndarray
    penalty: np.ndarray
    compute_baseline: np.ndarray
    compute_per_mbps: np.ndarray
    radio_mhz_per_mbps: np.ndarray
    transport_overhead: np.ndarray


def _eligible_paths(table, tolerance_ms: float, cap: int | None) -> np.ndarray:
    """Rows of the path table a tenant may use: delay filtering (constraint
    (7)), then at most ``cap`` paths per (BS, CU) pair in rank order."""
    mask = table.delay_ms <= tolerance_ms
    if cap is not None:
        rank = np.cumsum(mask)
        mask &= rank - (rank - mask)[table.pair_start] <= cap
    return np.flatnonzero(mask)


def _build_item_table(
    topology: NetworkTopology,
    path_set: PathSet,
    requests: list[SliceRequest],
    options: ProblemOptions,
) -> _ItemTable:
    table = path_set.table()
    # One delay mask per distinct tolerance, not per request.
    eligible = {
        tolerance: _eligible_paths(table, tolerance, options.max_paths_per_tenant_pair)
        for tolerance in dict.fromkeys(request.latency_tolerance_ms for request in requests)
    }
    chosen = [eligible[request.latency_tolerance_ms] for request in requests]
    path = np.concatenate(chosen)
    if not len(path):
        raise InfeasibleProblemError(
            "no admissible (tenant, path) pair: every candidate path violates "
            "the latency tolerances of every request"
        )
    counts = [len(paths) for paths in chosen]
    tenant = np.repeat(np.arange(len(requests)), counts)

    # Bind the path table's interned names to the (mutable) topology, once
    # per element: a name the topology does not know is a KeyError.
    bs_order = {name: i for i, name in enumerate(topology.base_station_names)}
    cu_order = {name: i for i, name in enumerate(topology.compute_unit_names)}
    link_order = {link.key: i for i, link in enumerate(topology.links)}
    bs_of_path = table.base_station[path]
    radio = np.array(
        [topology.base_station(name).mhz_for_bitrate(1.0) for name in table.base_stations]
    )
    # Link rows per item: gather the paths' link lists, then order each
    # item's rows (the topology, not the path, fixes the row order).
    link_indptr, entry = gather_slices(table.link_indptr, path)
    link_row = np.array([link_order[key] for key in table.link_keys])[table.link[entry]]
    item_of_entry = np.repeat(np.arange(len(path)), np.diff(link_indptr))
    order = np.lexsort((link_row, item_of_entry))
    # A link listed k times by its path is loaded k times: overhead added
    # up k times over, the sum the duplicate COO entries used to produce.
    overhead = table.max_overhead[path]
    repeats = table.link_count[entry][order]
    link_load = overhead[item_of_entry]
    for extra in range(1, int(repeats.max(initial=1))):
        link_load = np.where(repeats > extra, link_load + overhead[item_of_entry], link_load)

    num_bs = max(1, len(bs_order))
    per_tenant = np.array(
        [
            (r.sla_mbps, r.reward / num_bs, r.penalty_rate_per_mbps / num_bs,
             r.compute_baseline_cpus, r.compute_cpus_per_mbps)
            for r in requests
        ],
        dtype=float,
    )
    return _ItemTable(
        table.paths,
        path,
        tenant,
        np.concatenate([[0], np.cumsum(counts)]),
        np.array([bs_order[name] for name in table.base_stations])[bs_of_path],
        np.array([cu_order[name] for name in table.compute_units])[table.compute_unit[path]],
        link_indptr,
        link_row[order],
        link_load,
        *(np.ascontiguousarray(column) for column in per_tenant[tenant].T),
        radio[bs_of_path],
        overhead,
    )


def _memoized(cache_name: str):
    """Build once per cache: ``_structure_cache`` holds what the structure
    alone fixes and is shared by every :meth:`ACRRProblem.with_forecasts`
    clone; ``_forecast_cache`` holds what the forecasts enter."""

    def decorate(build):
        @wraps(build)
        def cached(self):
            cache = getattr(self, cache_name)
            value = cache.get(build.__name__)
            if value is None:
                value = cache[build.__name__] = build(self)
            return value

        return cached

    return decorate


_structural = _memoized("_structure_cache")
_per_forecast = _memoized("_forecast_cache")


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
        self._base_station_names = topology.base_station_names
        self._compute_unit_names = topology.compute_unit_names
        self._link_keys = [link.key for link in topology.links]
        self._capacities = topology.capacities()
        self._table = _build_item_table(topology, path_set, self.requests, self.options)
        #: What only the structure fixes (shared with every
        #: :meth:`with_forecasts` clone) and what the forecasts enter.
        self._structure_cache: dict[str, object] = {}
        self._forecast_cache: dict[str, object] = {}
        self._bind_forecasts(forecasts)

    def _bind_forecasts(self, forecasts: dict[str, ForecastInput]) -> None:
        """Fill the three forecast columns; shared by the cold build and
        :meth:`with_forecasts` so the two can never derive the item risk
        inputs differently."""
        self._forecasts = _normalized_forecasts(self.requests, forecasts)
        per_tenant = [self._forecasts[request.name] for request in self.requests]
        tenant = self._table.tenant
        sigma_hat = np.array([forecast.sigma_hat for forecast in per_tenant])
        # xi = sigma_hat * L, the slice duration L in seasonal cycles (days).
        days = [r.duration_epochs / self.options.epochs_per_day for r in self.requests]
        self._lambda_hat = np.array([f.lambda_hat_mbps for f in per_tenant])[tenant]
        self._sigma_hat = sigma_hat[tenant]
        self._xi = (sigma_hat * days)[tenant]

    # ------------------------------------------------------------------ #
    # Basic accessors
    # ------------------------------------------------------------------ #
    @property
    def num_items(self) -> int:
        return len(self._table.path)

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

    @property
    @_per_forecast
    def items(self) -> list[ProblemItem]:
        """The columns as objects: a view for heuristics and tests,
        materialised on first use.  The solvers read the table."""
        table = self._table
        columns = zip(
            *(
                column.tolist()
                for column in (
                    table.tenant, table.path, table.sla, self._lambda_hat, self._sigma_hat,
                    self._xi, table.reward, table.penalty, table.compute_baseline,
                    table.compute_per_mbps, table.radio_mhz_per_mbps, table.transport_overhead,
                )
            )
        )
        return [
            ProblemItem(index, tenant, self.requests[tenant], table.paths[path], *values)
            for index, (tenant, path, *values) in enumerate(columns)
        ]

    def items_of_tenant(self, tenant_index: int) -> list[ProblemItem]:
        start, stop = self._table.tenant_start[tenant_index : tenant_index + 2]
        return self.items[start:stop]

    def selected(self, x: np.ndarray) -> list[tuple[int, int, Path]]:
        """``(column, tenant index, path)`` of every column ``x`` selects
        (``x > 0.5``), in column order."""
        table = self._table
        chosen = np.flatnonzero(np.asarray(x) > 0.5)
        columns = (chosen.tolist(), table.tenant[chosen].tolist(), table.path[chosen].tolist())
        return [(index, tenant, table.paths[path]) for index, tenant, path in zip(*columns)]

    @property
    def sla_mbps(self) -> np.ndarray:
        """SLA bitrate of every column (read-only)."""
        return self._table.sla

    def reservation_floor(self) -> np.ndarray:
        """Least bitrate an admitted column must reserve (constraint (9)):
        the forecast, or the full SLA without overbooking (read-only)."""
        return self._lambda_hat if self.options.overbooking else self._table.sla

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
    @_structural
    def structure_signature(self) -> tuple:
        """Hashable key of everything that shapes the items and constraint
        sparsity: the request set (names, templates, durations, penalties,
        arrival epochs, committed flags) and the problem options.  Forecasts
        are deliberately excluded -- two problems with equal signatures built
        against the same topology and path set share their skeleton.  The
        tuple is memoized per instance."""
        return _structure_signature(self.requests, self.options)

    @_structural
    def warm_start_signature(self) -> tuple:
        """Like :meth:`structure_signature`, minus the arrival epochs.

        Arrival epochs never enter the MILP matrices -- they only matter for
        release timing -- so two instances that differ *only* in arrivals
        (e.g. a renewed slice) pose byte-identical solver systems.  The
        cross-epoch warm-start layer keys its cut pool on this signature so
        renewals inherit the cuts of their previous life; see
        :func:`repro.core.benders.warm_start_key`.  Memoized per instance.
        """
        return (
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
        the orchestrator) stays current.  The clone shares the item table and
        everything built from it alone (capacity and selection blocks, the
        capacity stencil, resource blocks, signatures); only the three
        forecast columns are rewritten, and what they enter -- the
        objective, the coupling block, the floor footprint --
        rebuilds lazily on the clone, so cached and cold builds yield
        identical matrices.
        """
        expected = [_request_structure_key(r) for r in self.requests]
        provided = [_request_structure_key(r) for r in requests]
        if expected != provided:
            raise ValueError(
                "with_forecasts requires a structurally identical request set"
            )
        # Shallow copy: every structural attribute (topology, path set,
        # capacities, the table, the structure cache, ...) is shared
        # automatically, including any attribute added to __init__ later.
        clone = copy.copy(self)
        clone.requests = list(requests)
        clone._forecast_cache = {}
        clone._bind_forecasts(forecasts)
        return clone

    def per_structure(self, name: str, build: Callable[[], object]):
        """``build()`` once per structure: a solver's own forecast-free
        arrays, shared with every :meth:`with_forecasts` clone like the rest
        of the structure cache.  Arrays only -- what is cached here outlives
        the epoch, so nothing that holds a native solver instance belongs."""
        if name not in self._structure_cache:
            self._structure_cache[name] = build()
        return self._structure_cache[name]

    # ------------------------------------------------------------------ #
    # Objective
    # ------------------------------------------------------------------ #
    def _risk_slope(self) -> np.ndarray:
        """xi * K / (Lambda - lambda_hat) per column."""
        table = self._table
        return self._xi * table.penalty / (table.sla - self._lambda_hat)

    @_per_forecast
    def objective_x(self) -> np.ndarray:
        """Coefficients of x in the (minimised) linearised objective Psi.

        The returned array is cached on the instance; treat it as read-only.
        """
        table = self._table
        if not self.options.overbooking:
            return -table.reward
        return table.sla * self._risk_slope() - table.reward

    @_per_forecast
    def objective_y(self) -> np.ndarray:
        """Coefficients of y in the (minimised) linearised objective Psi.

        The returned array is cached on the instance; treat it as read-only.
        """
        if not self.options.overbooking:
            return np.zeros(self.num_items)
        return -self._risk_slope()

    def evaluate_objective(self, x: np.ndarray, z: np.ndarray) -> float:
        """Evaluate the original (non-linearised) objective Psi(x, z)."""
        x = np.asarray(x, dtype=float)
        z = np.asarray(z, dtype=float)
        table = self._table
        chosen = np.flatnonzero(~(x < 0.5))
        total = 0.0
        # Summed column by column, left to right: the value is compared
        # bit for bit across solvers and epochs.
        for reservation, lambda_hat, sla, xi, penalty, reward in zip(
            *(
                column[chosen].tolist()
                for column in (z, self._lambda_hat, table.sla, self._xi, table.penalty, table.reward)
            )
        ):
            if self.options.overbooking:
                rho = xi * deficit_probability_proxy(
                    reservation_mbps=reservation, lambda_hat_mbps=lambda_hat, sla_mbps=sla
                )
                total += penalty * rho - reward
            else:
                total += -reward
        return total

    # ------------------------------------------------------------------ #
    # Constraint blocks
    # ------------------------------------------------------------------ #
    @_structural
    def _capacity_stencil(self) -> tuple[np.ndarray, ...]:
        """Every capacity entry of every column, column-major, with its x
        and its z coefficient side by side: ``(indptr, rows, a_x, a_z,
        column of each entry)``.  A column's stencil is its CU row (if the
        tenant needs CPU at all), its link rows, its BS row -- ascending by
        construction, since the rows are laid out CUs, links, BSs."""
        table = self._table
        n = self.num_items
        num_cu, num_links = len(self._compute_unit_names), len(self._link_keys)
        has_cu = (table.compute_baseline != 0) | (table.compute_per_mbps != 0)
        hops = np.diff(table.link_indptr)
        indptr = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(has_cu + hops + 1, out=indptr[1:])
        rows = np.empty(indptr[-1], dtype=np.int32)
        a_x = np.zeros(indptr[-1])
        a_z = np.empty(indptr[-1])
        first = indptr[:-1]
        cu_slot = first[has_cu]
        rows[cu_slot] = table.compute_unit[has_cu]
        a_x[cu_slot] = table.compute_baseline[has_cu]
        a_z[cu_slot] = table.compute_per_mbps[has_cu]
        link_slot = np.arange(len(table.link_row)) + np.repeat(
            first + has_cu - table.link_indptr[:-1], hops
        )
        rows[link_slot] = num_cu + table.link_row
        a_z[link_slot] = table.link_load
        bs_slot = indptr[1:] - 1
        rows[bs_slot] = num_cu + num_links + table.base_station
        a_z[bs_slot] = table.radio_mhz_per_mbps
        return indptr, rows, a_x, a_z, np.repeat(np.arange(n), np.diff(indptr))

    @_structural
    def capacity_block(self) -> _ConstraintBlock:
        """Capacity constraints (2)-(4): one row per CU, link and BS."""
        indptr, rows, a_x, a_z, _ = self._capacity_stencil()
        capacities = self._capacities
        upper = np.array(
            [capacities.compute_cpus[cu] for cu in self._compute_unit_names]
            + [capacities.transport_mbps[key] for key in self._link_keys]
            + [capacities.radio_mhz[bs] for bs in self._base_station_names],
            dtype=float,
        )
        shape = (len(upper), self.num_items)
        # Zero compute coefficients are dropped (a tenant with no baseline
        # has no x entry); link and radio entries are kept as they come.
        is_cu = rows < len(self._compute_unit_names)
        return _ConstraintBlock(
            x=canonical_csc(indptr, rows, a_x, shape, a_x != 0),
            z=canonical_csc(indptr, rows, a_z, shape, ~is_cu | (a_z != 0)),
            y=shape,
            lower=np.full(len(upper), -np.inf),
            upper=upper,
            # Not a bound method: the block outlives this instance in the
            # shared structure cache and must not pin its forecast cache.
            make_labels=partial(
                _capacity_labels,
                self._compute_unit_names,
                self._link_keys,
                self._base_station_names,
            ),
        )

    @_per_forecast
    def floor_footprint(self) -> sparse.csc_matrix:
        """``A_x + A_z diag(floor)`` over the capacity rows, column-major:
        what a column loads when admitted at its reservation floor.  Exact
        zeros are dropped.  Cached; treat as read-only."""
        indptr, rows, a_x, a_z, column = self._capacity_stencil()
        load = a_x + a_z * self.reservation_floor()[column]
        shape = (self.capacity_block().num_rows, self.num_items)
        return canonical_csc(indptr, rows, load, shape, load != 0)

    def deficit_domains(self) -> list[str]:
        """Domain of each capacity row ('compute', 'transport' or 'radio').

        Used to attach the per-domain deficit variables of Section 3.4 to the
        right capacity rows.
        """
        return (
            ["compute"] * len(self._compute_unit_names)
            + ["transport"] * len(self._link_keys)
            + ["radio"] * len(self._base_station_names)
        )

    @_structural
    def selection_block(self) -> _ConstraintBlock:
        """Path-selection constraints (5), (6) and (13), on x only."""
        table = self._table
        n = self.num_items
        requests, bs_names, cu_names = (
            self.requests, self._base_station_names, self._compute_unit_names
        )
        tenant, bs, cu = table.tenant, table.base_station, table.compute_unit

        # (5) + (13): at most one path per (tenant, BS) that has any; exactly
        # one for committed tenants (they must stay admitted).
        present = np.zeros((len(requests), len(bs_names)), dtype=bool)
        present[tenant, bs] = True
        committed = np.array([request.committed for request in requests])
        stranded = np.argwhere(committed[:, np.newaxis] & ~present)
        if len(stranded):
            raise InfeasibleProblemError(
                f"committed slice {requests[stranded[0][0]].name!r} has no admissible "
                f"path from base station {bs_names[stranded[0][1]]!r}"
            )
        select_row = np.cumsum(present.ravel()).reshape(present.shape) - 1
        num_select = int(present.sum())

        # (6): per (tenant, CU), the number of selected paths must be equal at
        # every base station: one equality per consecutive BS pair either
        # side of which the tenant has a path to that CU.
        anchored = np.zeros((len(requests), len(cu_names), len(bs_names)), dtype=bool)
        anchored[tenant, cu, bs] = True
        chained = anchored[:, :, :-1] | anchored[:, :, 1:]
        chain_row = num_select + np.cumsum(chained.ravel()).reshape(chained.shape) - 1
        num_rows = num_select + int(chained.sum())

        # Column stencil: +1 in its (tenant, BS) row, -1 in the chain row to
        # the previous BS, +1 in the chain row to the next -- ascending.
        has_previous, has_next = bs > 0, bs < len(bs_names) - 1
        indptr = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(1 + has_previous + has_next, out=indptr[1:])
        rows = np.empty(indptr[-1], dtype=np.int32)
        data = np.ones(indptr[-1])
        first = indptr[:-1]
        rows[first] = select_row[tenant, bs]
        slot = first[has_previous] + 1
        rows[slot] = chain_row[tenant[has_previous], cu[has_previous], bs[has_previous] - 1]
        data[slot] = -1.0
        rows[indptr[1:][has_next] - 1] = chain_row[tenant[has_next], cu[has_next], bs[has_next]]

        lower = np.zeros(num_rows)
        lower[:num_select] = np.repeat(committed, present.sum(axis=1))
        upper = np.zeros(num_rows)
        upper[:num_select] = 1.0

        return _ConstraintBlock(
            x=canonical_csc(indptr, rows, data, (num_rows, n)),
            z=(num_rows, n),
            y=(num_rows, n),
            lower=lower,
            upper=upper,
            make_labels=partial(
                _selection_labels,
                [request.name for request in requests],
                bs_names,
                cu_names,
                present,
                chained,
            ),
        )

    @_structural
    def _coupling_frame(self) -> dict[str, object]:
        """The coupling block minus its x part: no forecast enters it."""
        n = self.num_items
        upper = np.zeros(5 * n)
        upper[4::5] = self._table.sla
        return dict(
            z=_coupling_columns(n, [0, 1, 3, 4], [1.0, -1.0, -1.0, 1.0]),
            y=_coupling_columns(n, [2, 3, 4], [1.0, 1.0, -1.0]),
            lower=np.full(5 * n, -np.inf),
            upper=upper,
            make_labels=partial(_coupling_labels, n),
        )

    @_per_forecast
    def coupling_block(self) -> _ConstraintBlock:
        """Coupling constraints (8)-(12) linking x, z and y."""
        sla = self._table.sla
        return _ConstraintBlock(
            # (8) z <= Lambda x, (9) floor x <= z, (10) y <= Lambda x,
            # (11) y <= z, (12) z + Lambda x - y <= Lambda.
            x=_coupling_columns(
                self.num_items,
                [0, 1, 2, 4],
                np.column_stack([-sla, self.reservation_floor(), -sla, sla]),
            ),
            **self._coupling_frame(),
        )

    # ------------------------------------------------------------------ #
    # Block structure (multi-cut disaggregation)
    # ------------------------------------------------------------------ #
    @_structural
    def resource_blocks(self) -> list[ResourceBlock]:
        """Per-tenant slave blocks, in tenant order (deterministic).

        Each block owns the tenant's items and records the capacity rows
        they touch; the coupling rows of an item belong to its block by
        construction.  Used by the multi-cut Benders slave
        (:mod:`repro.core.decomposition`) to price blocks independently.
        """
        _, rows, _, _, column = self._capacity_stencil()
        touched = np.zeros((self.num_tenants, self.capacity_block().num_rows), dtype=bool)
        touched[self._table.tenant[column], rows] = True
        starts = self._table.tenant_start.tolist()
        return [
            ResourceBlock(
                index=tenant,
                tenant_index=tenant,
                item_indices=tuple(range(starts[tenant], starts[tenant + 1])),
                capacity_rows=tuple(np.flatnonzero(touched[tenant]).tolist()),
            )
            for tenant in range(self.num_tenants)
        ]


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

    JOURNALED = ("_problem", "_topology_signature", "hits", "misses")

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
            assign(self, "hits", self.hits + 1)
            problem = cached.with_forecasts(requests, forecasts)
        else:
            assign(self, "misses", self.misses + 1)
            problem = ACRRProblem(
                topology=topology,
                path_set=path_set,
                requests=requests,
                forecasts=forecasts,
                options=options,
            )
        assign(self, "_problem", problem)
        assign(self, "_topology_signature", topo_signature)
        return problem
