"""The loop-built model assembly, kept verbatim as the oracle.

Until the item table (``repro.core.problem._ItemTable``) replaced them,
these loops *were* the model: one ``ProblemItem`` per column, dict-of-list
indexes, COO triples appended entry by entry, ``hstack`` / ``vstack`` /
row gathers on top.  They are the abstract model the array assembly must
simulate byte for byte: every matrix below is compared with ``np.array_equal``
on ``indptr`` / ``indices`` / ``data``, never with ``allclose``.

Only ``self`` became ``problem`` / ``model``; the arithmetic, the iteration
order and the scipy calls are the retired source's.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
from scipy import optimize, sparse

from repro.core.problem import ACRRProblem, InfeasibleProblemError
from repro.utils.journal import put


def _risk_slope(item) -> float:
    """xi * K / (Lambda - lambda_hat): marginal risk per Mb/s of under-provisioning."""
    return item.xi * item.penalty_rate_per_path / (item.sla_mbps - item.lambda_hat_mbps)


@dataclass
class OracleBlock:
    a_x: sparse.csr_matrix
    a_z: sparse.csr_matrix
    a_y: sparse.csr_matrix
    lower: np.ndarray
    upper: np.ndarray
    labels: list[str] = field(default_factory=list)

    @property
    def num_rows(self) -> int:
        return self.a_x.shape[0]


def _csr(rows, cols, values, shape) -> sparse.csr_matrix:
    return sparse.csr_matrix(
        (np.asarray(values, dtype=float), (np.asarray(rows, dtype=int), np.asarray(cols, dtype=int))),
        shape=shape,
    )


class LoopBuiltProblem:
    """``ACRRProblem``'s retired builders over ``problem.items``."""

    def __init__(self, problem: ACRRProblem):
        self.problem = problem
        self.requests = problem.requests
        self.options = problem.options
        self.items = problem.items
        self.num_items = len(self.items)
        self.num_tenants = len(self.requests)
        self._base_station_names = problem.topology.base_station_names
        self._compute_unit_names = problem.topology.compute_unit_names
        self._link_keys = [link.key for link in problem.topology.links]
        self._capacities = problem.topology.capacities()
        self._index_items()

    def _index_items(self) -> None:
        self._items_by_cu = {cu: [] for cu in self._compute_unit_names}
        self._items_by_bs = {bs: [] for bs in self._base_station_names}
        self._items_by_link = {key: [] for key in self._link_keys}
        self._items_by_tenant_bs = {}
        self._items_by_tenant_cu_bs = {}
        self._items_by_tenant = {t: [] for t in range(len(self.requests))}
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

    # -- objective ------------------------------------------------------- #
    def objective_x(self) -> np.ndarray:
        coeffs = np.zeros(self.num_items)
        for item in self.items:
            if self.options.overbooking:
                coeffs[item.index] = (
                    item.sla_mbps * _risk_slope(item) - item.reward_per_path
                )
            else:
                coeffs[item.index] = -item.reward_per_path
        return coeffs

    def objective_y(self) -> np.ndarray:
        coeffs = np.zeros(self.num_items)
        if not self.options.overbooking:
            return coeffs
        for item in self.items:
            coeffs[item.index] = -_risk_slope(item)
        return coeffs

    # -- constraint blocks ----------------------------------------------- #
    def capacity_block(self) -> OracleBlock:
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
        return OracleBlock(
            a_x=_csr(rows_x, cols_x, vals_x, (num_rows, n)),
            a_z=_csr(rows_z, cols_z, vals_z, (num_rows, n)),
            a_y=_csr([], [], [], (num_rows, n)),
            lower=np.full(num_rows, -np.inf),
            upper=np.asarray(upper, dtype=float),
            labels=labels,
        )

    def selection_block(self) -> OracleBlock:
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

        return OracleBlock(
            a_x=_csr(rows, cols, vals, (row, n)),
            a_z=_csr([], [], [], (row, n)),
            a_y=_csr([], [], [], (row, n)),
            lower=np.asarray(lower, dtype=float),
            upper=np.asarray(upper, dtype=float),
            labels=labels,
        )

    def coupling_block(self) -> OracleBlock:
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

        def add(x_coeff, z_coeff, y_coeff, item_index, ub, label) -> None:
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
        return OracleBlock(
            a_x=_csr(rows_x, cols_x, vals_x, (num_rows, n)),
            a_z=_csr(rows_z, cols_z, vals_z, (num_rows, n)),
            a_y=_csr(rows_y, cols_y, vals_y, (num_rows, n)),
            lower=np.full(num_rows, -np.inf),
            upper=np.asarray(upper, dtype=float),
            labels=labels,
        )

    def resource_blocks(self) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
        """``(item_indices, capacity_rows)`` per tenant."""
        capacity = self.capacity_block()
        touched = (
            capacity.a_x.astype(bool) + capacity.a_z.astype(bool)
        ).tocsc()
        blocks = []
        for tenant in range(self.num_tenants):
            item_indices = tuple(self._items_by_tenant[tenant])
            rows: set[int] = set()
            for i in item_indices:
                start, stop = touched.indptr[i], touched.indptr[i + 1]
                rows.update(int(r) for r in touched.indices[start:stop])
            blocks.append((item_indices, tuple(sorted(rows))))
        return blocks


class LoopBuiltSlave:
    """``SlaveProblem.__init__`` and ``_build_block_stack`` as they were."""

    def __init__(self, problem: ACRRProblem):
        model = LoopBuiltProblem(problem)
        self.model = model
        n = model.num_items
        self.num_items = n

        capacity = model.capacity_block()
        coupling = model.coupling_block()

        # Constraint matrix over u = [y, z].
        g_capacity = sparse.hstack([capacity.a_y, capacity.a_z], format="csr")
        g_coupling = sparse.hstack([coupling.a_y, coupling.a_z], format="csr")
        self.g_matrix = sparse.vstack([g_capacity, g_coupling], format="csr")
        # Right-hand side h(x) = h0 + H x.
        self.h0 = np.concatenate([capacity.upper, coupling.upper])
        self.h_matrix = sparse.vstack([-capacity.a_x, -coupling.a_x], format="csr")
        self.row_labels = list(capacity.labels) + list(coupling.labels)
        self.num_capacity_rows = capacity.num_rows

        # Slave objective: only the y-part of Psi is decided by the slave.
        self.d = np.concatenate([model.objective_y(), np.zeros(n)])
        self.u_lower = np.zeros(2 * n)
        self.u_upper = np.full(2 * n, np.inf)
        self._build_block_stack()

    def _build_block_stack(self) -> None:
        n = self.num_items
        resource_blocks = self.model.resource_blocks()
        coupling_offsets = np.arange(5)
        sla = np.array([item.sla_mbps for item in self.model.items], dtype=float)
        theta_floor = np.minimum(self.model.objective_y() * sla, 0.0)
        row_parts: list[np.ndarray] = []
        col_parts: list[np.ndarray] = []
        theta_lowers: list[float] = []
        for item_indices, capacity_rows in resource_blocks:
            items = np.asarray(item_indices, dtype=np.intp)
            theta_lowers.append(float(np.sum(theta_floor[items])))
            coupling_rows = self.num_capacity_rows + (
                5 * items[:, np.newaxis] + coupling_offsets
            ).ravel()
            row_parts.append(
                np.concatenate([np.asarray(capacity_rows, dtype=np.intp), coupling_rows])
            )
            col_parts.append(np.concatenate([items, n + items]))
        row_counts = [len(part) for part in row_parts]
        col_counts = [len(part) for part in col_parts]
        self.row_offsets = np.cumsum([0, *row_counts]).tolist()
        self.col_offsets = np.cumsum([0, *col_counts]).tolist()
        rows = np.concatenate(row_parts)
        cols = np.concatenate(col_parts)
        block_ids = np.arange(len(resource_blocks))

        col_block = np.full(2 * n, -1, dtype=np.intp)
        col_block[cols] = np.repeat(block_ids, col_counts)
        col_position = np.zeros(2 * n, dtype=np.intp)
        col_position[cols] = np.arange(len(cols))

        gathered = self.g_matrix[rows]
        entry_row = np.repeat(np.arange(len(rows)), np.diff(gathered.indptr))
        keep = col_block[gathered.indices] == np.repeat(block_ids, row_counts)[entry_row]
        indptr = np.zeros(len(rows) + 1, dtype=gathered.indptr.dtype)
        np.cumsum(np.bincount(entry_row[keep], minlength=len(rows)), out=indptr[1:])
        self.stack_g = sparse.csr_matrix(
            (
                gathered.data[keep],
                col_position[gathered.indices[keep]].astype(gathered.indices.dtype),
                indptr,
            ),
            shape=(len(rows), len(cols)),
        )
        self.theta_lowers = theta_lowers
        self.stack_h = self.h_matrix[rows]
        self.stack_d = self.d[cols]
        self.stack_h0 = self.h0[rows]
        self.stack_u_bound = np.concatenate([sla, sla])[cols]


class LoopBuiltMaster:
    """``_MasterState.__init__`` as it was: objective, bounds, static rows."""

    def __init__(self, problem: ACRRProblem, cost_x: np.ndarray, theta_lowers):
        model = LoopBuiltProblem(problem)
        n = model.num_items
        theta_lowers = np.asarray(theta_lowers, dtype=float)
        num_thetas = len(theta_lowers)
        self.cost = np.concatenate([cost_x, np.ones(num_thetas)])
        self.lower = np.concatenate([np.zeros(n), theta_lowers])
        self.upper = np.concatenate([np.ones(n), np.full(num_thetas, np.inf)])
        self.integrality = np.concatenate([np.ones(n), np.zeros(num_thetas)])

        selection = model.selection_block()
        selection_rows = []
        if selection.num_rows:
            sel_matrix = sparse.hstack(
                [selection.a_x, sparse.csr_matrix((selection.num_rows, num_thetas))],
                format="csr",
            )
            selection_rows.append(
                optimize.LinearConstraint(sel_matrix, selection.lower, selection.upper)
            )

        capacity = model.capacity_block()
        floor = np.array(
            [
                item.lambda_hat_mbps if problem.options.overbooking else item.sla_mbps
                for item in model.items
            ]
        )
        footprint = capacity.a_x + capacity.a_z.multiply(floor[np.newaxis, :])
        capacity_surrogate = optimize.LinearConstraint(
            sparse.hstack(
                [footprint, sparse.csr_matrix((capacity.num_rows, num_thetas))],
                format="csr",
            ),
            capacity.lower,
            capacity.upper,
        )
        blocks = [capacity_surrogate, *selection_rows]
        self.static_matrix = sparse.vstack(
            [sparse.csr_matrix(block.A) for block in blocks], format="csr"
        ) if len(blocks) > 1 else sparse.csr_matrix(blocks[0].A)
        self.static_lower = np.concatenate([np.asarray(block.lb, dtype=float) for block in blocks])
        self.static_upper = np.concatenate([np.asarray(block.ub, dtype=float) for block in blocks])


def direct_milp_model(problem: ACRRProblem):
    """``DirectMILPSolver.solve``'s model as it was: ``(cost, matrix, row
    lower, row upper, column lower, column upper, integrality)``."""
    model = LoopBuiltProblem(problem)
    n = model.num_items
    use_deficit = problem.options.allow_deficit
    deficit_domains = ("radio", "transport", "compute")
    num_deficit = len(deficit_domains) if use_deficit else 0
    cost = np.concatenate(
        [
            model.objective_x(),
            np.zeros(n),
            model.objective_y(),
            np.full(num_deficit, problem.options.deficit_cost),
        ]
    )
    blocks = []
    capacity = model.capacity_block()
    cap_matrix = sparse.hstack([capacity.a_x, capacity.a_z, capacity.a_y], format="csr")
    if use_deficit:
        rows = list(range(capacity.num_rows))
        cols = [deficit_domains.index(domain) for domain in problem.deficit_domains()]
        deficit_columns = sparse.csr_matrix(
            ([1.0] * len(rows), (rows, cols)), shape=(len(rows), len(deficit_domains))
        )
        cap_matrix = sparse.hstack([cap_matrix, -deficit_columns], format="csr")
    blocks.append((cap_matrix, capacity.lower, capacity.upper))
    selection = model.selection_block()
    if selection.num_rows:
        sel_matrix = sparse.hstack(
            [selection.a_x, sparse.csr_matrix((selection.num_rows, 2 * n + num_deficit))],
            format="csr",
        )
        blocks.append((sel_matrix, selection.lower, selection.upper))
    coupling = model.coupling_block()
    coup_matrix = sparse.hstack([coupling.a_x, coupling.a_z, coupling.a_y], format="csr")
    if use_deficit:
        coup_matrix = sparse.hstack(
            [coup_matrix, sparse.csr_matrix((coupling.num_rows, num_deficit))], format="csr"
        )
    blocks.append((coup_matrix, coupling.lower, coupling.upper))
    sla = np.array([item.sla_mbps for item in model.items])
    return (
        cost,
        sparse.vstack([block[0] for block in blocks], format="csr"),
        np.concatenate([block[1] for block in blocks]),
        np.concatenate([block[2] for block in blocks]),
        np.zeros(3 * n + num_deficit),
        np.concatenate([np.ones(n), sla, sla, np.full(num_deficit, np.inf)]),
        np.concatenate([np.ones(n), np.zeros(2 * n + num_deficit)]),
    )


def same_sparse(got, want) -> bool:
    """Same shape and the same canonical arrays, in ``want``'s layout."""
    got = got.asformat(want.format)
    return (
        got.shape == want.shape
        and np.array_equal(got.indptr, want.indptr)
        and np.array_equal(got.indices, want.indices)
        and np.array_equal(got.data, want.data)
    )


# --------------------------------------------------------------------- #
# The retired assembly, wired into today's Benders loop
# --------------------------------------------------------------------- #
# Everything below exists so a whole solve can be run twice -- once as
# shipped, once with every matrix built and folded the retired way -- and
# the models HiGHS is handed compared one by one (the HiGHS-input shadow in
# ``tests/core/test_lpsolver_backend.py``).
from repro.core.benders import CutPool, _MasterState  # noqa: E402
from repro.core.decomposition import BlockStack, SlaveBlock, SlaveProblem  # noqa: E402


class OracleSlave(SlaveProblem):
    """A slave whose every array is the loop-built one, handed to the LP
    layer row-major as it used to be (``CompiledLP`` converts it)."""

    def __init__(self, problem: ACRRProblem):
        super().__init__(problem)
        built = LoopBuiltSlave(problem)
        self.g_matrix = built.g_matrix  # shadows the derived property
        self.g_columns = sparse.csc_matrix(built.g_matrix)
        self.h_matrix = built.h_matrix
        self.h_transposed = built.h_matrix.T
        self.h0, self.d = built.h0, built.d
        blocks = [
            SlaveBlock(
                index=index,
                tenant_index=index,
                item_indices=tuple(item_indices),
                rows=slice(built.row_offsets[index], built.row_offsets[index + 1]),
                cols=slice(built.col_offsets[index], built.col_offsets[index + 1]),
                theta_lower=built.theta_lowers[index],
            )
            for index, (item_indices, _) in enumerate(built.model.resource_blocks())
        ]
        stack = BlockStack(
            blocks=blocks,
            d=built.stack_d,
            g_columns=sparse.csc_matrix(built.stack_g),
            h0=built.stack_h0,
            h_matrix=built.stack_h,
            h_transposed=built.stack_h.T,
            u_lower=np.zeros(len(built.stack_d)),
            u_upper=np.full(len(built.stack_d), np.inf),
            u_bound=built.stack_u_bound,
        )
        stack.__dict__["g_matrix"] = built.stack_g
        self._block_stack = stack

    def cuts_from_block_multipliers(self, pairs):
        # One product per block, as ``cut_from_block_multipliers`` ran.
        stack = self.block_stack()
        cuts = []
        for block, mu in pairs:
            mu = np.asarray(mu, dtype=float)
            padded = np.zeros(len(stack.h0))
            padded[block.rows] = mu
            coeff = stack.h_transposed.dot(padded)
            cuts.append((coeff, -float(np.dot(stack.h0[block.rows], mu))))
        return cuts

    def cut_from_multipliers(self, mu):
        mu = np.asarray(mu, dtype=float)
        coeff = np.asarray(self.h_matrix.T.dot(mu)).ravel()
        return coeff, -float(np.dot(self.h0, mu))


class OracleMaster(_MasterState):
    """A master that stacks its static rows row-major and folds its cuts
    through CSR, as it did: ``rows()`` is the static block with the cut
    block stacked under it row-major, converted inside ``solve_milp``."""

    def __init__(self, problem: ACRRProblem, cost_x: np.ndarray, theta_lowers):
        super().__init__(problem, cost_x, theta_lowers)
        built = LoopBuiltMaster(problem, cost_x, theta_lowers)
        for vector in ("cost", "lower", "upper", "integrality"):
            assert np.array_equal(getattr(self, vector), getattr(built, vector))
        self.static = (built.static_matrix, built.static_lower, built.static_upper)
        self._cut_matrix = None
        self._folded = 0

    def csr_cut_rows(self):
        if self._folded < len(self._cut_rows):
            folded = sparse.csr_matrix(np.vstack(self._cut_rows[self._folded :]))
            if self._cut_matrix is not None:
                folded = sparse.vstack([self._cut_matrix, folded], format="csr")
            self._cut_matrix = folded
            self._folded = len(self._cut_rows)
        return self._cut_matrix, np.asarray(self._cut_rhs)

    def rows(self):
        cut_matrix, cut_rhs = self.csr_cut_rows()
        if cut_matrix is None:
            return self.static
        static_matrix, static_lower, static_upper = self.static
        return (
            sparse.vstack([static_matrix, cut_matrix], format="csr"),
            np.concatenate([static_lower, cut_rhs]),
            np.concatenate([static_upper, np.full(len(cut_rhs), np.inf)]),
        )


def oracle_lift_previous(master: OracleMaster, previous_x: np.ndarray):
    """``BendersSolver._lift_previous`` as it was (sparse cut rows, ``todense``)."""
    n = master.num_items
    thetas = master.theta_lowers.copy()
    cut_matrix, cut_rhs = master.csr_cut_rows()
    if cut_matrix is not None:
        base = np.asarray(cut_matrix[:, :n].dot(previous_x)).ravel()
        theta_coeff = np.asarray(cut_matrix[:, n:].todense())
        needed = cut_rhs - base
        for row in range(cut_matrix.shape[0]):
            support = np.flatnonzero(theta_coeff[row] > 0.5)
            if not len(support):
                continue
            shortfall = needed[row] - float(np.sum(thetas[support]))
            if shortfall > 0.0:
                thetas[support[0]] += shortfall
    return np.concatenate([previous_x, thetas])


def oracle_seed_master(self: CutPool, key, master, slave):
    """``CutPool.seed_master`` as it was: per-system sparse slices, one
    batch of products per aggregate system and per block."""
    entry = self.entry(key)
    if entry is None:
        return 0, None
    num_rows = slave.g_matrix.shape[0]
    if entry.num_rows != num_rows or not entry.multipliers:
        if entry.num_rows == num_rows:
            return 0, entry.best_x
        return 0, None

    sla = np.array([item.sla_mbps for item in slave.problem.items])
    u_bound = np.concatenate([sla, sla])

    blocks = stack = None
    if any(block_id is not None for _, block_id in entry.multipliers):
        candidate = slave.block_stack()
        if master.num_thetas == len(candidate.blocks):
            blocks, stack = candidate.blocks, candidate

    groups: dict = {}
    for position, (_, block_id) in enumerate(entry.multipliers):
        groups.setdefault(block_id, []).append(position)

    prepared: dict = {}
    for block_id, positions in groups.items():
        if block_id is None:
            system_d, system_g = slave.d, slave.g_matrix
            system_h, system_h0, bound = slave.h_matrix, slave.h0, u_bound
            expected_rows = num_rows
        elif blocks is not None and 0 <= block_id < len(blocks):
            rows, cols = blocks[block_id].rows, blocks[block_id].cols
            system_d, system_g = stack.d[cols], stack.g_matrix[rows, cols]
            system_h, system_h0 = stack.h_matrix[rows], stack.h0[rows]
            bound = stack.u_bound[cols]
            expected_rows = blocks[block_id].num_rows
        else:
            for position in positions:
                prepared[position] = None
            continue
        usable = [p for p in positions if len(entry.multipliers[p][0]) == expected_rows]
        for position in set(positions) - set(usable):
            prepared[position] = None
        if not usable:
            continue
        mu_matrix = np.stack([entry.multipliers[p][0] for p in usable])
        gt_mu = np.asarray((system_g.T.dot(mu_matrix.T)).T)
        coeffs = np.asarray((system_h.T.dot(mu_matrix.T)).T)
        rhs = -mu_matrix.dot(system_h0)
        for row, position in enumerate(usable):
            violation = np.maximum(0.0, -(gt_mu[row] + system_d))
            repair = float(np.dot(violation, bound))
            prepared[position] = (coeffs[row], float(rhs[row]) - repair, repair)

    seeded = []  # the one thing added since: which multiplier is which row
    for position, (_, block_id) in enumerate(entry.multipliers):
        ready = prepared.get(position)
        if ready is None:
            self.dropped_total += 1
            continue
        coeff, rhs_value, repair = ready
        cut_scale = max(1.0, abs(rhs_value + repair), float(np.max(np.abs(coeff))))
        if repair > self.max_relative_slack * cut_scale:
            self.dropped_total += 1
            continue
        master.add_cut(coeff, rhs_value, block_id)
        seeded.append(position)
    # ... kept on the pool's entry, which is replaced, not edited.
    put(self._entries, key, replace(entry, seeded=tuple(seeded)))
    self.seeded_total += len(seeded)
    return len(seeded), entry.best_x


def retire_the_array_assembly(monkeypatch) -> None:
    """Make ``BendersSolver`` and ``DirectMILPSolver`` build and fold their
    models the retired way for the rest of the test."""
    monkeypatch.setattr("repro.core.benders.SlaveProblem", OracleSlave)
    monkeypatch.setattr("repro.core.benders._MasterState", OracleMaster)
    monkeypatch.setattr("repro.core.benders.CutPool.seed_master", oracle_seed_master)
    monkeypatch.setattr(
        "repro.core.benders.BendersSolver._lift_previous", staticmethod(oracle_lift_previous)
    )
