"""The one place that drives the HiGHS LP/MILP solver.

The paper solves its optimisation problems with IBM CPLEX; we substitute the
open-source HiGHS solver (see DESIGN.md, "Solver substitution").  HiGHS is
driven directly through the highspy bindings SciPy vendors for its own
:func:`scipy.optimize.linprog` / :func:`scipy.optimize.milp`, with the options
those wrappers set, so the algorithm HiGHS runs -- hence every vertex, every
multiplier and every incumbent -- is the one the wrappers returned; what is
gone is their per-call input cleaning, option checking and result assembly,
which cost more than the optimisation on the small LPs of a Benders round.
This module centralises the calls so the rest of the code never touches
solver-specific details, and adds the two pieces CPLEX gives for free that
HiGHS does not:

* dual values (Lagrange multipliers) of inequality constraints, needed for
  Benders optimality cuts, and
* Farkas-style infeasibility certificates, obtained from a phase-1 LP, needed
  for the KAC heuristic (Benders takes optimality cuts only: its master's
  capacity surrogate keeps every candidate slave-feasible).

The native HiGHS instance is per thread and never hangs off an object
(:func:`_instance`): every solve passes its options and its model into the
calling thread's instance, so a :class:`CompiledLP` (and the
:class:`Phase1Problem` built on it) is plain arrays that pickle, and the
instance is rebuilt in a forked child.  ``passOptions`` and ``passModel``
replace everything a run reads -- every option, the model, basis and
solution -- so a reused instance runs the cold solve a fresh one runs.  The
one state a solve may carry into another is explicit: a :class:`Basis` it
handed out, passed back in by the caller to hot-start an LP of the same
shape.

HiGHS takes its constraint matrix column-major, so that is the layout the
model builders assemble in (:func:`stack_columns`): a ``csc_matrix`` in
*canonical* form -- rows ascending within each column, no duplicates -- is
handed to HiGHS as it is, array for array.  Canonical form is unique, which
is what makes "the solver sees the same model" checkable by comparing bytes.
"""

from __future__ import annotations

import copy
import functools
import os
import threading
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
import scipy
from scipy import sparse

try:
    # The single import site of the private bindings (see DESIGN.md).
    from scipy.optimize._highspy import _core as _highs

    _Highs, _HighsOptions = _highs._Highs, _highs.HighsOptions
except (ImportError, AttributeError) as error:
    raise ImportError(
        "repro.core.lpsolver drives HiGHS through the highspy bindings that "
        "scipy >= 1.15 vendors as scipy.optimize._highspy._core (tested "
        f"through scipy 1.17); scipy {scipy.__version__} does not provide them"
    ) from error


def backend_version() -> str:
    """The SciPy release and the HiGHS build bound underneath it.

    CI prints this before the suite: results are pinned bit for bit, so a
    golden drift after an image bump is attributable to one of the two.
    """
    highs = _instance()
    return f"scipy {scipy.__version__} | HiGHS {highs.version()} ({highs.githash()})"


#: ``HighsBasisStatus`` by its integer code.
_BASIS_STATUS = tuple(sorted(_highs.HighsBasisStatus.__members__.values(), key=int))


class Basis:
    """The simplex basis of a solved LP, to hot-start a later LP of the
    same shape from (HiGHS refuses one of another shape: that run is cold).

    Held as the native ``HighsBasis``: HiGHS hands it out and takes it back
    in about a microsecond, while reading its statuses crosses the binding
    as one enum object per row and column (~0.4 ms for a slave LP).  The
    statuses are read only to pickle (:meth:`__reduce__`) and to
    fingerprint (:meth:`statuses`).  Never mutated once built.
    """

    __slots__ = ("native",)

    def __init__(self, native: "_highs.HighsBasis"):
        self.native = native

    def statuses(self) -> tuple[np.ndarray, np.ndarray]:
        """The column and row statuses as ``int8`` ``HighsBasisStatus`` codes."""
        return _status_codes(self.native.col_status), _status_codes(self.native.row_status)

    def __reduce__(self):
        return _revived_basis, self.statuses()


def _status_codes(statuses: list) -> np.ndarray:
    return np.fromiter(map(int, statuses), np.int8, len(statuses))


def _revived_basis(cols: np.ndarray, rows: np.ndarray) -> Basis:
    """The :class:`Basis` whose :meth:`Basis.statuses` are ``(cols, rows)``:
    a valid basis of HiGHS's own making, as :meth:`Basis.__reduce__` took it."""
    native = _highs.HighsBasis()
    native.valid, native.alien, native.was_alien = True, False, False
    native.col_status = [_BASIS_STATUS[code] for code in cols.tolist()]
    native.row_status = [_BASIS_STATUS[code] for code in rows.tolist()]
    return Basis(native)


@dataclass(frozen=True)
class LPSolution:
    """Result of a continuous LP solve."""

    success: bool
    status: str
    objective: float
    primal: np.ndarray
    duals_upper: np.ndarray
    infeasible: bool
    #: The optimal basis, to hot-start the next solve of this LP from.
    basis: Basis | None = field(default=None, compare=False)


@dataclass(frozen=True)
class MILPSolution:
    """Result of a mixed-integer solve."""

    success: bool
    status: str
    objective: float
    values: np.ndarray
    mip_gap: float
    #: HiGHS proved the model infeasible -- not a limit, not an error.
    infeasible: bool


# --------------------------------------------------------------------- #
# Column-major assembly
# --------------------------------------------------------------------- #
def canonical_csc(
    indptr: np.ndarray,
    indices: np.ndarray,
    data: np.ndarray,
    shape: tuple[int, int],
    keep: np.ndarray | None = None,
) -> sparse.csc_matrix:
    """Wrap a column-major triple the caller built in canonical form.

    The promise -- rows ascending within each column, no duplicates -- is
    recorded on the matrix, not re-checked: every consumer down to HiGHS
    takes the arrays as they are.  ``keep`` (one flag per entry) drops the
    entries it does not select, e.g. exact zeros of a scaled stencil.
    """
    if keep is not None and not keep.all():
        kept_before = np.zeros(len(keep) + 1, dtype=np.int32)
        np.cumsum(keep, out=kept_before[1:])
        indptr, indices, data = kept_before[indptr], indices[keep], data[keep]
    matrix = sparse.csc_matrix((data, indices, indptr), shape=shape)
    matrix.has_canonical_format = True
    return matrix


def with_data(template: sparse.spmatrix, data: np.ndarray) -> sparse.spmatrix:
    """``template``'s layout holding ``data``: a shallow copy of the matrix
    object.  The layout was checked when ``template`` was built and is
    shared with it, as a matrix built from the same arrays would share it;
    it is not checked again."""
    matrix = copy.copy(template)
    matrix.data = data
    return matrix


def gather_slices(indptr: np.ndarray, which: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bookkeeping of taking the major slices ``which`` (columns of a CSC,
    rows of a CSR layout) in that order: the new ``indptr`` and, for every
    entry taken, its position in the source arrays."""
    counts = (indptr[1:] - indptr[:-1])[which]
    taken = np.zeros(len(which) + 1, dtype=np.int32)
    np.cumsum(counts, out=taken[1:])
    return taken, np.arange(taken[-1]) + np.repeat(indptr[which] - taken[:-1], counts)


def append_rows(
    indptr: np.ndarray,
    indices: np.ndarray,
    data: np.ndarray,
    num_rows: int,
    columns: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The canonical column-major arrays ``(indptr, indices, data)`` of a
    ``num_rows``-row matrix with ``k`` rows appended below it, in one pass:
    the non-zeros of the dense ``(columns, k)`` array ``columns``, whose
    row ``j`` holds column ``j``'s entries of the new rows.  Canonical in,
    canonical out: each column keeps its entries, then takes its new ones
    in row order."""
    num_cols, k = columns.shape
    nonzero = np.flatnonzero(columns)  # column by column; -0.0 is no entry
    added = np.searchsorted(nonzero, np.arange(0, (num_cols + 1) * k, k))
    merged_indptr = (indptr + added).astype(np.int32)
    column, row = np.divmod(nonzero, k)
    # A new entry lands after its column's old entries and the new entries
    # of the columns before it.
    slots = indptr[1:][column] + np.arange(len(nonzero))
    new = np.zeros(merged_indptr[-1], dtype=bool)
    new[slots] = True
    merged_indices = np.empty(merged_indptr[-1], dtype=np.int32)
    merged_indices[slots] = row + num_rows
    merged_indices[~new] = indices
    merged_data = np.empty(merged_indptr[-1])
    merged_data[slots] = columns.ravel()[nonzero]
    merged_data[~new] = data
    return merged_indptr, merged_indices, merged_data


def transposed_layout(
    indptr: np.ndarray, indices: np.ndarray, num_minor: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bookkeeping of transposing a compressed layout (CSC to CSR or back):
    the new ``indptr`` and ``indices`` and, for every entry in the new
    order, its position in the source arrays.  Entries keep their source
    order within each new major slice, so canonical in is canonical out --
    the layout ``tocsr`` / ``tocsc`` produce, without building a matrix."""
    order = np.argsort(indices, kind="stable")
    transposed = np.zeros(num_minor + 1, dtype=np.int32)
    np.cumsum(np.bincount(indices, minlength=num_minor), out=transposed[1:])
    major = np.repeat(np.arange(len(indptr) - 1, dtype=np.int32), np.diff(indptr))
    return transposed, major[order], order


def stack_columns(
    grid: Sequence[Sequence[sparse.csc_matrix | tuple[int, int]]],
) -> sparse.csc_matrix:
    """Assemble a block matrix column-major, in one pass, into canonical CSC
    (the arrays of :func:`stacked_arrays`)."""
    return canonical_csc(*stacked_arrays(grid))


def stacked_arrays(
    grid: Sequence[Sequence[sparse.csc_matrix | tuple[int, int]]],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple[int, int]]:
    """``(indptr, indices, data, shape)`` of a block matrix, column-major.

    ``grid`` lists the block *columns* left to right; each block column
    lists its blocks top to bottom.  A block is a canonical ``csc_matrix``
    or, for an all-zero block, just its ``(rows, cols)`` shape.  Column
    ``c`` of the result is the concatenation of column ``c`` of the blocks
    above one another with their row offsets added, so it is canonical by
    construction; nothing is validated, converted or routed through COO.
    """
    plan, heights, widths = [], set(), []
    for blocks in grid:
        shapes = [b if isinstance(b, tuple) else b.shape for b in blocks]
        if len({cols for _, cols in shapes}) != 1:
            raise ValueError(f"blocks of one block column differ in width: {shapes}")
        heights.add(sum(rows for rows, _ in shapes))
        # (row offset, block, entries per column) of every block with entries.
        filled, row_offset = [], 0
        for block, (rows, _) in zip(blocks, shapes):
            if not isinstance(block, tuple) and block.nnz:
                filled.append((row_offset, block, block.indptr[1:] - block.indptr[:-1]))
            row_offset += rows
        plan.append(filled)
        widths.append(shapes[0][1])
    if len(heights) != 1:
        raise ValueError(f"block columns differ in height: {sorted(heights)}")
    indptr = np.zeros(sum(widths) + 1, dtype=np.int32)
    first_col = 0
    for filled, width in zip(plan, widths):
        if filled:
            counts = sum(per_col for _, _, per_col in filled[1:]) + filled[0][2]
            np.cumsum(counts, out=indptr[first_col + 1 : first_col + width + 1])
            indptr[first_col + 1 : first_col + width + 1] += indptr[first_col]
        else:
            indptr[first_col + 1 : first_col + width + 1] = indptr[first_col]
        first_col += width
    indices = np.empty(indptr[-1], dtype=np.int32)
    data = np.empty(indptr[-1])
    first_col = 0
    for filled, width in zip(plan, widths):
        start = indptr[first_col]
        if len(filled) == 1:
            # A lone block keeps its layout: one copy, rows shifted.
            row_offset, block, _ = filled[0]
            np.add(block.indices, row_offset, out=indices[start : start + block.nnz])
            data[start : start + block.nnz] = block.data
        elif filled:
            # Next free slot of every column of this block column.
            cursor = indptr[first_col : first_col + width].astype(np.int64)
            for row_offset, block, per_col in filled:
                slots = np.arange(block.nnz) + np.repeat(cursor - block.indptr[:-1], per_col)
                indices[slots] = block.indices + row_offset
                data[slots] = block.data
                cursor += per_col
        first_col += width
    return indptr, indices, data, (heights.pop(), first_col)


# --------------------------------------------------------------------- #
# HiGHS plumbing shared by the LP and MILP entry points
# --------------------------------------------------------------------- #
_ModelStatus = _highs.HighsModelStatus
_ERROR = _highs.HighsStatus.kError

#: SciPy's status number and wording per HiGHS model status; the wording
#: travels in typed errors and ``EpochReport.solver_message``, so it stays
#: byte-identical to what ``linprog`` / ``milp`` reported.
_SCIPY_STATUS = {
    _ModelStatus.kModelError: (2, ""),
    _ModelStatus.kOptimal: (0, "Optimization terminated successfully. "),
    _ModelStatus.kTimeLimit: (1, "Time limit reached. "),
    _ModelStatus.kIterationLimit: (1, "Iteration limit reached. "),
    _ModelStatus.kInfeasible: (2, "The problem is infeasible. "),
    _ModelStatus.kUnbounded: (3, "The problem is unbounded. "),
    _ModelStatus.kUnboundedOrInfeasible: (4, "The problem is unbounded or infeasible. "),
    **{
        status: (4, "")
        for status in (
            _ModelStatus.kNotset,
            _ModelStatus.kLoadError,
            _ModelStatus.kPresolveError,
            _ModelStatus.kSolveError,
            _ModelStatus.kPostsolveError,
            _ModelStatus.kModelEmpty,
            _ModelStatus.kObjectiveBound,
            _ModelStatus.kObjectiveTarget,
        )
    },
}
_UNRECOGNISED_STATUS = (4, "The HiGHS status code was not recognized. ")
#: Statuses under which a MIP may still carry an incumbent worth returning.
_LIMIT_STATUSES = (
    _ModelStatus.kTimeLimit,
    _ModelStatus.kIterationLimit,
    _ModelStatus.kSolutionLimit,
)


def _lp_options() -> "_highs.HighsOptions":
    """The options ``linprog(method="highs")`` passes for a default call."""
    options = _HighsOptions()
    options.presolve = "on"
    options.highs_debug_level = 0
    options.log_to_console = False
    options.output_flag = False
    options.simplex_strategy = 1  # dual simplex
    return options


_LP_OPTIONS = _lp_options()


def _checked_vector(name: str, values: np.ndarray, size: int, finite: bool = False) -> np.ndarray:
    """``values`` as a float vector of ``size`` entries without NaN.

    ``finite`` also refuses +-inf (objective coefficients); elsewhere +-inf
    is HiGHS's own "no bound on this side".
    """
    vector = np.asarray(values, dtype=float)
    if vector.shape != (size,):
        raise ValueError(f"{name} must have shape ({size},), got {vector.shape}")
    if (~np.isfinite(vector) if finite else np.isnan(vector)).any():
        raise ValueError(f"{name} must not contain {'inf or ' if finite else ''}nan")
    return vector


def _checked_matrix(name: str, matrix, num_cols: int) -> sparse.csc_matrix:
    """``matrix`` column-major (what HiGHS takes) with finite entries.

    A canonical ``csc_matrix`` of floats passes through untouched.
    """
    canonical = (
        isinstance(matrix, sparse.csc_matrix)
        and matrix.dtype == np.float64
        and matrix.has_canonical_format
    )
    csc = matrix if canonical else sparse.csc_matrix(matrix, dtype=float)
    if csc.shape[1] != num_cols:
        raise ValueError(f"{name} must have {num_cols} columns, got shape {csc.shape}")
    if not np.isfinite(csc.data).all():
        raise ValueError(f"{name} must not contain inf or nan")
    return csc


@dataclass
class _Model:
    """What HiGHS is handed: one field per ``passModel`` argument.

    The arrays cross the binding as buffers -- no per-element conversion,
    no intermediate ``HighsLp`` -- and HiGHS copies them on ``passModel``.
    ``integrality`` holds ``HighsVarType`` codes, all zero for an LP.
    """

    col_cost: np.ndarray
    col_lower: np.ndarray
    col_upper: np.ndarray
    row_lower: np.ndarray
    row_upper: np.ndarray
    matrix: sparse.csc_matrix
    integrality: np.ndarray


def _highs_model(
    cost: np.ndarray,
    matrix: sparse.csc_matrix,
    lower: np.ndarray,
    upper: np.ndarray,
    row_lower: np.ndarray,
    row_upper: np.ndarray,
    integrality: np.ndarray | None = None,
) -> _Model:
    """A checked :class:`_Model`; ``matrix`` went through :func:`_checked_matrix`."""
    num_cols, num_rows = len(cost), matrix.shape[0]
    return _Model(
        col_cost=_checked_vector("cost", cost, num_cols, finite=True),
        col_lower=_checked_vector("lower", lower, num_cols),
        col_upper=_checked_vector("upper", upper, num_cols),
        row_lower=_checked_vector("row_lower", row_lower, num_rows),
        row_upper=_checked_vector("row_upper", row_upper, num_rows),
        matrix=matrix,
        integrality=np.zeros(num_cols, dtype=np.int32) if integrality is None else integrality,
    )


#: Per thread, ``(pid, instance)``: see :func:`_instance`.
_local = threading.local()


def _instance() -> "_highs._Highs":
    """The calling thread's HiGHS instance, built on its first solve.

    Constructing one costs about as much as passing a small model, so a
    thread keeps one for its life and every solve re-passes options and
    model into it.  Rebuilt when the pid changes: a forked child inherits
    the parent's memory, not its native state.
    """
    held = getattr(_local, "highs", None)
    if held is None or held[0] != os.getpid():
        held = _local.highs = (os.getpid(), _Highs())
    return held[1]


_COLWISE = int(_highs.MatrixFormat.kColwise)
_MINIMIZE = int(_highs.ObjSense.kMinimize)


def _run(highs: "_highs._Highs", model: _Model, is_mip: bool, basis: Basis | None = None):
    """Load and solve ``model``; returns ``(scipy status, message, info, solution)``.

    ``passModel`` drops any basis and solution the instance holds, so a run
    is a cold solve unless it is handed a ``basis`` of an LP of the model's
    shape to start from.  ``solution`` is ``None`` unless there is
    something safe to read: an optimum, or a MIP incumbent at a limit.
    """
    matrix = model.matrix
    passed = highs.passModel(
        matrix.shape[1],
        matrix.shape[0],
        matrix.nnz,
        _COLWISE,
        _MINIMIZE,
        0.0,
        model.col_cost,
        model.col_lower,
        model.col_upper,
        model.row_lower,
        model.row_upper,
        matrix.indptr,
        matrix.indices,
        matrix.data,
        model.integrality,
    )
    status = _ModelStatus.kModelError
    described = info = solution = None
    if passed != _ERROR and basis is not None:
        # A basis HiGHS refuses leaves none set: the run is then cold.
        highs.setBasis(basis.native)
    if passed != _ERROR:
        ran = highs.run() != _ERROR
        status = highs.getModelStatus()
        if ran:
            info = highs.getInfo()
            if status == _ModelStatus.kOptimal or (
                is_mip
                and status in _LIMIT_STATUSES
                and info.objective_function_value != _highs.kHighsInf
            ):
                solution = highs.getSolution()
            else:
                described = (
                    f"model_status is {highs.modelStatusToString(status)}; primal_status "
                    f"is {highs.solutionStatusToString(info.primal_solution_status)}"
                )
    if described is None:
        described = highs.modelStatusToString(status)
    code, text = _SCIPY_STATUS.get(status, _UNRECOGNISED_STATUS)
    return code, f"{text}(HiGHS Status {int(status)}: {described})", info, solution


# --------------------------------------------------------------------- #
# Linear programs
# --------------------------------------------------------------------- #
class CompiledLP:
    """``min c'u  s.t.  A u <= b,  lower <= u <= upper`` with ``b`` left open.

    Everything but the right-hand side is checked and converted once;
    :meth:`solve` swaps the row upper bounds and passes options and model
    into the thread's instance.  Passing resets basis and solution, so each
    solve is the cold solve ``linprog`` ran and solves never see each
    other's state -- unless the caller hands one solve's
    :attr:`LPSolution.basis` to another.
    """

    def __init__(
        self,
        cost: np.ndarray,
        a_ub: sparse.csr_matrix,
        lower: np.ndarray,
        upper: np.ndarray,
    ):
        self.num_cols = len(cost)
        matrix = _checked_matrix("a_ub", a_ub, self.num_cols)
        self.num_rows = matrix.shape[0]
        unbounded = np.full(self.num_rows, np.inf)
        self._model = _highs_model(cost, matrix, lower, upper, -unbounded, unbounded)

    def solve(self, b_ub: np.ndarray, basis: Basis | None = None) -> LPSolution:
        """Solve for one right-hand side, hot-started from ``basis`` if one
        is given.

        Returns the dual multipliers of the inequality rows as *non-negative*
        numbers ``mu`` such that the dual objective is ``-b' mu`` (the sign
        convention used by the Benders derivation in the paper), and the
        optimal basis.
        """
        self._model.row_upper = _checked_vector("b_ub", b_ub, self.num_rows)
        highs = _instance()
        highs.passOptions(_LP_OPTIONS)
        code, message, info, solution = _run(highs, self._model, False, basis)
        if solution is None:
            return LPSolution(
                success=False,
                status=message,
                objective=float("nan"),
                primal=np.zeros(self.num_cols),
                duals_upper=np.zeros(self.num_rows),
                infeasible=code == 2,
            )
        # HiGHS row duals are <= 0 for <= constraints in a minimisation.
        duals = np.clip(-np.array(solution.row_dual, dtype=float), 0.0, None)
        return LPSolution(
            success=True,
            status=message,
            objective=float(info.objective_function_value),
            primal=np.array(solution.col_value, dtype=float),
            duals_upper=duals,
            infeasible=False,
            basis=Basis(highs.getBasis()),
        )


class Phase1Problem:
    """Parametric phase-1 feasibility LP, compiled once.

    The phase-1 system ``min 1's  s.t.  A u - s <= b, s >= 0, lower <= u <=
    upper`` only depends on the right-hand side ``b`` between solves, so the
    extended matrix ``[A | -I]``, the cost vector and the extended bounds are
    assembled and compiled once here and reused for every certificate (see
    DESIGN.md, "Incremental solver layer").  The slave problem
    (:class:`~repro.core.decomposition.SlaveProblem`, the one place that
    builds it) hits this on every infeasible evaluate: KAC's, and the
    Benders warm fast path's when the previous decision no longer fits --
    never a Benders round, whose candidates are all slave-feasible.
    """

    def __init__(
        self,
        a_ub: sparse.csr_matrix,
        lower: np.ndarray,
        upper: np.ndarray,
    ):
        num_rows, num_vars = a_ub.shape
        columns = _checked_matrix("a_ub", a_ub, num_vars)
        if not columns.has_canonical_format:  # hand-built input: canonicalise a copy
            columns = columns.copy()
            columns.sum_duplicates()
        minus_identity = canonical_csc(
            np.arange(num_rows + 1, dtype=np.int32),
            np.arange(num_rows, dtype=np.int32),
            np.full(num_rows, -1.0),
            (num_rows, num_rows),
        )
        self._lp = CompiledLP(
            np.concatenate([np.zeros(num_vars), np.ones(num_rows)]),
            stack_columns([[columns], [minus_identity]]),
            np.concatenate([lower, np.zeros(num_rows)]),
            np.concatenate([upper, np.full(num_rows, np.inf)]),
        )

    def certificate(self, b_ub: np.ndarray) -> tuple[float, np.ndarray]:
        """Measure infeasibility of ``A u <= b_ub`` and return a Farkas ray.

        The optimal value is 0 exactly when the original system is feasible.
        When it is positive, the dual multipliers of the relaxed rows form a
        certificate ``mu >= 0`` with ``b' mu < 0`` on any violated
        combination; used as the "extreme ray" of the dual slave problem in
        Algorithm 3 (KAC).
        """
        solution = self._lp.solve(b_ub)
        if not solution.success:
            raise RuntimeError(
                f"phase-1 feasibility LP failed unexpectedly: {solution.status}"
            )
        return solution.objective, solution.duals_upper


# --------------------------------------------------------------------- #
# Mixed-integer programs
# --------------------------------------------------------------------- #
#: Relative tolerance within which a seeded cut counts as tight at the
#: seeded master's optimum (``benders._MasterState.tight_cuts``): the
#: tight ones are the certificate a fast-path hit keeps.
FEASIBILITY_TOL = 1e-7


@functools.lru_cache(maxsize=32)
def _milp_options(mip_rel_gap: float, time_limit_s: float | None) -> "_highs.HighsOptions":
    """What ``milp`` sets: its own log off, the gap, the optional time limit.

    Option objects are only ever read (``passOptions`` copies them), so one
    per distinct setting serves every solve.
    """
    options = _HighsOptions()
    options.log_to_console = False
    options.mip_rel_gap = mip_rel_gap
    if time_limit_s is not None:
        options.time_limit = time_limit_s
    return options


def solve_milp(
    cost: np.ndarray,
    matrix: sparse.csc_matrix,
    row_lower: np.ndarray,
    row_upper: np.ndarray,
    integrality: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
    time_limit_s: float | None = None,
    mip_rel_gap: float = 1e-6,
) -> MILPSolution:
    """Solve ``min cost' v  s.t.  row_lower <= matrix v <= row_upper,
    lower <= v <= upper`` with HiGHS, the variables ``integrality`` marks
    integral.  A canonical ``csc_matrix`` is handed over as it is.

    A solve stopped by ``time_limit_s`` with an incumbent returns
    ``success=False`` with the incumbent in ``values`` and its ``mip_gap``.
    """
    cost = np.asarray(cost, dtype=float)
    matrix = _checked_matrix("matrix", matrix, len(cost))
    kinds = np.asarray(integrality)
    if kinds.shape != cost.shape or ((kinds < 0) | (kinds > 3)).any():
        raise ValueError(f"integrality must hold {len(cost)} values in 0..3")
    model = _highs_model(
        cost, matrix, lower, upper, row_lower, row_upper, kinds.astype(np.int32)
    )

    highs = _instance()
    limit = None if time_limit_s is None else float(time_limit_s)
    if highs.passOptions(_milp_options(float(mip_rel_gap), limit)) == _ERROR:
        raise ValueError(
            f"HiGHS refused mip_rel_gap={mip_rel_gap!r} / time_limit_s={time_limit_s!r}"
        )
    is_mip = bool(kinds.any())
    code, message, info, solution = _run(highs, model, is_mip)
    if solution is None:
        return MILPSolution(
            success=False,
            status=message,
            objective=float("nan"),
            values=np.zeros(len(cost)),
            mip_gap=0.0,
            infeasible=highs.getModelStatus() == _ModelStatus.kInfeasible,
        )
    return MILPSolution(
        success=code == 0,
        status=message,
        objective=float(info.objective_function_value),
        values=np.array(solution.col_value, dtype=float),
        mip_gap=float(info.mip_gap) if is_mip else 0.0,
        infeasible=False,
    )
