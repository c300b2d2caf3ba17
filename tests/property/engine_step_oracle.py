"""The per-key engine-step bookkeeping, kept verbatim as the oracle.

Until the engine step around the admission decision was made array-shaped,
these loops *were* the data plane's resource table, the SLA accounting, the
RAN plan, the per-domain reservations and the demand sampling: one Python
triple per (key, resource), one array conversion per key, one ``sum`` over
every granted share per grant.  The shipped code must reproduce them byte
for byte -- same floats, same summation order, same dict and list order --
and ``tests/property/test_multiplexer_equivalence.py`` /
``tests/property/test_engine_step_equivalence.py`` compare against them with
``np.array_equal`` and ``==``, never with ``allclose``.

Only ``self`` became an explicit argument (and the RAN plan's enforcer a
plain share table, with ``free_prbs`` re-summed as the retired enforcer
did); the arithmetic, the iteration order and the scipy calls are the
retired source's.

The second half keeps what the per-key Python of a steady-state epoch was
before it was trimmed: the sample track's array reductions (which truncated
a fractional epoch) and the forecasting memo's ``np.array_equal`` prefix
test and ``np.mean`` error statistics.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import sparse

from repro.dataplane.multiplexing import _EPSILON, ResourceLoadResult, _attribute_overload
from repro.core.forecast_inputs import MIN_SIGMA_HAT, ForecastInput
from repro.forecasting.base import RecursiveForecaster
from repro.radio.ran_sharing import RadioShare
from repro.simulation.revenue import _VIOLATION_TOLERANCE_MBPS, EpochRevenue
from repro.topology.elements import PRBS_PER_MHZ


# --------------------------------------------------------------------- #
# Data plane: the resource-membership table, one triple per member
# --------------------------------------------------------------------- #
class OracleMembership:
    """The retired ``SliceMultiplexer`` table builders.

    Capacities are the snapshot taken at construction, as the retired
    multiplexer took them: build one per epoch.
    """

    def __init__(self, topology, allocations):
        self.topology = topology
        self.allocations = {
            name: alloc for name, alloc in allocations.items() if alloc.accepted
        }
        self._capacities = topology.capacities()

    def reservations(self, keys) -> np.ndarray:
        """Per-key reservation in Mb/s (0 for keys without an allocation)."""
        reservations = np.zeros(len(keys))
        for k, (name, bs) in enumerate(keys):
            allocation = self.allocations.get(name)
            if allocation is not None:
                reservations[k] = allocation.reservations_mbps.get(bs, 0.0)
        return reservations

    def membership(self, keys):
        """Compile the sparse resource-membership tables for one epoch.

        Returns ``(matrix, base, capacity, labels)``: the CSR multiplier
        matrix (row ``r``'s indices / data are its member keys and their
        multipliers, in membership order), the baseline demand, the
        capacities and the resource names, one per row.
        """
        key_index = {key: k for k, key in enumerate(keys)}
        resources: list[tuple[str, float, list[tuple[int, float, float]]]] = []
        for group in (
            self.radio_members(keys),
            self.link_members(keys),
            self.compute_members(keys),
        ):
            for resource, capacity, members in group:
                resources.append(
                    (
                        resource,
                        capacity,
                        [
                            (key_index[key], multiplier, constant)
                            for key, multiplier, constant in members
                        ],
                    )
                )

        rows: list[int] = []
        cols: list[int] = []
        vals: list[float] = []
        base = np.zeros(len(resources))
        capacity = np.zeros(len(resources))
        labels: list[str] = []
        for row, (resource, cap, members) in enumerate(resources):
            labels.append(resource)
            capacity[row] = cap
            base[row] = sum(constant for (_k, _mult, constant) in members)
            for k, multiplier, _constant in members:
                rows.append(row)
                cols.append(k)
                vals.append(multiplier)
        matrix = sparse.csr_matrix(
            (
                np.asarray(vals, dtype=float),
                (np.asarray(rows, dtype=int), np.asarray(cols, dtype=int)),
            ),
            shape=(len(resources), len(keys)),
        )
        return matrix, base, capacity, tuple(labels)

    def radio_members(self, keys):
        """Radio domain: per BS, every slice served there loads it 1:1 (Mb/s)."""
        members: dict[str, list] = {}
        for name, bs in keys:
            allocation = self.allocations.get(name)
            if allocation is None or bs not in allocation.paths:
                continue
            members.setdefault(bs, []).append(((name, bs), 1.0, 0.0))
        capacities = {
            bs.name: bs.capacity_mbps for bs in self.topology.base_stations
        }
        return [
            (f"radio:{bs}", capacities[bs], member_list)
            for bs, member_list in members.items()
        ]

    def link_members(self, keys):
        members: dict[tuple[str, str], list] = {}
        for name, bs in keys:
            allocation = self.allocations.get(name)
            if allocation is None or bs not in allocation.paths:
                continue
            for link in allocation.paths[bs].links:
                members.setdefault(link.key, []).append(((name, bs), link.overhead, 0.0))
        return [
            (
                f"transport:{key[0]}--{key[1]}",
                self._capacities.transport_mbps[key],
                member_list,
            )
            for key, member_list in members.items()
        ]

    def compute_members(self, keys):
        members: dict[str, list] = {}
        for name, bs in keys:
            allocation = self.allocations.get(name)
            if allocation is None or bs not in allocation.paths:
                continue
            request = allocation.request
            members.setdefault(allocation.compute_unit, []).append(
                ((name, bs), request.compute_cpus_per_mbps, request.compute_baseline_cpus)
            )
        return [
            (f"compute:{cu}", self._capacities.compute_cpus[cu], member_list)
            for cu, member_list in members.items()
        ]


def oracle_unserved_traffic(topology, allocations, offered_samples_mbps):
    """The retired ``SliceMultiplexer.unserved_traffic``: sparse product, every row visited."""
    table = OracleMembership(topology, allocations)
    keys = list(offered_samples_mbps.keys())
    if not keys:
        return ResourceLoadResult(unserved_mbps={}, overloaded_resources=())
    loads = np.stack(
        [np.asarray(offered_samples_mbps[key], dtype=float) for key in keys]
    )
    num_keys, num_samples = loads.shape
    matrix, base, capacity, labels = table.membership(keys)
    reservations = table.reservations(keys)
    demand = base[:, np.newaxis] + matrix.dot(loads)
    overload = demand - capacity[:, np.newaxis]
    unserved = np.zeros((num_keys, num_samples))
    overloaded: list[str] = []
    for row in range(len(labels)):
        hot = overload[row] > _EPSILON
        if not hot.any():
            continue
        overloaded.append(labels[row])
        start, stop = matrix.indptr[row], matrix.indptr[row + 1]
        member_idx, multipliers = matrix.indices[start:stop], matrix.data[start:stop]
        cols = np.flatnonzero(hot)
        shortfall = _attribute_overload(
            overload[row, cols],
            loads[np.ix_(member_idx, cols)],
            reservations[member_idx][:, np.newaxis],
            multipliers[:, np.newaxis],
        )
        target = unserved[np.ix_(member_idx, cols)]
        unserved[np.ix_(member_idx, cols)] = np.maximum(target, shortfall)
    return ResourceLoadResult(
        unserved_mbps={key: unserved[k] for k, key in enumerate(keys)},
        overloaded_resources=tuple(sorted(overloaded)),
    )


# --------------------------------------------------------------------- #
# SLA accounting: one array conversion and one boolean mask per key
# --------------------------------------------------------------------- #
def oracle_record_epoch(
    accountant,
    epoch: int,
    active_requests,
    offered_samples_mbps,
    unserved_samples_mbps,
) -> EpochRevenue:
    """The retired ``RevenueAccountant.record_epoch``."""
    reward = 0.0
    penalty = 0.0
    offered_by_name: dict[str, list[tuple[tuple[str, str], np.ndarray]]] = {}
    for key, samples in offered_samples_mbps.items():
        offered_by_name.setdefault(key[0], []).append(
            (key, np.asarray(samples, dtype=float))
        )
    for request in active_requests:
        slice_reward = request.reward / request.duration_epochs
        reward += slice_reward
        accountant.report.per_slice_reward[request.name] = (
            accountant.report.per_slice_reward.get(request.name, 0.0) + slice_reward
        )
        penalty_rate = request.penalty_rate_per_mbps / (
            request.duration_epochs * accountant.num_base_stations
        )
        for (name, bs), samples in offered_by_name.get(request.name, []):
            if samples.size == 0:
                continue
            unserved = np.asarray(
                unserved_samples_mbps.get((name, bs), np.zeros_like(samples)),
                dtype=float,
            )
            deficit = float(unserved.max()) if unserved.size else 0.0
            slice_penalty = penalty_rate * deficit
            penalty += slice_penalty
            accountant.report.per_slice_penalty[request.name] = (
                accountant.report.per_slice_penalty.get(request.name, 0.0) + slice_penalty
            )
            violated = unserved > _VIOLATION_TOLERANCE_MBPS
            accountant.report.total_samples += int(samples.size)
            accountant.report.violated_samples += int(np.count_nonzero(violated))
            for sample, missing in zip(samples[violated], unserved[violated]):
                accountant.report.drop_fractions.append(
                    float(missing / sample) if sample > 0 else 0.0
                )

    epoch_revenue = EpochRevenue(
        epoch=epoch,
        reward=reward,
        penalty=penalty,
        active_slices=len(active_requests),
    )
    accountant.report.epochs.append(epoch_revenue)
    return epoch_revenue


# --------------------------------------------------------------------- #
# Controllers: one full ``sum`` over the shares per grant
# --------------------------------------------------------------------- #
def _free_prbs(station, shares) -> float:
    return station.capacity_prbs - sum(share.prbs for share in shares.values())


def oracle_ran_plan(controller, decision) -> dict[str, dict[str, RadioShare]]:
    """The retired ``RanController.plan``: ``free_prbs`` re-summed every share.

    Returns the planned shares per base station (the enforcers' tables).
    """
    planned = {}
    for bs_name, current in controller.enforcers.items():
        station = current.base_station
        shares: dict[str, RadioShare] = {}
        for slice_name, alloc in decision.allocations.items():
            if not alloc.accepted:
                continue
            mbps = alloc.reservations_mbps.get(bs_name)
            if mbps is None:
                continue
            grantable_mbps = max(0.0, _free_prbs(station, shares)) / PRBS_PER_MHZ * (
                station.spectral_efficiency_mbps_per_mhz
            )
            prbs = station.mhz_for_bitrate(min(mbps, grantable_mbps)) * PRBS_PER_MHZ
            currently = shares.get(slice_name)
            available = _free_prbs(station, shares) + (currently.prbs if currently else 0.0)
            if prbs > available + 1e-9:
                raise ValueError(f"cannot grant {prbs:.1f} PRBs to {slice_name!r}")
            shares[slice_name] = RadioShare(
                slice_name=slice_name, base_station=station.name, prbs=prbs
            )
        planned[bs_name] = shares
    return planned


def oracle_transport_reservations(decision, problem):
    """The retired ``OrchestrationDecision.transport_reservations_mbps``."""
    reservations: dict[tuple[str, str], dict[str, float]] = {
        link.key: {} for link in problem.topology.links
    }
    for name, alloc in decision.allocations.items():
        if not alloc.accepted:
            continue
        for bs, path in alloc.paths.items():
            mbps = alloc.reservations_mbps.get(bs, 0.0)
            for link in path.links:
                reservations[link.key][name] = (
                    reservations[link.key].get(name, 0.0) + mbps * link.overhead
                )
    return reservations


def oracle_compute_reservations(decision, problem):
    """The retired ``OrchestrationDecision.compute_reservations_cpus``."""
    reservations: dict[str, dict[str, float]] = {
        cu: {} for cu in problem.compute_unit_names
    }
    for name, alloc in decision.allocations.items():
        if not alloc.accepted or alloc.compute_unit is None:
            continue
        reservations[alloc.compute_unit][name] = alloc.reserved_cpus
    return reservations


# --------------------------------------------------------------------- #
# Sampling: one ``float()`` per sample
# --------------------------------------------------------------------- #
def oracle_sample_epoch(model, epoch: int, num_samples: int) -> tuple[float, ...]:
    """The retired ``DemandModel.sample_epoch``, returning its tuple."""
    if num_samples <= 0:
        raise ValueError(f"num_samples must be positive, got {num_samples}")
    mean = model.mean_mbps(epoch)
    std = model.std_mbps(epoch)
    if std == 0.0:
        raw = np.full(num_samples, mean)
    else:
        raw = model._rng.normal(loc=mean, scale=std, size=num_samples)
    clipped = np.clip(raw, 0.0, model.sla_mbps)
    return tuple(float(v) for v in clipped)


# --------------------------------------------------------------------- #
# Monitoring: two array reductions per report, the epoch truncated
# --------------------------------------------------------------------- #
class OracleMonitoring:
    """The retired ``MonitoringService`` (``peak_history`` unchanged)."""

    def __init__(self) -> None:
        self._peaks: dict[str, list[float]] = {}
        self._last_epoch: dict[str, int] = {}

    def record_samples(self, slice_name, base_station, epoch, samples_mbps) -> None:
        epoch = int(epoch)
        values = np.asarray(samples_mbps, dtype=np.float64).ravel()
        if not len(values):
            return
        # Some sample is NaN or infinite exactly when the peak is NaN or
        # +inf or the least sample is -inf: two reductions, no mask.
        peak = float(values.max())
        if not (math.isfinite(peak) and math.isfinite(values.min())):
            raise ValueError(
                f"load samples of slice {slice_name!r} at {base_station!r} "
                f"must be finite (epoch {epoch})"
            )
        last = self._last_epoch.get(slice_name)
        if last is not None and epoch < last:
            raise ValueError(
                f"load samples of slice {slice_name!r} must arrive in epoch "
                f"order (got epoch {epoch} at {base_station!r} after {last})"
            )
        if epoch == last:
            track = self._peaks[slice_name]
            if peak > track[-1]:
                track[-1] = peak
        else:
            self._peaks.setdefault(slice_name, []).append(max(0.0, peak))
            self._last_epoch[slice_name] = epoch

    def peak_history(self, slice_name: str) -> np.ndarray:
        return np.array(self._peaks.get(slice_name, ()), dtype=np.float64)


# --------------------------------------------------------------------- #
# Forecasting: np.mean statistics, an np.array_equal memo
# --------------------------------------------------------------------- #
def oracle_normalised_rmse(observed: np.ndarray, errors: np.ndarray) -> float:
    """The retired ``forecasting.base.normalised_rmse``."""
    mean = float(np.mean(np.abs(observed))) or 1.0
    rmse = float(np.sqrt(np.mean(errors**2)))
    return min(max(rmse / mean, MIN_SIGMA_HAT), 1.0)


def oracle_validate_history(history: np.ndarray) -> np.ndarray:
    """The retired ``Forecaster._validate_history``."""
    arr = np.asarray(history, dtype=float).ravel()
    if arr.size == 0:
        raise ValueError("cannot forecast an empty history")
    if (arr < 0).any():
        raise ValueError("load history must be non-negative")
    return arr


def _oracle_is_prefix(prefix: np.ndarray, array: np.ndarray) -> bool:
    return prefix.size <= array.size and np.array_equal(prefix, array[: prefix.size])


class OracleForecastingBlock:
    """The retired ``ForecastingBlock`` chain and memo (no fault hook), over
    the given tiers: ``(forecaster, history copy, state)`` per slice."""

    def __init__(self, primary, fallback, last_resort):
        self.tiers = (primary, fallback, last_resort)
        self._folds = {}

    def forecast_for(self, request, history) -> ForecastInput:
        history = np.asarray(history, dtype=float)
        for forecaster in self.tiers:
            try:
                if forecaster.can_forecast(history):
                    if isinstance(forecaster, RecursiveForecaster):
                        outcome = self._filter(request.name, forecaster, history)
                    else:
                        outcome = forecaster.forecast(history, horizon=1)
                    return outcome.as_forecast_input(request.sla_mbps)
            except Exception:
                continue
        return ForecastInput.pessimistic(request.sla_mbps)

    def _filter(self, name, forecaster, history):
        observations = forecaster.observations(history)
        entry = self._folds.get(name)
        if entry is not None and entry[0] is forecaster and _oracle_is_prefix(entry[1], history):
            state = forecaster.fold(entry[2], observations[entry[1].size :])
        else:
            state = forecaster.fit(observations)
        self._folds[name] = (forecaster, history.copy(), state)
        return forecaster.outcome(state, observations, 1)

    def retain(self, names) -> None:
        folds = self._folds
        self._folds = {name: folds[name] for name in names if name in folds}
