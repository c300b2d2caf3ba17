"""Trace replay: a broker-fidelity driver and a columnar city-scale engine.

Two tiers share the same byte-deterministic trace stream
(:func:`repro.workloads.trace.iter_trace`):

* :class:`BrokerReplayDriver` feeds every epoch's arrivals, renewals and
  tenant releases through the real northbound facade
  (``SliceBroker.submit_batch`` / ``release`` / ``advance_epoch``), so a
  small trace exercises the full AC-RR cycle -- admission solver,
  registry, forecasting, events -- exactly as production traffic would.
  The golden suite pins its per-epoch reports at 1e-9.

* :class:`ColumnarReplayEngine` is the scale pass: slice bookkeeping
  lives in numpy column arrays keyed by slot id (a free-list recycles
  slots, so memory is bounded by *peak live*, not trace length), and all
  per-epoch work is O(churn):

  - departures are an expiry wheel (``epoch -> slot array``) populated at
    admission time, so an epoch only touches the slices that actually
    leave -- there is no O(live) registry scan anywhere in the loop;
  - admission is one vectorised reward-density greedy over the epoch's
    batch against the spec's aggregate capacity;
  - live count, occupancy and revenue rate are incremental scalars,
    updated by the epoch's deltas only.

  Every per-epoch metric is kept for the whole horizon in
  :attr:`ReplayResult.history` (nine floats an epoch), and the digest of
  the per-epoch summary stream (:attr:`ReplayResult.stream_fingerprint`)
  is bit-stable per ``(spec, seed)``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.core.slices import TEMPLATES, SliceRequest
from repro.workloads.trace import EpochBatch, TraceSpec, iter_trace

__all__ = ["ReplayResult", "ColumnarReplayEngine", "BrokerReplayDriver"]

#: Per-epoch metric series the columnar engine records in its history.
REPLAY_METRICS = (
    "arrivals",
    "admitted",
    "rejected",
    "released",
    "expired",
    "renewed",
    "live",
    "occupancy_mbps",
    "revenue_rate",
)


@dataclass(frozen=True)
class ReplayResult:
    """Outcome of one columnar replay run.

    ``history`` holds the per-epoch metric series (each ``horizon`` long --
    bounded by the horizon, never by the live-slice count);
    ``stream_fingerprint`` is the SHA-256 of the canonical per-epoch
    summary stream, bit-stable per ``(spec, seed)``.
    """

    spec_fingerprint: str
    seed: int
    epochs: int
    total_arrivals: int
    total_admitted: int
    total_rejected: int
    total_released: int
    total_expired: int
    total_renewed: int
    peak_live: int
    final_live: int
    mean_live: float
    peak_occupancy_mbps: float
    mean_occupancy_fraction: float
    total_revenue: float
    stream_fingerprint: str
    history: dict[str, list[float]] = field(repr=False)

    def summary(self) -> dict[str, Any]:
        """JSON-level scalar view (what the campaign layer caches)."""
        return {
            "epochs": self.epochs,
            "total_arrivals": self.total_arrivals,
            "total_admitted": self.total_admitted,
            "total_rejected": self.total_rejected,
            "total_released": self.total_released,
            "total_expired": self.total_expired,
            "total_renewed": self.total_renewed,
            "peak_live": self.peak_live,
            "final_live": self.final_live,
            "mean_live": self.mean_live,
            "peak_occupancy_mbps": self.peak_occupancy_mbps,
            "mean_occupancy_fraction": self.mean_occupancy_fraction,
            "total_revenue": self.total_revenue,
        }


class _SliceTable:
    """Columnar slot store: per-slice attributes as growable numpy columns.

    Slots are recycled through a free-list stack, so capacity tracks the
    *peak* live population; allocation and release are O(batch) with no
    per-slice Python objects anywhere.
    """

    __slots__ = ("capacity", "load_mbps", "reward_rate", "_free")

    def __init__(self, initial_capacity: int = 1024) -> None:
        self.capacity = max(1, int(initial_capacity))
        self.load_mbps = np.zeros(self.capacity)
        self.reward_rate = np.zeros(self.capacity)
        self._free = list(range(self.capacity - 1, -1, -1))

    def allocate(self, loads: np.ndarray, rewards: np.ndarray) -> np.ndarray:
        count = loads.shape[0]
        while len(self._free) < count:
            self._grow()
        slots = np.array(self._free[-count:][::-1], dtype=np.int64)
        del self._free[len(self._free) - count :]
        self.load_mbps[slots] = loads
        self.reward_rate[slots] = rewards
        return slots

    def free(self, slots: np.ndarray) -> None:
        self._free.extend(int(slot) for slot in slots[::-1])

    def _grow(self) -> None:
        old = self.capacity
        self.capacity = old * 2
        for name in ("load_mbps", "reward_rate"):
            column = getattr(self, name)
            grown = np.zeros(self.capacity)
            grown[:old] = column
            setattr(self, name, grown)
        self._free.extend(range(self.capacity - 1, old - 1, -1))


class ColumnarReplayEngine:
    """Replay a trace at city scale with O(churn) work per epoch."""

    def __init__(self, spec: TraceSpec, seed: int = 0) -> None:
        self.spec = spec
        self.seed = int(seed)
        classes = spec.catalogue.classes
        self._sla = np.array([cls.slice_template().sla_mbps for cls in classes])
        self._reward = np.array([cls.slice_template().reward for cls in classes])
        self._elastic = np.array([cls.elastic for cls in classes], dtype=bool)

    # ------------------------------------------------------------------ #
    def run(
        self,
        on_epoch: Callable[[int, dict[str, float]], None] | None = None,
    ) -> ReplayResult:
        spec = self.spec
        table = _SliceTable()
        # Expiry wheels: epoch -> slot arrays leaving that epoch.  Entries
        # are written once at admission and consumed once, so an epoch's
        # cost is proportional to its own departures.
        release_wheel: dict[int, list[np.ndarray]] = {}
        expire_wheel: dict[int, list[np.ndarray]] = {}
        renewals_due: dict[int, int] = {}

        live = 0
        occupancy = 0.0
        revenue_rate = 0.0
        total_revenue = 0.0
        peak_live = 0
        peak_occupancy = 0.0
        live_sum = 0.0
        occupancy_sum = 0.0
        totals = {name: 0 for name in REPLAY_METRICS[:6]}
        history: dict[str, list[float]] = {name: [] for name in REPLAY_METRICS}
        digest = hashlib.sha256()

        for batch in iter_trace(spec, self.seed):
            epoch = batch.epoch
            released = expired = 0
            for wheel, kind in ((release_wheel, "released"), (expire_wheel, "expired")):
                for slots in wheel.pop(epoch, ()):
                    occupancy -= float(table.load_mbps[slots].sum())
                    revenue_rate -= float(table.reward_rate[slots].sum())
                    live -= slots.shape[0]
                    table.free(slots)
                    if kind == "released":
                        released += slots.shape[0]
                    else:
                        expired += slots.shape[0]
            renewed = renewals_due.pop(epoch, 0)

            admitted_slots, admitted_rows, rejected = self._admit(
                batch, table, occupancy
            )
            admitted = admitted_slots.shape[0]
            if admitted:
                occupancy += float(table.load_mbps[admitted_slots].sum())
                revenue_rate += float(table.reward_rate[admitted_slots].sum())
                live += admitted
                self._schedule(
                    batch,
                    admitted_rows,
                    admitted_slots,
                    release_wheel,
                    expire_wheel,
                    renewals_due,
                )
            total_revenue += revenue_rate

            live_sum += live
            occupancy_sum += occupancy
            peak_live = max(peak_live, live)
            peak_occupancy = max(peak_occupancy, occupancy)
            metrics = {
                "arrivals": float(len(batch)),
                "admitted": float(admitted),
                "rejected": float(rejected),
                "released": float(released),
                "expired": float(expired),
                "renewed": float(renewed),
                "live": float(live),
                "occupancy_mbps": occupancy,
                "revenue_rate": revenue_rate,
            }
            totals["arrivals"] += len(batch)
            totals["admitted"] += admitted
            totals["rejected"] += rejected
            totals["released"] += released
            totals["expired"] += expired
            totals["renewed"] += renewed
            for name in REPLAY_METRICS:
                history[name].append(metrics[name])
            digest.update(
                json.dumps(
                    {"epoch": epoch, **metrics}, sort_keys=True, separators=(",", ":")
                ).encode("utf-8")
            )
            if on_epoch is not None:
                on_epoch(epoch, metrics)

        epochs = spec.horizon_epochs
        return ReplayResult(
            spec_fingerprint=spec.fingerprint(),
            seed=self.seed,
            epochs=epochs,
            total_arrivals=totals["arrivals"],
            total_admitted=totals["admitted"],
            total_rejected=totals["rejected"],
            total_released=totals["released"],
            total_expired=totals["expired"],
            total_renewed=totals["renewed"],
            peak_live=peak_live,
            final_live=live,
            mean_live=live_sum / epochs,
            peak_occupancy_mbps=peak_occupancy,
            mean_occupancy_fraction=(
                occupancy_sum / epochs / spec.aggregate_capacity_mbps
            ),
            total_revenue=total_revenue,
            stream_fingerprint=digest.hexdigest(),
            history=history,
        )

    # ------------------------------------------------------------------ #
    def _admit(
        self, batch: EpochBatch, table: _SliceTable, occupancy: float
    ) -> tuple[np.ndarray, np.ndarray, int]:
        """Vectorised reward-density greedy admission over one batch.

        Books each arrival's load estimate (expected demand for elastic
        classes, full SLA for inelastic ones) against the remaining
        aggregate capacity, admitting by descending reward density with
        the deterministic arrival order breaking ties.  Returns the
        admitted arrivals' table slots, their batch rows and the rejected
        count.
        """
        empty = np.empty(0, dtype=np.int64)
        count = len(batch)
        if not count:
            return empty, empty, 0
        class_index = batch.class_index
        loads = np.where(
            self._elastic[class_index],
            batch.demand_fraction * self._sla[class_index],
            self._sla[class_index],
        )
        rewards = self._reward[class_index]
        order = np.argsort(-(rewards / loads), kind="stable")
        budget = self.spec.aggregate_capacity_mbps - occupancy
        fits = np.cumsum(loads[order]) <= budget
        chosen = order[fits]
        chosen.sort()  # keep arrival order for deterministic slot layout
        if not chosen.shape[0]:
            return empty, empty, count
        slots = table.allocate(loads[chosen], rewards[chosen])
        return slots, chosen, count - chosen.shape[0]

    def _schedule(
        self,
        batch: EpochBatch,
        rows: np.ndarray,
        slots: np.ndarray,
        release_wheel: dict[int, list[np.ndarray]],
        expire_wheel: dict[int, list[np.ndarray]],
        renewals_due: dict[int, int],
    ) -> None:
        """Populate the wheels for one epoch's admitted arrivals.

        Every admitted slice gets exactly one departure entry (tenant
        release or contract expiry) and at most one renewal tick, all
        computed vectorised at admission time -- the per-epoch loop never
        scans the live set.
        """
        epoch = batch.epoch
        durations = batch.duration_epochs[rows]
        renewals = batch.renewals[rows]
        release = batch.early_release_epoch[rows]
        term_end = epoch + durations * (1 + renewals)
        departs = np.where(release >= 0, release, term_end)
        kinds = release >= 0  # True: tenant release, False: contract expiry

        first_term = epoch + durations
        renew_at = first_term[(renewals > 0) & (departs > first_term)]
        if renew_at.shape[0]:
            at, counts = np.unique(renew_at, return_counts=True)
            for when, count in zip(at, counts):
                key = int(when)
                renewals_due[key] = renewals_due.get(key, 0) + int(count)

        for wheel, mask in ((release_wheel, kinds), (expire_wheel, ~kinds)):
            if not mask.any():
                continue
            when = departs[mask]
            what = slots[mask]
            for value in np.unique(when):
                entry = what[when == value]
                wheel.setdefault(int(value), []).append(entry)


class BrokerReplayDriver:
    """Fidelity tier: drive a real :class:`SliceBroker` with a trace.

    Streams the trace through the northbound facade -- ``submit_batch``
    for each epoch's arrivals (and pre-booked renewals), ``release`` for
    tenant-initiated departures, ``advance_epoch`` for the decision cycle
    -- and records one summary dict per epoch.  Meant for small traces:
    the broker path runs the full admission solver every epoch.
    """

    def __init__(self, broker, spec: TraceSpec, seed: int = 0) -> None:
        self.broker = broker
        self.spec = spec
        self.seed = int(seed)

    def run(self) -> list[dict[str, Any]]:
        spec = self.spec
        releases_due: dict[int, list[str]] = {}
        renewals_due: dict[int, list[SliceRequest]] = {}
        live: set[str] = set()
        reports: list[dict[str, Any]] = []

        for batch in iter_trace(spec, self.seed):
            epoch = batch.epoch
            released = []
            for name in releases_due.pop(epoch, []):
                if name in live:
                    self.broker.release(name, epoch=epoch)
                    live.discard(name)
                    released.append(name)

            requests = [
                request
                for request in renewals_due.pop(epoch, [])
                if request.name in live
            ]
            for event in batch.events():
                slice_class = spec.catalogue.class_named(event.slice_class)
                request = SliceRequest(
                    name=event.name,
                    template=TEMPLATES[slice_class.template],
                    duration_epochs=event.duration_epochs,
                    penalty_factor=slice_class.penalty_factor,
                    arrival_epoch=epoch,
                    metadata={
                        "slice_class": event.slice_class,
                        "demand_fraction": event.demand_fraction,
                    },
                )
                requests.append(request)
                if event.early_release_epoch >= 0:
                    releases_due.setdefault(event.early_release_epoch, []).append(
                        event.name
                    )
                if event.renewals > 0:
                    term = epoch + event.duration_epochs
                    if event.early_release_epoch < 0 or event.early_release_epoch > term:
                        renewal = SliceRequest(
                            name=event.name,
                            template=request.template,
                            duration_epochs=event.duration_epochs,
                            penalty_factor=slice_class.penalty_factor,
                            arrival_epoch=term,
                            metadata=dict(request.metadata),
                        )
                        renewals_due.setdefault(term, []).append(renewal)

            if requests:
                self.broker.submit_batch(requests)
            report = self.broker.advance_epoch(epoch)
            live = set(report.active)
            reports.append(
                {
                    "epoch": epoch,
                    "arrivals": len(batch),
                    "released": released,
                    "accepted": list(report.accepted),
                    "rejected": list(report.rejected),
                    "expired": list(report.expired),
                    "renewed": list(report.renewed),
                    "active": len(report.active),
                    "objective_value": report.objective_value,
                }
            )
        return reports
