"""The slice manager: the tenant-facing entry point of the control plane.

Tenants submit slice requests (Phi_tau) at any time; the slice manager queues
them and, at the beginning of every decision epoch, hands the batch collected
during the previous epoch to the E2E orchestrator (Section 2.2.1).  The paper
models each request as a TOSCA network-service template; we keep a light
dictionary descriptor with the same information so the controllers have a
concrete artefact to consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.slices import SliceRequest
from repro.utils.journal import Journal, assign, drop, put
from repro.utils.validation import (
    ensure_non_negative_finite, ensure_positive_int, ensure_text, ruled)


@dataclass(frozen=True)
class SliceDescriptor:
    """A TOSCA-like network-service descriptor derived from a slice request
    (on the wire inside an admission ticket, by its field rules)."""

    slice_name: str = ruled(ensure_text)
    slice_type: str = ruled(ensure_text)
    sla_mbps: float = ruled(ensure_non_negative_finite)
    latency_tolerance_ms: float = ruled(ensure_non_negative_finite)
    duration_epochs: int = ruled(ensure_positive_int)
    #: Excluded from __hash__ (dicts are unhashable) so descriptors -- and
    #: the admission tickets embedding them -- stay hashable; equality still
    #: compares the full compute model.
    compute_model: dict[str, float] = ruled({str: ensure_non_negative_finite}, hash=False)
    reward: float = ruled(ensure_non_negative_finite)
    penalty_factor: float = ruled(ensure_non_negative_finite)

    @classmethod
    def from_request(cls, request: SliceRequest) -> "SliceDescriptor":
        return cls(
            slice_name=request.name,
            slice_type=request.template.name,
            sla_mbps=request.sla_mbps,
            latency_tolerance_ms=request.latency_tolerance_ms,
            duration_epochs=request.duration_epochs,
            compute_model={
                "baseline_cpus": request.compute_baseline_cpus,
                "cpus_per_mbps": request.compute_cpus_per_mbps,
            },
            reward=request.reward,
            penalty_factor=request.penalty_factor,
        )


@dataclass
class SliceManager:
    """Queues tenant requests and releases them per decision epoch.

    A name may be re-submitted once its previous request has been released
    to the orchestrator -- that is how a tenant renews an expired or rejected
    slice (the registry decides whether the renewal is legal; see
    :meth:`repro.controlplane.state.SliceRegistry.renew`).  Two requests
    under the same name may never sit in the intake queue at once.
    """

    #: The queue is a field *and* a table: a collection replaces the whole
    #: dict (its order is the submission order, which a rollback must give
    #: back), single submissions and withdrawals write one entry.
    JOURNALED = ("_pending",)

    # Keyed by slice name (unique in the queue by contract), insertion
    # ordered: name lookup and withdrawal are O(1) so broker intake of N
    # requests stays O(N) under heavy multi-client traffic.
    _pending: dict[str, SliceRequest] = field(default_factory=dict)

    def submit(self, request: SliceRequest) -> SliceDescriptor:
        """Accept a tenant's slice request into the intake queue."""
        if request.name in self._pending:
            raise ValueError(f"a slice named {request.name!r} was already submitted")
        put(self._pending, request.name, request)
        return SliceDescriptor.from_request(request)

    @property
    def pending_count(self) -> int:
        """Number of requests still queued (a property: it is a pure getter)."""
        return len(self._pending)

    @property
    def pending_requests(self) -> tuple[SliceRequest, ...]:
        """Snapshot of the queued requests, in submission order."""
        return tuple(self._pending.values())

    def pending_request(self, name: str) -> SliceRequest | None:
        """The queued request named ``name``, or ``None`` if not queued."""
        return self._pending.get(name)

    def withdraw(self, name: str) -> SliceRequest:
        """Remove a still-queued request from the intake queue.

        Only requests that have not yet been released to the orchestrator can
        be withdrawn; raises ``KeyError`` when ``name`` is not queued.  Used
        by the northbound broker to cancel queued submissions and to roll
        back partially-enqueued batches.
        """
        if name not in self._pending:
            raise KeyError(f"no queued request named {name!r}")
        return drop(self._pending, name)

    def collect_for_epoch(self, epoch: int) -> list[SliceRequest]:
        """Release the requests that the orchestrator should consider at ``epoch``.

        A request is released once its arrival epoch has been reached; requests
        arriving later stay queued.  Released requests leave the queue -- the
        orchestrator owns them from then on.
        """
        due = [
            request
            for request in self._pending.values()
            if request.arrival_epoch <= epoch
        ]
        if due:
            assign(
                self,
                "_pending",
                {
                    name: request
                    for name, request in self._pending.items()
                    if request.arrival_epoch > epoch
                },
            )
        return due

    def before(self, journal: Journal) -> "QueueView":
        """The queue as it was before ``journal``'s epoch wrote to it."""
        return QueueView(self, journal)


class QueueView:
    """A :class:`SliceManager`'s queue as it was before an epoch, read
    through the epoch's journal (see
    :class:`~repro.controlplane.state.RegistryView`)."""

    def __init__(self, manager: SliceManager, journal: Journal) -> None:
        self._manager = vars(manager)
        self._journal = journal

    def _queue(self) -> dict[str, SliceRequest]:
        return self._journal.before(self._manager, "_pending")

    def pending_request(self, name: str) -> SliceRequest | None:
        return self._journal.before(self._queue(), name, None)

    @property
    def pending_count(self) -> int:
        return len(self._journal.keys_before(self._queue()))
