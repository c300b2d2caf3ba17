"""Byte-level fingerprint of the orchestrator's mutable control-plane state.

``control_plane_fingerprint`` digests everything the epoch checkpoint covers
-- registry records and archive, the three controllers' enforced
reservations, the intake queue, and the solver layer's cross-epoch
warm-start state -- into one SHA-256 hex string.  The crash-consistency
tests assert that a rolled-back epoch restores the *same* fingerprint as
before the epoch ran, and that a clean recovery epoch after a fault reaches
the same fingerprint as a never-faulted twin.

Deliberately excluded: monitoring history and forecast overrides (run_epoch
never mutates them), the topology (injected link damage persists across a
rollback -- the network really is degraded), and the health monitor (a
fault that forced a rollback still happened and must count).
"""

from __future__ import annotations

import hashlib
import json
import re

#: CPython reprs embed object addresses (``<PathSet object at 0x7f...>``);
#: the decision-reuse signature holds such objects.  Masking the address
#: keeps the digest stable across process runs and equal between twin
#: brokers in the same state -- the objects' *content* is already covered by
#: the other payload sections (capacities, requests, decisions).
_ADDRESS = re.compile(r"0x[0-9a-fA-F]+")


def _stable_repr(obj) -> str:
    return _ADDRESS.sub("0x", repr(obj))


def _digest_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _request_payload(request) -> list:
    return [
        request.name,
        request.template.name,
        request.duration_epochs,
        request.penalty_factor,
        request.arrival_epoch,
        request.committed,
        sorted((str(k), repr(v)) for k, v in request.metadata.items()),
    ]


def _record_payload(record) -> list:
    return [
        _request_payload(record.request),
        record.state.value,
        record.admitted_epoch,
        record.compute_unit,
        sorted(record.last_reservations_mbps.items()),
        record.released,
    ]


def _solver_state_payload(solver) -> object:
    """Order-insensitive digest of the solver's warm-start snapshot."""
    snapshot_state = getattr(solver, "snapshot_state", None)
    if snapshot_state is None:
        return None
    return _snapshot_payload(snapshot_state())


def _snapshot_payload(snapshot) -> object:
    if snapshot is None:
        return None
    if "entries" in snapshot:  # a CutPool snapshot
        entries = []
        for key, entry in sorted(snapshot["entries"].items(), key=lambda kv: repr(kv[0])):
            digest = hashlib.sha256()
            for mu, block_id in entry.multipliers:
                digest.update(mu.tobytes())
                digest.update(repr(block_id).encode())
            digest.update(repr(entry.idle).encode())  # the pool's ageing state
            entries.append(
                [
                    repr(key),
                    entry.num_rows,
                    len(entry.multipliers),
                    digest.hexdigest(),
                    _digest_bytes(entry.best_x.tobytes())
                    if entry.best_x is not None
                    else None,
                ]
            )
        return {
            "entries": entries,
            "seeded_total": snapshot["seeded_total"],
            "dropped_total": snapshot["dropped_total"],
        }
    if "primary" in snapshot:  # a SafeguardedSolver snapshot
        certified = snapshot.get("certified")
        return {
            "primary": _snapshot_payload(snapshot["primary"]),
            "certified": None
            if certified is None
            else [repr(certified[0]), repr(certified[1]), _decision_payload(certified[2])],
        }
    return repr(snapshot)


def _decision_payload(decision) -> object:
    if decision is None:
        return None
    return [
        decision.objective_value,
        sorted(
            (
                name,
                alloc.accepted,
                alloc.compute_unit,
                sorted(alloc.reservations_mbps.items()),
            )
            for name, alloc in decision.allocations.items()
        ),
        sorted(decision.deficits.items()),
    ]


def control_plane_fingerprint(orchestrator) -> str:
    """SHA-256 over the orchestrator's mutable control-plane state."""
    registry = orchestrator.registry
    controllers = orchestrator.controllers
    last_solve = orchestrator._last_solve
    payload = {
        "records": sorted(
            (name, _record_payload(record))
            for name, record in (
                (record.name, record) for record in registry.all_records()
            )
        ),
        "archive": sorted(
            (record.name, [_record_payload(old) for old in registry.archived_records(record.name)])
            for record in registry.all_records()
            if registry.renewal_count(record.name)
        ),
        "pending": [
            _request_payload(request)
            for request in orchestrator.slice_manager.pending_requests
        ],
        "ran": sorted(
            (bs, sorted((name, share.prbs) for name, share in shares.items()))
            for bs, shares in controllers.ran.snapshot().items()
        ),
        "transport": sorted(
            ("|".join(key), sorted(slices.items()))
            for key, slices in controllers.transport.snapshot().items()
        ),
        "cloud": sorted(
            (cu, sorted(slices.items()))
            for cu, slices in controllers.cloud.snapshot().items()
        ),
        "solver": _solver_state_payload(orchestrator.solver),
        "last_solve": None
        if last_solve is None
        else [_stable_repr(last_solve[0]), _decision_payload(last_solve[1])],
        "last_decision": _decision_payload(orchestrator.last_decision),
    }
    blob = json.dumps(payload, sort_keys=True, default=_stable_repr, separators=(",", ":"))
    return _digest_bytes(blob.encode("utf-8"))
