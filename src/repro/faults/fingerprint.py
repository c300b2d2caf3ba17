"""Byte-level fingerprint of the orchestrator's epoch state.

``control_plane_fingerprint`` digests every field and table the orchestrator
declares as journaled state (:func:`repro.utils.journal.declared_state`: the
registry, the intake queue, the three controllers, the solver layer's
warm-start state, the problem-structure cache and the orchestrator's last
decision and what produced it) into one SHA-256 hex string.  The sections are
the declared paths, so this module lists nothing by hand: state a class
declares is digested the moment it is declared, and a rollback that misses
any of it changes the digest.  The crash-consistency tests assert that a
rolled-back epoch restores the *same* fingerprint as before the epoch ran,
and that a clean recovery epoch after a fault reaches the same fingerprint as
a never-faulted twin.

Values are rendered by type: tables in their insertion order (a rollback
restores it), arrays by digest, frozen dataclasses field by field (fields
with ``compare=False`` are left out), decisions without their solver
statistics (wall-clock runtimes differ between twins), problems by their
identity and forecasts, and a held simplex basis by its statuses.  Anything
else is its ``repr`` with object addresses masked.

Deliberately excluded, by being declared nowhere: monitoring history and
forecast overrides (run_epoch never mutates them), the forecast memo (a
function of the monitoring history), the topology (injected link damage
persists across a rollback -- the network really is degraded), and the
health monitor (a fault that forced a rollback still happened and must
count).
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import re

import numpy as np

from repro.core.lpsolver import Basis
from repro.core.problem import ACRRProblem
from repro.core.solution import OrchestrationDecision
from repro.utils.journal import declared_state

#: CPython reprs embed object addresses (``<PathSet object at 0x7f...>``);
#: the decision-reuse key holds such objects.  Masking the address
#: keeps the digest stable across process runs and equal between twin
#: brokers in the same state -- the objects' *content* is already covered by
#: the other payload sections (capacities, requests, decisions).
_ADDRESS = re.compile(r"0x[0-9a-fA-F]+")


def _stable_repr(obj) -> str:
    return _ADDRESS.sub("0x", repr(obj))


def _digest_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _payload(value) -> object:
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, enum.Enum):
        return _payload(value.value)
    if isinstance(value, np.ndarray):
        return [value.dtype.str, list(value.shape), _digest_bytes(value.tobytes())]
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, (tuple, list)):
        return [_payload(item) for item in value]
    if isinstance(value, dict):
        return [[_payload(key), _payload(item)] for key, item in value.items()]
    if isinstance(value, OrchestrationDecision):
        return _decision_payload(value)
    if isinstance(value, Basis):
        return _payload(value.statuses())
    if isinstance(value, ACRRProblem):
        return [
            _payload(value.identity()),
            [_payload(value.forecast(request.name)) for request in value.requests],
        ]
    if dataclasses.is_dataclass(value) and value.__dataclass_params__.frozen:
        return {
            field.name: _payload(getattr(value, field.name))
            for field in dataclasses.fields(value)
            if field.compare
        }
    return _stable_repr(value)


def _decision_payload(decision: OrchestrationDecision) -> object:
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
    """SHA-256 over the orchestrator's declared epoch state."""
    payload = {path: _payload(value) for path, value in declared_state(orchestrator)}
    blob = json.dumps(payload, sort_keys=True, default=_stable_repr, separators=(",", ":"))
    return _digest_bytes(blob.encode("utf-8"))
