"""Output checks.  Every check runs after the op's clock has stopped; an op
that fails one counts as failed, exactly like an op that raised.

Each ``check_*`` function returns the list of things wrong with the output
(empty when the output is right), so a failure names what it saw.
"""

from __future__ import annotations

import hashlib

#: Reservations may exceed a capacity by this relative rounding slack.
CAPACITY_SLACK = 1e-6
#: The Benders solver's stated default relative gap (``relative_tolerance``).
BENDERS_GAP = 0.01


class PassDigest:
    """Digest of what a pass decided: per op, the accepted set, the objective
    and (where the op reserves resources) the bitrate reserved in total.

    Every pass of a run replays the same ops on fresh state, so every pass
    must produce the same digest; two runs of one seed on two commits can be
    compared by it too.  Numbers are rounded to 1e-9 so the digest pins
    decisions, not the last ulp.
    """

    def __init__(self) -> None:
        self._hash = hashlib.sha256()

    def add(self, accepted, objective: float, reserved: float = 0.0) -> None:
        names = ",".join(sorted(accepted))
        self._hash.update(f"{names}|{objective:.9f}|{reserved:.9f};".encode())

    def hexdigest(self) -> str:
        return self._hash.hexdigest()[:16]


def check_solver_stats(stats_like) -> list[str]:
    """No wall-clock-dependent result: the solve must have run to its own end.

    Accepts a ``SolverStats`` or an ``EpochReport`` (whose solver fields
    carry a ``solver_`` prefix).
    """
    problems = []
    truncated = getattr(
        stats_like, "time_truncated", getattr(stats_like, "solver_time_truncated", False)
    )
    optimal = getattr(stats_like, "optimal", getattr(stats_like, "solver_optimal", True))
    if truncated:
        problems.append("solver stopped on a wall-clock limit")
    if not optimal:
        problems.append("solver returned a non-optimal incumbent")
    return problems


def check_epoch(broker, epoch: int, report) -> list[str]:
    """One decision epoch: report vs registry, disjoint outcome, capacity."""
    problems = check_solver_stats(report)
    if report.epoch != epoch:
        problems.append(f"report is for epoch {report.epoch}, asked for {epoch}")
    active = tuple(sorted(record.name for record in broker.active_slices(epoch)))
    if tuple(report.active) != active:
        problems.append("report.active disagrees with the registry's active slices")
    accepted, rejected = set(report.accepted), set(report.rejected)
    if accepted & rejected:
        problems.append(f"accepted and rejected overlap: {sorted(accepted & rejected)}")
    if not accepted <= set(broker.admitted_names()):
        problems.append("an accepted slice is not ADMITTED in the registry")
    if not accepted <= set(active):
        problems.append("an accepted slice is not active")
    if report.degraded:
        problems.append(f"epoch degraded: {report.degraded_reasons}")
    decision = broker.last_decision
    if decision is not None and decision.total_deficit <= CAPACITY_SLACK:
        problems.extend(_capacity_problems(broker.orchestrator.controllers))
    return problems


def _capacity_problems(controllers) -> list[str]:
    problems = []
    for name, enforcer in controllers.ran.enforcers.items():
        if enforcer.free_prbs < -CAPACITY_SLACK * enforcer.capacity_prbs:
            problems.append(f"base station {name} reserved above its carrier")
    for key in controllers.transport.reservations_mbps:
        capacity = controllers.transport.topology.link(*key).capacity_mbps
        if controllers.transport.link_headroom(key) < -CAPACITY_SLACK * capacity:
            problems.append(f"link {key} reserved above capacity")
    for name in controllers.cloud.reservations_cpus:
        capacity = controllers.cloud.topology.compute_unit(name).capacity_cpus
        if controllers.cloud.cu_headroom(name) < -CAPACITY_SLACK * capacity:
            problems.append(f"compute unit {name} reserved above capacity")
    return problems


def check_replay_epoch(report, candidates) -> list[str]:
    """A replay epoch decides exactly the requests it was handed."""
    decided = set(report.accepted) | set(report.rejected)
    missing = set(candidates) - decided
    if missing:
        return [f"candidates left undecided: {sorted(missing)[:3]}"]
    return []


def check_certificate(benders, milp, baseline) -> list[str]:
    """Benders agrees with the exact MILP within its stated gap, and
    overbooking never earns less than not overbooking."""
    problems = check_solver_stats(benders.stats) + check_solver_stats(milp.stats)
    exact = milp.expected_net_reward
    found = benders.expected_net_reward
    scale = max(abs(exact), 1.0)
    if abs(found - exact) > BENDERS_GAP * scale:
        problems.append(f"benders {found:.6f} vs milp {exact:.6f} beyond {BENDERS_GAP:.0%}")
    if exact < baseline.expected_net_reward - 1e-6 * scale:
        problems.append("exact optimum earns less than the no-overbooking baseline")
    return problems


def check_event_feed(events, released_names) -> list[str]:
    """The drained ``/v1/events`` feed: one RELEASED per session, exactly once."""
    seen: dict[str, int] = {}
    for _seq, event in events:
        if event.kind.value == "released":
            seen[event.slice_name] = seen.get(event.slice_name, 0) + 1
    problems = []
    duplicated = [name for name, count in seen.items() if count != 1]
    if duplicated:
        problems.append(f"{len(duplicated)} sessions released more than once")
    missing = set(released_names) - set(seen)
    if missing:
        problems.append(f"{len(missing)} sessions have no RELEASED event")
    sequence = [seq for seq, _event in events]
    if sequence != sorted(set(sequence)):
        problems.append("event sequence numbers are not strictly increasing")
    return problems
