"""``wire_mixed``: the broker on a socket, tenants and epochs side by side.

A server child (``serve.py``) holds the broker; this process is the load
generator: two connections, closed loop (each sends its next request when
the previous reply is in), one thread each.  HTTP, DTO/JSON and the
admission lock do the work here and the solver almost none.

One *cycle* (the unit ``--ops`` counts):

1. both connections run ``SESSIONS`` tenant sessions each -- ``submit`` with
   an idempotency token, the same submit again (token replay), ``status``,
   ``quote``, ``list_slices(limit=20)``, ``release``.  Sessions book an
   arrival far in the future, so they stay queued and none can be refused.
   Every one of the six round trips is a primary op.
2. connection 0 queues a one-epoch arrival and advances the epoch -- a real
   solve over the resident cohort plus the arrival -- while connection 1,
   ``STALL_DELAY_S`` after that request went out, reads one ``status``.
   That read, issued while an epoch holds the admission lock, is the side
   op: its latency is what is left of the lock hold.

Seed: session parameters (slice type, duration, penalty factor) and names.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import threading
import time

import numpy as np

from repro.api import BrokerClient, BrokerError, SliceBroker, SliceRequestV1
from repro.api.transport import decode_json, encode_json
from repro.core.milp_solver import DirectMILPSolver
from repro.topology.operators import testbed_topology

import check
from spans import END, NAME, OP, START, Tracer
from workloads import PassResult, Workload

HERE = os.path.dirname(os.path.abspath(__file__))
CONNECTIONS = 2
#: Booked this far ahead, a session's request is still queued when released.
FAR_FUTURE_EPOCH = 10**6
ROUTES = ("submit", "replay", "status", "quote", "list", "release")


class _Group:
    """The tracers of one pass, one per connection thread."""

    def __init__(self) -> None:
        self.members = [Tracer() for _ in range(CONNECTIONS)]

    @property
    def spans(self) -> list[list]:
        return [row for member in self.members for row in member.spans]


class _Server:
    """The server child and the line protocol to it."""

    def __init__(self, traced: bool):
        started = time.perf_counter()
        command = [sys.executable, os.path.join(HERE, "serve.py")]
        self.process = subprocess.Popen(
            command + (["--trace"] if traced else []),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        ready = self._read()
        self.port = ready["port"]
        self.build_s = ready["build_s"]
        #: Interpreter start plus imports: everything before the child's own clock.
        self.spawn_s = time.perf_counter() - started - self.build_s

    def _read(self) -> dict:
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError(f"server child exited with {self.process.wait()}")
        return json.loads(line)

    def ask(self, command: str) -> dict:
        self.process.stdin.write(command + "\n")
        self.process.stdin.flush()
        return self._read()

    def stop(self) -> dict:
        try:
            return self.ask("stop")
        finally:
            self.close()

    def close(self) -> None:
        """Wait for the child to end (kill it if it will not); safe to repeat."""
        if self.process.poll() is None:
            try:
                self.process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.process.kill()
        self.process.wait()
        self.process.stdin.close()
        self.process.stdout.close()


class _Connection:
    """One closed-loop tenant connection and what it measured."""

    def __init__(self, index: int, port: int, seed: int, tracer: Tracer | None):
        self.index = index
        self.client = BrokerClient("127.0.0.1", port)
        self.rng = np.random.default_rng([seed, index, 0x51CE])
        self.tracer = tracer
        self.sessions = 0
        self.latencies: list[float] = []
        self.failures: list[str] = []
        self.released: list[str] = []
        self.non2xx = 0
        calls = {
            "submit": self.client.submit,
            "status": self.client.status,
            "quote": self.client.quote,
            "list": self.client.list_slices,
            "release": self.client.release,
        }
        calls["replay"] = calls["submit"]
        if tracer:
            calls = {
                route: tracer.wrap(call, f"api.server.{route}_rtt")
                for route, call in calls.items()
            }
        self.calls = calls

    def session(self, timed: bool) -> None:
        """One tenant session: six round trips, each checked after its clock."""
        rng = self.rng
        name = f"tenant-c{self.index}-{self.sessions:05d}-{int(rng.integers(1 << 30)):08x}"
        self.sessions += 1
        request = SliceRequestV1.of(
            name,
            ("eMBB", "mMTC", "uRLLC")[int(rng.integers(3))],
            duration_epochs=int(rng.integers(1, 25)),
            penalty_factor=float(rng.choice((1.0, 2.0, 4.0))),
            arrival_epoch=FAR_FUTURE_EPOCH,
        )
        token = f"tok-{name}"
        calls = self.calls
        ticket = None
        steps = (
            ("submit", lambda: calls["submit"](request, client_token=token)),
            ("replay", lambda: calls["replay"](request, client_token=token)),
            ("status", lambda: calls["status"](name)),
            ("quote", lambda: calls["quote"](request)),
            ("list", lambda: calls["list"](limit=20)),
            ("release", lambda: calls["release"](name, epoch=0)),
        )
        for route, call in steps:
            started = time.perf_counter()
            try:
                reply = call()
            except BrokerError as error:
                self.non2xx += 1
                reply = None
                wrong = f"{error.code}: {error}"
            else:
                wrong = None
            elapsed = time.perf_counter() - started
            if wrong is None:
                if route == "submit":
                    ticket = reply
                    wrong = None if reply.slice_name == name else "ticket names another slice"
                elif route == "replay":
                    wrong = None if reply == ticket else "token replay returned another ticket"
                elif route == "status":
                    wrong = None if reply.state == "queued" else f"state {reply.state}"
                elif route == "quote":
                    wrong = None if reply.slice_name == name else "quote names another slice"
                elif route == "list":
                    wrong = None if 0 < len(reply) <= 20 else f"page of {len(reply)}"
                elif reply.state != "released":
                    wrong = f"state {reply.state} after release"
            if timed:
                self.latencies.append(float("nan") if wrong else elapsed)
                if wrong:
                    self.failures.append(f"{route} {name}: {wrong}")
        self.released.append(name)


class WireMixed(Workload):
    name = "wire_mixed"
    #: Cycles in one pass: 60 x 2 x 3 x 6 = 2160 tenant round trips.
    warm_ops = 5
    tail_percentile = 99
    per_op_floor = False

    SESSIONS = 3
    #: Per connection: chunks of sessions with a pace tick after each chunk.
    WARM_UP_CHUNKS = 3
    WARM_UP_CHUNK = 25
    COHORT = ("uRLLC", "mMTC", "eMBB")
    STALL_DELAY_S = 0.002

    def __init__(self, seed: int):
        super().__init__(seed)
        if len(os.sched_getaffinity(0)) < CONNECTIONS:
            raise SystemExit("wire_mixed needs two CPUs: one for each side of the socket")

    def new_tracer(self) -> _Group:
        return _Group()

    def run_pass(self, ops: int, pace, tracer: _Group | None = None) -> PassResult:
        server = _Server(traced=tracer is not None)
        try:
            return self._drive(server, ops, pace, tracer)
        finally:
            server.close()

    def _drive(self, server: _Server, cycles: int, pace, tracer: _Group | None) -> PassResult:
        first_mark = pace.tick()
        warm_started = time.perf_counter()
        ticked_before = pace.spent_s
        connections = [
            _Connection(i, server.port, self.seed, tracer.members[i] if tracer else None)
            for i in range(CONNECTIONS)
        ]
        lead = connections[0].client
        # The resident cohort every epoch re-decides, admitted at epoch 0.
        for index, slice_type in enumerate(self.COHORT):
            lead.submit(
                SliceRequestV1.of(
                    f"resident-{index}", slice_type, duration_epochs=FAR_FUTURE_EPOCH
                )
            )
        lead.advance_epoch(0)

        barrier = threading.Barrier(CONNECTIONS)
        epoch_sent = threading.Event()

        def in_parallel(work) -> None:
            errors: list[BaseException] = []

            def guarded(connection: _Connection) -> None:
                try:
                    work(connection)
                except BaseException as error:  # re-raised below, on the caller's thread
                    errors.append(error)
                    # The other side must not wait for a thread that is gone.
                    barrier.abort()
                    epoch_sent.set()

            threads = [
                threading.Thread(target=guarded, args=(connection,))
                for connection in connections
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            if errors:
                raise errors[0]

        def warm_up(connection: _Connection) -> None:
            for _ in range(self.WARM_UP_CHUNK):
                connection.session(timed=False)

        for _ in range(self.warm_up_size(self.WARM_UP_CHUNKS, cycles)):
            in_parallel(warm_up)
            pace.tick()
        ticked = pace.spent_s - ticked_before
        setup_s = server.build_s + time.perf_counter() - warm_started - ticked
        setup_marks = (first_mark, len(pace.samples))

        stalls: list[float] = []
        epochs_s: list[float] = []
        reports = []
        sessions_s: list[float] = []
        marks: list[int] = []
        failures: list[str] = []

        def cycle_loop(connection: _Connection) -> None:
            for cycle in range(1, cycles + 1):
                if connection.tracer:
                    connection.tracer.op = cycle - 1
                barrier.wait()
                phase_started = time.perf_counter()
                for _ in range(self.SESSIONS):
                    connection.session(timed=True)
                barrier.wait()
                if connection.index == 0:
                    sessions_s.append(time.perf_counter() - phase_started)
                    connection.client.submit(
                        SliceRequestV1.of(
                            f"arrival-{cycle:04d}", "uRLLC", duration_epochs=1,
                            arrival_epoch=cycle,
                        )
                    )
                    epoch_sent.set()
                    started = time.perf_counter()
                    report = connection.client.advance_epoch(cycle)
                    epochs_s.append(time.perf_counter() - started)
                    reports.append(report)
                    # The other connection idles at the barrier meanwhile.
                    marks.append(pace.tick())
                else:
                    epoch_sent.wait()
                    epoch_sent.clear()
                    time.sleep(self.STALL_DELAY_S)
                    started = time.perf_counter()
                    try:
                        state = connection.client.status("resident-0").state
                    except BrokerError as error:
                        state = error.code
                        connection.non2xx += 1
                    elapsed = time.perf_counter() - started
                    stalls.append(elapsed if state == "admitted" else float("nan"))
                    if state != "admitted":
                        failures.append(f"cycle {cycle}: resident-0 is {state}")

        server_cpu = -server.ask("cpu")["cpu_s"]
        client_cpu = -time.process_time()
        wall = -time.perf_counter()
        in_parallel(cycle_loop)
        wall += time.perf_counter()
        client_cpu += time.process_time()
        server_cpu += server.ask("cpu")["cpu_s"]

        # Untimed from here: the epochs' outputs, the event feed, the queue.
        digest = check.PassDigest()
        for cycle, report in enumerate(reports, start=1):
            problems = check.check_solver_stats(report)
            if "resident-0" not in report.accepted:
                problems.append("resident cohort dropped")
            if problems:
                failures.append(f"epoch {cycle}: {problems[0]}")
            digest.add(report.accepted, report.objective_value)
        events_s = []
        events, cursor = [], 0
        while True:
            started = time.perf_counter()
            page = lead.events(since=cursor, limit=500)
            events_s.append(time.perf_counter() - started)
            events.extend(page)
            if page.next_cursor == cursor:
                break
            cursor = page.next_cursor
        released = [name for c in connections for name in c.released]
        failures += check.check_event_feed(events, released)
        pending = lead.health()["pending_requests"]
        if pending != 0:
            failures.append(f"{pending} requests still queued after every session released")
        for connection in connections:
            failures += connection.failures
            connection.client.close()
        stats = server.stop()

        primary = [value for c in connections for value in c.latencies]
        per_cycle = len(connections[0].latencies) // cycles
        primary_marks = [marks[i // per_cycle] for _ in connections for i in range(cycles * per_cycle)]
        extra = {
            "api.server.spawn_s": server.spawn_s,
            "api.server.epoch_rtt_ms": 1e3
            * statistics.median(s * pace.scale_around(m) for s, m in zip(epochs_s, marks)),
            "api.server.events_rtt_ms": 1e3 * statistics.median(events_s),
            "api.server.cpu_share": server_cpu / wall,
            "api.client.cpu_share": client_cpu / wall,
            "api.server.non2xx": sum(c.non2xx for c in connections),
        }
        if tracer:
            # Scaled cycle by cycle like the end-to-end latencies (``pace.py``).
            scale = [pace.scale_around(mark) for mark in marks]
            for route in ROUTES:
                rtts = [
                    (row[END] - row[START]) * scale[row[OP]]
                    for row in tracer.spans
                    if row[NAME] == f"api.server.{route}_rtt" and row[OP] >= 0
                ]
                extra[f"api.server.{route}_rtt_ms"] = 1e3 * statistics.median(rtts)
            # The child's first solve is the cohort's admission during set-up.
            solves = [s * f for s, f in zip(stats["solves_s"][1:], scale)]
            extra["core.milp_solver.solve_ms"] = 1e3 * statistics.fmean(solves)
            extra.update(_in_process_costs(self.seed))
            extra["api.server.wire_overhead_ms"] = (
                extra["api.server.submit_rtt_ms"]
                + extra["api.server.status_rtt_ms"]
                - extra["api.broker.submit_inproc_ms"]
                - extra["api.broker.status_inproc_ms"]
            ) / 2.0
        return PassResult(
            setup_s=setup_s,
            setup_marks=setup_marks,
            primary_s=primary,
            side_s=stalls,
            primary_marks=primary_marks,
            side_marks=marks,
            attempted=len(primary) + len(stalls) + len(reports),
            failures=failures,
            digest=digest.hexdigest(),
            busy_s=sessions_s,
            busy_marks=marks,
            rss_mb=stats["rss_mb"],
            extra=extra,
        )


def _in_process_costs(seed: int, rounds: int = 300) -> dict[str, float]:
    """The same submit/status on a broker in this process, and the DTO codec
    alone: what a wire round trip costs beyond them is HTTP and sockets."""
    broker = SliceBroker(topology=testbed_topology(), solver=DirectMILPSolver(time_limit_s=None))
    resident = SliceRequestV1.of("resident-0", "uRLLC", duration_epochs=FAR_FUTURE_EPOCH)
    broker.submit(resident)
    report = broker.advance_epoch(0)
    submit_s, status_s, encode_s, decode_s = [], [], [], []
    rng = np.random.default_rng([seed, 0x1B])
    for index in range(rounds):
        name = f"inproc-{index:05d}"
        request = SliceRequestV1.of(
            name,
            ("eMBB", "mMTC", "uRLLC")[int(rng.integers(3))],
            arrival_epoch=FAR_FUTURE_EPOCH,
        )
        started = time.perf_counter()
        ticket = broker.submit(request, client_token=f"tok-{name}")
        submitted = time.perf_counter()
        status = broker.status(name)
        answered = time.perf_counter()
        wire = [encode_json(dto.to_dict()) for dto in (ticket, status, report)]
        encoded = time.perf_counter()
        for dto, body in zip((ticket, status, report), wire):
            type(dto).from_dict(decode_json(body))
        decoded = time.perf_counter()
        broker.release(name, epoch=0)
        submit_s.append(submitted - started)
        status_s.append(answered - submitted)
        encode_s.append(encoded - answered)
        decode_s.append(decoded - encoded)
    return {
        "api.broker.submit_inproc_ms": 1e3 * statistics.median(submit_s),
        "api.broker.status_inproc_ms": 1e3 * statistics.median(status_s),
        "api.dtos.encode_ms": 1e3 * statistics.median(encode_s),
        "api.dtos.decode_ms": 1e3 * statistics.median(decode_s),
    }
