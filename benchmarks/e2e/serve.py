"""The server child of ``wire_mixed``: the README's broker-over-HTTP
configuration on an ephemeral port, one process per pass.

Talks to the harness over its own stdin/stdout, one JSON object per line:
after start-up it prints ``{"port", "import_s", "build_s"}``; on the line
``cpu`` it prints its CPU seconds so far; on ``stop`` (or end of input) it
prints ``{"rss_mb", "cpu_s", "solves_s"}`` and exits.
"""

from __future__ import annotations

import os
import sys
import time

for _variable in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(HERE)), "src"))

import json  # noqa: E402
import resource  # noqa: E402


def main() -> int:
    traced = "--trace" in sys.argv[1:]
    # HiGHS now and then prints a line of its own to the C-level stdout; keep
    # the protocol on a private copy of stdout and send anything else to stderr.
    protocol = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)
    import_started = time.perf_counter()
    from repro.api import BrokerServer, SliceBroker, SliceRequestV1
    from repro.core.milp_solver import DirectMILPSolver
    from repro.topology.operators import testbed_topology

    import_s = time.perf_counter() - import_started

    build_started = time.perf_counter()
    solver = DirectMILPSolver(time_limit_s=None)
    solves_s: list[float] = []
    if traced:
        solve = solver.solve

        def timed_solve(problem):
            started = time.perf_counter()
            try:
                return solve(problem)
            finally:
                solves_s.append(time.perf_counter() - started)

        solver.solve = timed_solve
    broker = SliceBroker(topology=testbed_topology(), solver=solver)
    server = BrokerServer(broker).start()
    # One throw-away solve on a broker of its own pages the solver in.
    scratch = SliceBroker(
        topology=testbed_topology(), solver=DirectMILPSolver(time_limit_s=None)
    )
    scratch.submit(SliceRequestV1.of("warm", "uRLLC", duration_epochs=1))
    scratch.advance_epoch(0)
    build_s = time.perf_counter() - build_started
    print(
        json.dumps({"port": server.port, "import_s": import_s, "build_s": build_s}),
        file=protocol,
        flush=True,
    )

    for line in sys.stdin:
        command = line.strip()
        if command == "cpu":
            print(json.dumps({"cpu_s": time.process_time()}), file=protocol, flush=True)
        elif command == "stop":
            break
    # No graceful ``server.stop()``: it waits out the acceptor's half-second
    # poll, and the handler threads are daemons that end with the process.
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(
        json.dumps({"rss_mb": rss_mb, "cpu_s": time.process_time(), "solves_s": solves_s}),
        file=protocol,
        flush=True,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
