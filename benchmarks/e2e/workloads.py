"""The three in-process workloads (``wire_mixed`` lives in ``wire.py``).

A workload object is made once per run from ``--seed`` and asked for one
*pass* at a time.  A pass builds everything afresh (topology, path set,
broker, solver, seeded inputs), warms it up, then replays the workload's
fixed op sequence, timing each op.  The same seed gives the same ops in
every pass, which is what lets the harness take op *i*'s latency as the
minimum over passes.

What ``--seed`` draws, and why not more: the host's run-to-run noise is
several percent, the ops are ~50 ms each and only 60 fit in a pass, so a
seed that redrew the *structure* of the problem (topology, tenant mix,
instance family) would move every metric by tens of percent from seed to
seed and bury any change to the program.  The structure is therefore fixed
per workload and written down here; the seed draws what varies from day to
day in a deployment with that structure -- the traffic every slice offers,
who arrives when and for how long, in which order instances come up.

Only public entry points are called.  Solvers are built without wall-clock
limits, so no result depends on how fast the machine is.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field

import numpy as np

from repro.api.broker import SliceBroker
from repro.controlplane.orchestrator import OrchestratorConfig
from repro.core.baseline import NoOverbookingSolver
from repro.core.benders import BendersSolver
from repro.core.milp_solver import DirectMILPSolver
from repro.core.slices import EMBB_TEMPLATE, MMTC_TEMPLATE, TEMPLATES, SliceRequest
from repro.dataplane.multiplexing import SliceMultiplexer
from repro.scenarios.family import DIFFERENTIAL_FAMILY
from repro.scenarios.generator import sample_scenario
from repro.scenarios.oracle import problem_for_scenario
from repro.simulation.revenue import RevenueAccountant
from repro.simulation.scenario import heterogeneous_scenario
from repro.topology.operators import romanian_topology
from repro.traffic.patterns import demand_for_template
from repro.workloads.catalogue import SliceClass, TemplateCatalogue
from repro.workloads.trace import TraceSpec, diurnal_profile, iter_trace

import check
from spans import Tracer, null_span

REUSED_MESSAGE = "reused unchanged decision from previous epoch"


@dataclass
class PassResult:
    """What one pass measured.  Latencies are seconds, one entry per op;
    an op that failed or was refused has ``nan`` and a line in ``failures``."""

    setup_s: float
    #: Kernel-timing range that fell inside set-up (see ``pace.py``).
    setup_marks: tuple[int, int]
    primary_s: list[float]
    side_s: list[float]
    #: Per primary / side op, the kernel tick that followed it.
    primary_marks: list[int]
    side_marks: list[int]
    attempted: int
    failures: list[str]
    digest: str
    #: Counts read from the program's public outputs (solver iterations ...).
    counters: dict[str, float] = field(default_factory=dict)
    #: Where primary ops overlap, the stretches in which they were served
    #: (their sum is the denominator of ops_per_s) and the tick after each.
    busy_s: list[float] | None = None
    busy_marks: list[int] | None = None
    #: Max RSS in MB of the process that ran the program, if not this one.
    rss_mb: float | None = None
    #: Anything else a workload measures about its own pass (seconds, counts).
    extra: dict[str, float] = field(default_factory=dict)

    @property
    def span_marks(self) -> list[int]:
        """The tick after each unit a tracer numbers its spans by (``Tracer.op``)."""
        return self.primary_marks if self.busy_marks is None else self.busy_marks


class Workload:
    """What the harness needs from a workload; subclasses set the sizes."""

    name: str
    #: Primary ops in one pass, and in the discarded warm pass.
    ops = 60
    warm_ops = 8
    #: Highest percentiles with at least ten samples beyond them per pass.
    tail_percentile = 83
    side_tail_percentile = 83
    #: Op *i* is the same work in every pass, so its floor over passes is
    #: its latency.  False where thread interleaving differs pass to pass.
    per_op_floor = True

    def __init__(self, seed: int):
        self.seed = seed

    def new_tracer(self):
        return Tracer()

    def run_pass(self, ops: int, pace, tracer=None) -> PassResult:
        raise NotImplementedError

    def warm_up_size(self, full: int, ops: int) -> int:
        """Warm-up shrinks with ``--ops`` so a smoke run stays a smoke run."""
        return max(1, round(full * ops / self.ops))


class PassLog:
    """What the pass in progress has measured so far.

    ``timed`` is called the moment an op's clock stops (it runs the pace
    kernel, see ``pace.py``); ``checked`` once the op's output has been
    inspected.
    """

    def __init__(self, pace):
        self.pace = pace
        self._started = time.perf_counter()
        self._first_mark = len(pace.samples)
        self._ticked_before = pace.spent_s
        self.setup_s = float("nan")
        self.setup_marks = (0, 0)
        self.primary_s: list[float] = []
        self.side_s: list[float] = []
        self.marks: list[int] = []
        self.failures: list[str] = []
        self.digest = check.PassDigest()

    def end_of_setup(self) -> None:
        ticked = self.pace.spent_s - self._ticked_before
        self.setup_s = time.perf_counter() - self._started - ticked
        self.setup_marks = (self._first_mark, len(self.pace.samples))

    def timed(self, primary_s: float, side_s: float) -> None:
        self.marks.append(self.pace.tick())
        self.primary_s.append(primary_s)
        self.side_s.append(side_s)

    def checked(self, label: str, problems: list[str]) -> None:
        if problems:
            self.failures.append(f"{label}: {problems[0]}")
            self.primary_s[-1] = self.side_s[-1] = float("nan")

    def result(self, counters: dict[str, float]) -> PassResult:
        return PassResult(
            setup_s=self.setup_s,
            setup_marks=self.setup_marks,
            primary_s=self.primary_s,
            side_s=self.side_s,
            primary_marks=self.marks,
            side_marks=self.marks,
            attempted=len(self.primary_s),
            failures=self.failures,
            digest=self.digest.hexdigest(),
            counters=counters,
        )


def benders_solver() -> BendersSolver:
    """Multi-cut Benders with every wall-clock cut-off disabled."""
    return BendersSolver(multi_cut=True, time_limit_s=None, master_time_limit_s=None)


def instrument(broker: SliceBroker, tracer) -> None:
    """Slip timing proxies into the orchestrator's swappable collaborators."""
    orchestrator = broker.orchestrator
    broker.set_forecasting(
        tracer.proxy(orchestrator.forecasting, forecast_for="forecasting.forecast_for")
    )
    orchestrator.problem_cache = tracer.proxy(
        orchestrator.problem_cache, build="core.problem.build"
    )
    orchestrator.controllers = tracer.proxy(
        orchestrator.controllers, apply="controlplane.controllers.apply"
    )
    orchestrator.run_epoch = tracer.wrap(
        orchestrator.run_epoch, "controlplane.orchestrator.run_epoch"
    )


def reserved_mbps(broker: SliceBroker) -> float:
    """Bitrate the last decision reserved in total (part of the pass digest)."""
    return sum(
        allocation.total_reserved_mbps
        for allocation in broker.last_decision.allocations.values()
        if allocation.accepted
    )


def traced_solver(solver, tracer, name: str):
    return solver if tracer is None else tracer.proxy(solver, solve=name)


class _EpochCounters:
    """Solver and reuse counts over the timed epochs, read off the reports."""

    def __init__(self) -> None:
        self.iterations = 0
        self.warm_cuts = 0
        self.solves = 0
        self.reused = 0
        self.epochs = 0

    def add(self, report) -> None:
        self.epochs += 1
        self.iterations += report.solver_iterations
        self.warm_cuts += report.solver_warm_cuts
        if report.solver_message == REUSED_MESSAGE:
            self.reused += 1
        elif not report.idle:
            self.solves += 1

    def as_dict(self, structure_changes: int) -> dict[str, float]:
        return {
            "core.benders.iterations": self.iterations,
            "core.benders.warm_cuts": self.warm_cuts,
            "core.benders.solves": self.solves,
            "controlplane.orchestrator.reused_share": self.reused / max(self.epochs, 1),
            "core.problem.structure_changes": structure_changes,
        }


# --------------------------------------------------------------------- #
# online_week
# --------------------------------------------------------------------- #
class OnlineWeek(Workload):
    """The paper's steady-state loop: a fixed tenant population whose
    forecasts are learnt online and drift every epoch.

    Structure (fixed): the Romanian operator reduced to 6 base stations,
    5 eMBB + 5 mMTC tenants at 20 % mean load with 10 % noise, 12 epochs a
    day, contracts spanning the run.  Seed: every slice's offered traffic.
    """

    name = "online_week"

    TENANTS = 10
    BASE_STATIONS = 6
    EPOCHS_PER_DAY = 12
    #: Traffic noise, as a share of the mean: the paper's testbed value.  At
    #: 0.25 the cuts the solver accumulates over a pass range from 4300 to
    #: 7400 with the seed, and op_p50_ms with them by +-8 %; at 0.10 every
    #: seed accumulates the same number.
    RELATIVE_STD = 0.10
    #: Two full seasons so Holt-Winters is live, four more to fill the cut pool.
    WARM_UP_EPOCHS = 2 * EPOCHS_PER_DAY + 4

    def run_pass(self, ops: int, pace, tracer=None) -> PassResult:
        span = tracer.span if tracer else null_span
        log = PassLog(pace)
        warm_up = self.warm_up_size(self.WARM_UP_EPOCHS, ops)
        topology = romanian_topology(num_base_stations=self.BASE_STATIONS, seed=0)
        scenario = dataclasses.replace(
            heterogeneous_scenario(
                topology,
                EMBB_TEMPLATE,
                MMTC_TEMPLATE,
                num_tenants=self.TENANTS,
                fraction_b=0.5,
                relative_std=self.RELATIVE_STD,
                num_epochs=warm_up + ops,
                seed=self.seed,
                forecast_mode="online",
            ),
            epochs_per_day=self.EPOCHS_PER_DAY,
        )
        broker = SliceBroker(
            topology=topology,
            solver=traced_solver(benders_solver(), tracer, "core.benders.solve"),
            config=OrchestratorConfig(
                epochs_per_day=scenario.epochs_per_day,
                samples_per_epoch=scenario.samples_per_epoch,
                candidate_paths_per_pair=scenario.candidate_paths_per_pair,
            ),
        )
        if tracer:
            instrument(broker, tracer)
        broker.submit_batch(scenario.requests)
        base_stations = topology.base_station_names
        demand = {
            (workload.name, bs): demand_for_template(
                workload.request.template,
                workload.demand,
                seed=scenario.seed,
                label=f"{workload.name}:{bs}",
            )
            for workload in scenario.workloads
            for bs in base_stations
        }
        accountant = RevenueAccountant(num_base_stations=len(base_stations))
        samples = scenario.samples_per_epoch
        decision_s = 0.0

        def step(epoch: int):
            """One engine step, as ``SimulationEngine`` performs it."""
            nonlocal decision_s
            decision_started = time.perf_counter()
            with span("api.broker.advance_epoch"):
                report = broker.advance_epoch(epoch)
            decision_s = time.perf_counter() - decision_started
            decision = broker.last_decision
            offered = {}
            requests = []
            allocations = {}
            for record in broker.active_slices(epoch):
                requests.append(record.request)
                allocation = decision.allocations.get(record.name)
                if allocation is not None and allocation.accepted:
                    allocations[record.name] = allocation
                for bs in base_stations:
                    with span("traffic.sample"):
                        drawn = demand[(record.name, bs)].sample_epoch(epoch, samples)
                    load = np.asarray(drawn.samples_mbps, dtype=float)
                    offered[(record.name, bs)] = load
                    with span("controlplane.monitoring.report_load"):
                        broker.report_load(record.name, bs, epoch, load)
            with span("dataplane.multiplexing.unserved"):
                unserved = SliceMultiplexer(topology, allocations).unserved_traffic(offered)
            with span("simulation.revenue.record"):
                accountant.record_epoch(
                    epoch=epoch,
                    active_requests=requests,
                    offered_samples_mbps=offered,
                    unserved_samples_mbps=unserved.unserved_mbps,
                )
            return report

        for epoch in range(warm_up):
            step(epoch)
            pace.tick()
        misses_before = broker.orchestrator.problem_cache.misses
        log.end_of_setup()

        counters = _EpochCounters()
        for op in range(ops):
            epoch = warm_up + op
            if tracer:
                tracer.op = op
            op_started = time.perf_counter()
            report = step(epoch)
            log.timed(time.perf_counter() - op_started, decision_s)
            problems = check.check_epoch(broker, epoch, report)
            if not report.accepted:
                problems.append("no tenant admitted")
            log.checked(f"epoch {epoch}", problems)
            log.digest.add(report.accepted, report.objective_value, reserved_mbps(broker))
            counters.add(report)
        return log.result(
            counters.as_dict(broker.orchestrator.problem_cache.misses - misses_before)
        )


# --------------------------------------------------------------------- #
# churn_replay
# --------------------------------------------------------------------- #
class ChurnReplay(Workload):
    """The same broker and solver under tenant churn: the request set
    changes every epoch, so structure-keyed reuse misses.

    Structure (fixed): three short-contract classes on the Romanian operator
    reduced to 3 base stations, ~3 arrivals an epoch on a diurnal profile,
    contracts of 4-12 epochs, a quarter released early, 40 % renewed once.
    Seed: the trace (who arrives when, for how long, who leaves early).

    Three arrivals an epoch keep the network saturated (about a third of the
    candidates are rejected), so the live set -- which an epoch's cost is
    proportional to, ~5 ms a slice -- is held at ~7 slices by capacity and
    not by the luck of the trace: at two arrivals an epoch its mean ranged
    5.2-6.6 with the seed and op_p50_ms with it.
    """

    name = "churn_replay"

    BASE_STATIONS = 3
    EPOCHS_PER_DAY = 12
    #: Long enough for the live set to stop growing (contracts last 4-12 epochs).
    WARM_UP_EPOCHS = 20
    CATALOGUE = TemplateCatalogue(
        name="churn-short",
        classes=(
            SliceClass(
                name="embb-short",
                template="eMBB",
                elastic=True,
                weight=2.0,
                duration_epochs=(4, 12),
                mean_fraction=0.4,
                relative_std=0.2,
            ),
            SliceClass(
                name="urllc-short",
                template="uRLLC",
                elastic=False,
                weight=1.0,
                duration_epochs=(4, 8),
                mean_fraction=0.3,
                penalty_factor=2.0,
            ),
            SliceClass(
                name="mmtc-short",
                template="mMTC",
                elastic=False,
                weight=1.0,
                duration_epochs=(6, 12),
                mean_fraction=1.0,
            ),
        ),
    )

    def spec(self, horizon: int) -> TraceSpec:
        return TraceSpec(
            name="churn",
            catalogue=self.CATALOGUE,
            horizon_epochs=horizon,
            epochs_per_day=self.EPOCHS_PER_DAY,
            arrival_rate=3.0,
            day_profile=diurnal_profile(self.EPOCHS_PER_DAY, trough=0.6, peak=1.4),
            week_profile=(1.0,),
            early_release_probability=0.25,
            renewal_probability=0.4,
        )

    def run_pass(self, ops: int, pace, tracer=None) -> PassResult:
        span = tracer.span if tracer else null_span
        log = PassLog(pace)
        warm_up = self.warm_up_size(self.WARM_UP_EPOCHS, ops)
        topology = romanian_topology(num_base_stations=self.BASE_STATIONS, seed=0)
        broker = SliceBroker(
            topology=topology,
            solver=traced_solver(benders_solver(), tracer, "core.benders.solve"),
            config=OrchestratorConfig(epochs_per_day=self.EPOCHS_PER_DAY),
        )
        if tracer:
            instrument(broker, tracer)
        spec = self.spec(warm_up + ops)
        trace = iter_trace(spec, self.seed)
        classes = {cls.name: cls for cls in spec.catalogue.classes}
        releases_due: dict[int, list[str]] = {}
        renewals_due: dict[int, list[SliceRequest]] = {}
        live: set[str] = set()
        decision_s = 0.0

        def step():
            """One replay epoch, as ``BrokerReplayDriver`` performs it."""
            nonlocal live, decision_s
            with span("workloads.trace.batch"):
                batch = next(trace)
                events = list(batch.events())
            epoch = batch.epoch
            for name in releases_due.pop(epoch, []):
                if name in live:
                    with span("api.broker.release"):
                        broker.release(name, epoch=epoch)
                    live.discard(name)
            requests = [r for r in renewals_due.pop(epoch, []) if r.name in live]
            for event in events:
                slice_class = classes[event.slice_class]
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
                    releases_due.setdefault(event.early_release_epoch, []).append(event.name)
                term = epoch + event.duration_epochs
                if event.renewals > 0 and not 0 <= event.early_release_epoch <= term:
                    renewals_due.setdefault(term, []).append(
                        dataclasses.replace(
                            request, arrival_epoch=term, metadata=dict(request.metadata)
                        )
                    )
            if requests:
                with span("api.broker.submit_batch"):
                    broker.submit_batch(requests)
            decision_started = time.perf_counter()
            with span("api.broker.advance_epoch"):
                report = broker.advance_epoch(epoch)
            decision_s = time.perf_counter() - decision_started
            live = set(report.active)
            return epoch, report, [request.name for request in requests]

        for _ in range(warm_up):
            step()
            pace.tick()
        misses_before = broker.orchestrator.problem_cache.misses
        log.end_of_setup()

        counters = _EpochCounters()
        for op in range(ops):
            if tracer:
                tracer.op = op
            op_started = time.perf_counter()
            epoch, report, candidates = step()
            log.timed(time.perf_counter() - op_started, decision_s)
            problems = check.check_epoch(broker, epoch, report)
            problems += check.check_replay_epoch(report, candidates)
            log.checked(f"epoch {epoch}", problems)
            log.digest.add(report.accepted, report.objective_value, reserved_mbps(broker))
            counters.add(report)
        return log.result(
            counters.as_dict(broker.orchestrator.problem_cache.misses - misses_before)
        )


# --------------------------------------------------------------------- #
# cold_sweep
# --------------------------------------------------------------------- #
class ColdSweep(Workload):
    """Stateless solves: a fresh problem, a fresh Benders solver and the
    exact MILP as certificate.  No api, no control plane, nothing carried
    from one op to the next, so every reuse layer has nothing to reuse.

    Structure (fixed): the first 60 usable ``DIFFERENTIAL_FAMILY`` instances
    (2-4 base stations, 3-7 tenants), every one of them in every pass.  Seed:
    the order they come up in.  Every ``WARM_UP_EVERY``-th is solved once
    during set-up.  A seed that drew *which* instances run would move p50 by
    several percent on its own: an op costs 25-300 ms depending on the instance.
    """

    name = "cold_sweep"

    WARM_UP_EVERY = 6
    #: Family seeds from 0 up, minus the known-bad inputs listed in the README.
    POOL = tuple(i for i in range(63) if i not in (36, 38, 49))

    def __init__(self, seed: int):
        super().__init__(seed)
        rng = np.random.default_rng([seed, 0xC01D])
        self.order = [int(i) for i in rng.permutation(self.POOL)]
        self.warm_up = [int(i) for i in rng.permutation(self.POOL[:: self.WARM_UP_EVERY])]
        #: instance -> no-overbooking net revenue; a property of the instance,
        #: so it is solved once per run, outside every clock.
        self._baseline: dict[int, object] = {}

    def run_pass(self, ops: int, pace, tracer=None) -> PassResult:
        span = tracer.span if tracer else null_span
        log = PassLog(pace)
        warm_up = self.warm_up[: self.warm_up_size(len(self.warm_up), ops)]
        scenarios = {}
        for instance in dict.fromkeys(self.order[:ops] + warm_up):
            with span("scenarios.generator.sample"):
                scenarios[instance] = sample_scenario(DIFFERENTIAL_FAMILY, instance)

        def solve(instance: int):
            nonlocal cold_s
            with span("core.problem.build"):
                problem = problem_for_scenario(scenarios[instance])
            solver = traced_solver(benders_solver(), tracer, "core.benders.solve")
            cold_started = time.perf_counter()
            benders = solver.solve(problem)
            cold_s = time.perf_counter() - cold_started
            exact = traced_solver(
                DirectMILPSolver(time_limit_s=None), tracer, "core.milp_solver.solve"
            ).solve(problem)
            return problem, benders, exact

        cold_s = 0.0
        for instance in warm_up:
            solve(instance)
            pace.tick()
        log.end_of_setup()

        iterations = 0
        for op, instance in enumerate(self.order[:ops]):
            if tracer:
                tracer.op = op
            op_started = time.perf_counter()
            problem, benders, exact = solve(instance)
            log.timed(time.perf_counter() - op_started, cold_s)
            if instance not in self._baseline:
                self._baseline[instance] = NoOverbookingSolver(time_limit_s=None).solve(problem)
            log.checked(
                f"instance {instance}",
                check.check_certificate(benders, exact, self._baseline[instance]),
            )
            log.digest.add(benders.accepted_tenants, benders.expected_net_reward)
            log.digest.add(exact.accepted_tenants, exact.expected_net_reward)
            iterations += benders.stats.iterations
        return log.result(
            {
                "core.benders.iterations": iterations,
                "core.benders.solves": ops,
                "core.problem.structure_changes": ops,
            }
        )
