"""Fixture-driven tests per rule: each RA01-RA07 checker must fire on its
minimal offending snippet and stay silent on the minimal clean one.

Fixtures are compiled from strings into in-memory :class:`ProjectTree`
objects; the golden run over the real tree lives in test_golden_tree.py.
"""

from __future__ import annotations

from repro.analysis import ProjectTree
from repro.analysis.ra01_locks import LockDisciplineChecker
from repro.analysis.ra02_errors import ErrorTaxonomyChecker
from repro.analysis.ra03_determinism import DeterminismChecker
from repro.analysis.ra04_wire import WireContractChecker
from repro.analysis.ra05_executors import ExecutorSafetyChecker
from repro.analysis.ra06_solver import SolverEntryPointChecker
from repro.analysis.ra07_journal import JournaledStateChecker


def findings_for(checker, sources, documents=None):
    tree = ProjectTree.from_sources(sources, documents)
    return list(checker.check(tree))


# --------------------------------------------------------------------- #
# RA01 -- lock discipline
# --------------------------------------------------------------------- #
BROKER_PATH = "src/repro/api/broker.py"

RA01_OFFENDING = '''
import threading

class SliceBroker:
    def __init__(self):
        self._lock = threading.RLock()

    def submit(self, request):
        self._tickets = {}
        return request
'''

RA01_PURE_READ_LOCKS = '''
class SliceBroker:
    def quote(self, request):
        with self._lock:
            return request

    @_synchronized
    def admitted_names(self):
        return []
'''

RA01_SNAPSHOT_READ_LOCKS = '''
class SliceBroker:
    def status(self, name):
        with self._state_mutex:
            if self._epoch_view is not None:
                return self._epoch_view[name]
        with self._lock:
            return self._records[name]

    @_synchronized
    def slice_count(self):
        return len(self._records)

    def list_slices(self):
        with self._state_mutex:
            return sorted(self._records)
'''

RA01_CLEAN = '''
import functools
import threading

def _synchronized(method):
    @functools.wraps(method)
    def wrapper(self, *args, **kwargs):
        with self._lock:
            return method(self, *args, **kwargs)
    return wrapper

class SliceBroker:
    def __init__(self):
        self._lock = threading.RLock()

    @_synchronized
    def release(self, name):
        self._released = name

    def submit(self, request):
        with self._lock:
            return request

    def submit_batch(self, requests):
        self._lock.acquire()
        try:
            return list(requests)
        finally:
            self._lock.release()

    @property
    def pending_count(self):
        return 0

    def quote(self, request):
        return request

    def status(self, name):
        with self._state_mutex:
            return self._records[name]

    def _helper(self):
        self._internal = 1
'''


class TestRA01:
    def test_unlocked_mutating_method_fires(self):
        found = findings_for(LockDisciplineChecker(), {BROKER_PATH: RA01_OFFENDING})
        assert [f.symbol for f in found] == ["SliceBroker.submit"]
        assert "admission lock" in found[0].message

    def test_pure_read_taking_the_lock_fires(self):
        found = findings_for(LockDisciplineChecker(), {BROKER_PATH: RA01_PURE_READ_LOCKS})
        assert [f.symbol for f in found] == [
            "SliceBroker.quote",
            "SliceBroker.admitted_names",
        ]
        assert all("pure read" in f.message for f in found)

    def test_snapshot_read_sneaking_the_admission_lock_back_in_fires(self):
        """"Check the view, else take the lock" parks the reader behind a
        whole solve when an epoch starts in between; so does the decorator."""
        found = findings_for(
            LockDisciplineChecker(), {BROKER_PATH: RA01_SNAPSHOT_READ_LOCKS}
        )
        assert [f.symbol for f in found] == [
            "SliceBroker.status",
            "SliceBroker.slice_count",
        ]
        assert all("snapshot read" in f.message for f in found)

    def test_clean_broker_passes(self):
        assert findings_for(LockDisciplineChecker(), {BROKER_PATH: RA01_CLEAN}) == []

    def test_other_modules_ignored(self):
        assert (
            findings_for(
                LockDisciplineChecker(), {"src/repro/core/x.py": RA01_OFFENDING}
            )
            == []
        )


# --------------------------------------------------------------------- #
# RA02 -- error taxonomy
# --------------------------------------------------------------------- #
RA02_OFFENDING = '''
def handler(payload):
    if not payload:
        raise ValueError("empty payload")
'''

RA02_CLEAN = '''
from repro.api.errors import ValidationError

def handler(payload):
    if not payload:
        raise ValidationError("empty payload")
'''

RA02_ERRORS_UNREGISTERED = '''
class BrokerError(Exception):
    code = "broker_error"

class ShinyError(BrokerError):
    code = "shiny"

ERROR_TYPES = {cls.code: cls for cls in (BrokerError,)}
'''

RA02_ERRORS_NO_CODE = '''
class BrokerError(Exception):
    code = "broker_error"

class SilentError(BrokerError):
    pass

ERROR_TYPES = {cls.code: cls for cls in (BrokerError, SilentError)}
'''

RA02_ERRORS_OK = '''
class BrokerError(Exception):
    code = "broker_error"

class ShinyError(BrokerError):
    code = "shiny"

ERROR_TYPES = {cls.code: cls for cls in (BrokerError, ShinyError)}
'''

RA02_TRANSPORT_MISSING = '''
STATUS_BY_CODE: dict[str, int] = {
    "broker_error": 500,
}
'''

RA02_TRANSPORT_OK = '''
STATUS_BY_CODE: dict[str, int] = {
    "broker_error": 500,
    "shiny": 418,
}
'''


class TestRA02:
    def test_bare_raise_in_api_module_fires(self):
        found = findings_for(
            ErrorTaxonomyChecker(), {"src/repro/api/handlers.py": RA02_OFFENDING}
        )
        assert [f.symbol for f in found] == ["handler"]
        assert "raise ValueError" in found[0].message

    def test_taxonomy_raise_passes(self):
        assert (
            findings_for(
                ErrorTaxonomyChecker(), {"src/repro/api/handlers.py": RA02_CLEAN}
            )
            == []
        )

    def test_bare_raise_outside_api_ignored(self):
        assert (
            findings_for(
                ErrorTaxonomyChecker(), {"src/repro/core/solver.py": RA02_OFFENDING}
            )
            == []
        )

    def test_unregistered_subclass_fires(self):
        found = findings_for(
            ErrorTaxonomyChecker(), {"src/repro/api/errors.py": RA02_ERRORS_UNREGISTERED}
        )
        assert any("ERROR_TYPES" in f.message for f in found)

    def test_subclass_without_code_fires(self):
        found = findings_for(
            ErrorTaxonomyChecker(), {"src/repro/api/errors.py": RA02_ERRORS_NO_CODE}
        )
        assert any("override the stable `code`" in f.message for f in found)

    def test_code_without_status_mapping_fires(self):
        found = findings_for(
            ErrorTaxonomyChecker(),
            {
                "src/repro/api/errors.py": RA02_ERRORS_OK,
                "src/repro/api/transport.py": RA02_TRANSPORT_MISSING,
            },
        )
        assert any("STATUS_BY_CODE" in f.message for f in found)

    def test_registered_and_mapped_code_passes(self):
        assert (
            findings_for(
                ErrorTaxonomyChecker(),
                {
                    "src/repro/api/errors.py": RA02_ERRORS_OK,
                    "src/repro/api/transport.py": RA02_TRANSPORT_OK,
                },
            )
            == []
        )


# --------------------------------------------------------------------- #
# RA03 -- determinism
# --------------------------------------------------------------------- #
RA03_WALL_CLOCK = '''
import time

def sample(seed):
    return time.time()
'''

RA03_GLOBAL_RNG = '''
import random

def sample():
    return random.random()
'''

RA03_UNSEEDED_NUMPY = '''
import numpy as np

def sample():
    return np.random.default_rng()
'''

RA03_LEGACY_NUMPY = '''
import numpy as np

def sample():
    return np.random.rand(3)
'''

RA03_SET_ITERATION = '''
def fingerprint(names):
    return [n for n in set(names)]
'''

RA03_CLEAN = '''
import numpy as np

def sample(seed):
    rng = np.random.default_rng(seed)
    return rng.normal()

def fingerprint(names):
    return [n for n in sorted(set(names))]

def membership(name, names):
    return name in set(names)
'''

RA03_TIMING_ALLOWED = '''
import time

class BendersSolver:
    def solve(self, problem):
        start = time.perf_counter()
        return time.perf_counter() - start
'''

RA03_TIMING_FORBIDDEN = '''
import time

def hash_inputs(spec):
    return time.perf_counter()
'''


class TestRA03:
    def _run(self, source, path="src/repro/core/sampler.py"):
        return findings_for(DeterminismChecker(), {path: source})

    def test_wall_clock_fires(self):
        found = self._run(RA03_WALL_CLOCK)
        assert any("wall-clock" in f.message for f in found)

    def test_stdlib_global_rng_fires(self):
        found = self._run(RA03_GLOBAL_RNG)
        assert any("unseeded global-RNG" in f.message for f in found)

    def test_unseeded_default_rng_fires(self):
        found = self._run(RA03_UNSEEDED_NUMPY)
        assert any("without a seed" in f.message for f in found)

    def test_legacy_numpy_global_rng_fires(self):
        found = self._run(RA03_LEGACY_NUMPY)
        assert any("legacy numpy global-RNG" in f.message for f in found)

    def test_set_iteration_fires(self):
        found = self._run(RA03_SET_ITERATION)
        assert any("unordered set" in f.message for f in found)

    def test_seeded_sorted_and_membership_pass(self):
        assert self._run(RA03_CLEAN) == []

    def test_timer_at_declared_site_passes(self):
        assert self._run(RA03_TIMING_ALLOWED, path="src/repro/core/benders.py") == []

    def test_timer_at_undeclared_site_fires(self):
        found = self._run(RA03_TIMING_FORBIDDEN)
        assert any("TIMING_ALLOWLIST" in f.message for f in found)

    def test_outside_deterministic_subtree_ignored(self):
        assert (
            findings_for(
                DeterminismChecker(), {"src/repro/api/server.py": RA03_WALL_CLOCK}
            )
            == []
        )

    def test_workloads_subtree_is_covered(self):
        found = self._run(RA03_WALL_CLOCK, path="src/repro/workloads/trace.py")
        assert any("wall-clock" in f.message for f in found)

    def test_seeded_workloads_trace_passes(self):
        assert self._run(RA03_CLEAN, path="src/repro/workloads/trace.py") == []


# --------------------------------------------------------------------- #
# RA04 -- wire contract
# --------------------------------------------------------------------- #
RA04_UNREAD_KEY = '''
def stamp(payload):
    payload["schema_version"] = 1
    return payload

class Report:
    def to_dict(self):
        return stamp({"epoch": self.epoch, "extra": self.extra})

    @classmethod
    def from_dict(cls, payload):
        if payload.get("schema_version") != 1:
            raise ValueError("bad version")
        return cls(epoch=int(payload["epoch"]))
'''

RA04_NO_FROM_DICT = '''
class Report:
    def to_dict(self):
        return {"schema_version": 1, "epoch": self.epoch}
'''

RA04_CLEAN = '''
class Report:
    def to_dict(self):
        return {"schema_version": 1, "epoch": self.epoch, "note": self.note}

    @classmethod
    def from_dict(cls, payload):
        if payload.get("schema_version") != 1:
            raise ValueError("bad version")
        return cls(epoch=int(payload["epoch"]), note=payload.get("note", ""))
'''

RA04_DELEGATED = '''
class Plan:
    def payload(self):
        return {"schema_version": 1, "seed": self.seed, "ghost": 1}

    def to_dict(self):
        return self.payload()

    @classmethod
    def from_dict(cls, payload):
        return cls(seed=int(payload.get("seed", 0)))
'''

RA04_UNVERSIONED = '''
class Config:
    def to_dict(self):
        return {"workers": self.workers}
'''

RA04_ERRORS = '''
class BrokerError(Exception):
    code = "broker_error"

class ShinyError(BrokerError):
    code = "shiny_new"
'''

RA04_BORROWED_STACKS = [
    ("import http.client\n", "http.client"),
    ("from http import client\n", "http.client"),
    ("from http.client import HTTPConnection\n", "http.client"),
    ("from http.server import BaseHTTPRequestHandler\n", "http.server"),
    ("def lazily():\n    import http.server as stack\n", "http.server"),
]

RA04_SOCKET_IO = '''
def exchange(sock, rfile, message):
    sock.sendall(message)
    return rfile.readline()
'''

DESIGN_WITH_CODE = "| `ShinyError` | `shiny_new` | something new |\n| `BrokerError` | `broker_error` | base |"
DESIGN_WITHOUT_CODE = "| `BrokerError` | `broker_error` | base |"


class TestRA04:
    def test_written_but_unread_key_fires(self):
        found = findings_for(WireContractChecker(), {"src/repro/api/d.py": RA04_UNREAD_KEY})
        assert [f.symbol for f in found] == ["Report.from_dict"]
        assert "'extra'" in found[0].message

    def test_missing_from_dict_fires(self):
        found = findings_for(WireContractChecker(), {"src/repro/api/d.py": RA04_NO_FROM_DICT})
        assert any("no from_dict" in f.message for f in found)

    def test_round_tripping_class_passes(self):
        assert findings_for(WireContractChecker(), {"src/repro/api/d.py": RA04_CLEAN}) == []

    def test_delegated_payload_keys_are_checked(self):
        found = findings_for(WireContractChecker(), {"src/repro/faults/p.py": RA04_DELEGATED})
        assert any("'ghost'" in f.message for f in found)

    def test_unversioned_class_is_out_of_scope(self):
        assert (
            findings_for(WireContractChecker(), {"src/repro/util.py": RA04_UNVERSIONED})
            == []
        )

    def test_error_code_missing_from_design_fires(self):
        found = findings_for(
            WireContractChecker(),
            {"src/repro/api/errors.py": RA04_ERRORS},
            documents={"DESIGN.md": DESIGN_WITHOUT_CODE},
        )
        assert any("shiny_new" in f.message for f in found)

    def test_error_code_documented_in_design_passes(self):
        assert (
            findings_for(
                WireContractChecker(),
                {"src/repro/api/errors.py": RA04_ERRORS},
                documents={"DESIGN.md": DESIGN_WITH_CODE},
            )
            == []
        )

    def test_borrowed_http_stack_in_the_api_package_fires(self):
        for source, symbol in RA04_BORROWED_STACKS:
            found = findings_for(WireContractChecker(), {"src/repro/api/server.py": source})
            assert [f.symbol for f in found] == [symbol], source
        # ... and the codec module is no exception.
        source = RA04_BORROWED_STACKS[0][0]
        assert findings_for(WireContractChecker(), {"src/repro/api/transport.py": source})

    def test_socket_io_outside_the_codec_fires(self):
        found = findings_for(WireContractChecker(), {"src/repro/api/client.py": RA04_SOCKET_IO})
        assert sorted(f.symbol for f in found) == ["readline", "sendall"]

    def test_socket_io_in_the_codec_and_outside_the_package_passes(self):
        for path in ("src/repro/api/transport.py", "src/repro/workloads/trace.py"):
            assert findings_for(WireContractChecker(), {path: RA04_SOCKET_IO}) == []
        clean = "from socketserver import StreamRequestHandler\nfrom http import HTTPStatus\n"
        assert findings_for(WireContractChecker(), {"src/repro/api/server.py": clean}) == []


# --------------------------------------------------------------------- #
# RA05 -- executor safety
# --------------------------------------------------------------------- #
RA05_LAMBDA = '''
def sweep(executor, items):
    return executor.map(lambda item: item * 2, items)
'''

RA05_CLOSURE = '''
def sweep(executor, items, scale):
    def run(item):
        return item * scale
    return executor.map(run, items)
'''

RA05_BOUND_METHOD = '''
class Orchestrator:
    def sweep(self, executor, items):
        return executor.map(self.solver.solve, items)
'''

RA05_CLEAN = '''
from functools import partial

def run_one(item):
    return item * 2

def sweep(executor, items):
    return executor.map(run_one, items)

def sweep_partial(executor, items):
    return executor.map(partial(run_one), items)

def unrelated(mapping, items):
    return mapping.map(lambda item: item, items)
'''

RA05_THREADS = '''
import threading
from concurrent.futures import ThreadPoolExecutor

def background(work):
    threading.Thread(target=work).start()

class Pricing:
    def start(self):
        return ThreadPoolExecutor(max_workers=1)
'''

RA05_DECLARED_THREADS = {
    "src/repro/api/server.py": '''
import threading

class BrokerServer:
    def start(self):
        self._thread = threading.Thread(target=self.serve, daemon=True)
''',
    "src/repro/core/benders.py": '''
from concurrent import futures

def _helper():
    return futures.ThreadPoolExecutor(1, thread_name_prefix="benders-pricing")
''',
}


class TestRA05:
    def test_lambda_fires(self):
        found = findings_for(ExecutorSafetyChecker(), {"src/repro/x.py": RA05_LAMBDA})
        assert any("lambda" in f.message for f in found)

    def test_local_closure_fires(self):
        found = findings_for(ExecutorSafetyChecker(), {"src/repro/x.py": RA05_CLOSURE})
        assert any("closure 'run'" in f.message for f in found)

    def test_bound_method_fires(self):
        found = findings_for(ExecutorSafetyChecker(), {"src/repro/x.py": RA05_BOUND_METHOD})
        assert any("bound method" in f.message for f in found)

    def test_module_level_and_partial_pass(self):
        assert findings_for(ExecutorSafetyChecker(), {"src/repro/x.py": RA05_CLEAN}) == []

    def test_thread_at_an_undeclared_site_fires(self):
        found = findings_for(ExecutorSafetyChecker(), {"src/repro/core/solver.py": RA05_THREADS})
        assert [(f.symbol, f.message.split("(")[0]) for f in found] == [
            ("background", "Thread"),
            ("Pricing.start", "ThreadPoolExecutor"),
        ]

    def test_declared_thread_sites_and_code_outside_the_package_pass(self):
        for path, source in RA05_DECLARED_THREADS.items():
            assert findings_for(ExecutorSafetyChecker(), {path: source}) == []
        assert findings_for(ExecutorSafetyChecker(), {"tests/core/t.py": RA05_THREADS}) == []


# --------------------------------------------------------------------- #
# RA06 -- one HiGHS entry point
# --------------------------------------------------------------------- #
ENTRY_POINT = "src/repro/core/lpsolver.py"

RA06_SOLVER_IMPORTS = [
    "from scipy import optimize\n",
    "import scipy.optimize\n",
    "from scipy.optimize import milp\n",
    "from scipy.optimize._highspy import _core\n",
    "import scipy\n\ndef solve(c):\n    return scipy.optimize.linprog(c)\n",
    "def lazily():\n    import scipy.optimize as solvers\n",
]

RA06_NATIVE = '''
from repro.core import lpsolver

def fresh():
    return lpsolver._highs._Highs()
'''

RA06_CURRENCY = '''
from scipy.optimize import LinearConstraint

def rows(matrix, lower, upper):
    return [LinearConstraint(matrix, lower, upper)]
'''

RA06_PHASE1 = '''
from repro.core import lpsolver

def certificate(g, lower, upper, b):
    return lpsolver.Phase1Problem(g, lower, upper).certificate(b)
'''

RA06_CLEAN = '''
import numpy as np
from scipy import sparse

from repro.core.lpsolver import solve_milp

def solve(cost, matrix, lower, upper):
    return solve_milp(cost, sparse.csc_matrix(matrix), lower, upper, np.ones(2), 0, 1)
'''


class TestRA06:
    def test_solver_package_outside_the_entry_point_fires(self):
        for source in RA06_SOLVER_IMPORTS:
            found = findings_for(SolverEntryPointChecker(), {"src/repro/core/kac.py": source})
            assert [f.symbol for f in found] == ["scipy.optimize"], source

    def test_native_instance_outside_the_entry_point_fires(self):
        found = findings_for(SolverEntryPointChecker(), {"src/repro/core/benders.py": RA06_NATIVE})
        assert [(f.symbol, f.line) for f in found] == [("_Highs", 5)]

    def test_linear_constraint_fires_everywhere_the_entry_point_included(self):
        for path in ("src/repro/core/milp_solver.py", ENTRY_POINT):
            found = findings_for(SolverEntryPointChecker(), {path: RA06_CURRENCY})
            currency = [f.line for f in found if f.symbol == "LinearConstraint"]
            assert sorted(currency) == [2, 5], path  # the import and the call
        attribute = "from scipy import optimize\nrows = optimize.LinearConstraint\n"
        found = findings_for(SolverEntryPointChecker(), {ENTRY_POINT: attribute})
        assert [(f.symbol, f.line) for f in found] == [("LinearConstraint", 2)]

    def test_the_entry_point_and_code_outside_the_package_pass(self):
        for source in [*RA06_SOLVER_IMPORTS, RA06_NATIVE]:
            assert findings_for(SolverEntryPointChecker(), {ENTRY_POINT: source}) == []
            assert findings_for(SolverEntryPointChecker(), {"tests/core/t.py": source}) == []
        assert findings_for(SolverEntryPointChecker(), {"tests/core/t.py": RA06_CURRENCY}) == []
        assert findings_for(SolverEntryPointChecker(), {"src/repro/core/kac.py": RA06_CLEAN}) == []

    def test_phase1_problem_outside_the_slave_fires(self):
        for path in ("src/repro/core/benders.py", ENTRY_POINT):
            found = findings_for(SolverEntryPointChecker(), {path: RA06_PHASE1})
            assert [(f.symbol, f.line) for f in found] == [("Phase1Problem", 5)], path

    def test_phase1_problem_in_the_slave_and_outside_the_package_passes(self):
        for path in ("src/repro/core/decomposition.py", "tests/core/t.py"):
            assert findings_for(SolverEntryPointChecker(), {path: RA06_PHASE1}) == [], path


# --------------------------------------------------------------------- #
# RA07 -- journaled state has declared writers
# --------------------------------------------------------------------- #
STATE_PATH = "src/repro/controlplane/state.py"
POOL_PATH = "src/repro/core/benders.py"
CONTROLLERS_PATH = "src/repro/controlplane/controllers.py"
ORCHESTRATOR_PATH = "src/repro/controlplane/orchestrator.py"

RA07_RECORDS = '''
from dataclasses import dataclass, replace
from repro.utils.journal import put

@dataclass(frozen=True)
class SliceRecord:
    request: object
    state: str = "requested"

class SliceRegistry:
    JOURNALED = ("_records",)

    def __init__(self):
        self._records = {}

    def expire(self, name):
        put(self._records, name, replace(self._records[name], state="expired"))
'''

RA07_RECORD_WRITES = '''
def rehome(registry, name):
    record = registry.record(name)
    record.state = "expired"

def smuggle(registry, name):
    object.__setattr__(registry.record(name), "state", "expired")

def backdoor(registry, record):
    registry._records[record.name] = record
'''

RA07_RECORD_WRITERS = '''
def rehome(registry, name):
    registry.expire(name)

class HealthMonitor:
    def __init__(self):
        self.state = "healthy"

    def note(self, outcome: "Outcome", loop: "LoopState"):
        self.state = outcome.state
        loop.state = "done"
'''

RA07_POOL = '''
from dataclasses import dataclass, field, replace
from repro.utils.journal import put

@dataclass(frozen=True)
class _PoolEntry:
    num_rows: int
    idle: tuple = ()
    multipliers: tuple = ()

class CutPool:
    JOURNALED = ("_entries",)

    def __init__(self):
        self._entries = {}

    def age(self, key):
        entry = self._entries[key]
        put(self._entries, key, replace(entry, idle=tuple(i + 1 for i in entry.idle)))
'''

RA07_POOL_WRITES = '''
def bump(pool, key):
    entry = pool.entry(key)
    entry.idle[0] += 1
    entry.multipliers.append(None)
    del pool._entries[key]
'''

RA07_POOL_WRITERS = '''
from dataclasses import replace
from repro.utils.journal import drop, put

def bump(pool, key, state: "_LoopState"):
    entry = pool.entry(key)
    put(pool._entries, key, replace(entry, idle=(entry.idle[0] + 1, *entry.idle[1:])))
    drop(pool._entries, key)
    state.multipliers.append(None)
    loop = _LoopState()
    loop.idle = 0
'''

RA07_CONTROLLERS = '''
from repro.utils.journal import assign

class TransportController:
    JOURNALED = ("reservations_mbps",)

    def __init__(self, links):
        self.links = links
        self.reservations_mbps = {key: {} for key in links}

    def clear(self):
        assign(self, "reservations_mbps", {key: {} for key in self.links})
'''

RA07_CONTROLLER_WRITES = '''
class TransportController:
    JOURNALED = ("reservations_mbps",)

    def __init__(self, links):
        self.reservations_mbps = {}

    def clear(self):
        self.reservations_mbps = {}

def reclaim(controllers, key, name):
    controllers.transport.reservations_mbps[key].pop(name)
    controllers.transport.reservations_mbps[key] = {}
'''

RA07_CONTROLLER_WRITERS = '''
class Link:
    def __init__(self):
        self.load = 0.0

    def reset(self):
        self.reservations_mbps = {}

def headroom(controllers, key):
    return sum(controllers.transport.reservations_mbps[key].values())
'''


def ra07(sources):
    return [
        (f.path, f.symbol, f.message.split("'")[1])
        for f in findings_for(JournaledStateChecker(), sources)
    ]


class TestRA07:
    def test_record_fields_written_in_place_fire(self):
        found = ra07({STATE_PATH: RA07_RECORDS, ORCHESTRATOR_PATH: RA07_RECORD_WRITES})
        assert found == [
            (ORCHESTRATOR_PATH, "rehome", "state"),
            (ORCHESTRATOR_PATH, "smuggle", "state"),
            (ORCHESTRATOR_PATH, "backdoor", "_records"),
        ]

    def test_record_transitions_through_the_registry_pass(self):
        # Another class's own ``state`` and a receiver typed as another
        # class are not record fields.
        assert ra07({STATE_PATH: RA07_RECORDS, ORCHESTRATOR_PATH: RA07_RECORD_WRITERS}) == []

    def test_pool_entry_fields_edited_in_place_fire(self):
        found = ra07({POOL_PATH: RA07_POOL, "src/repro/core/kac.py": RA07_POOL_WRITES})
        assert [(symbol, name) for _, symbol, name in found] == [
            ("bump", "idle"),
            ("bump", "multipliers"),
            ("bump", "_entries"),
        ]

    def test_pool_entries_replaced_through_the_writers_pass(self):
        assert ra07({POOL_PATH: RA07_POOL, "src/repro/core/kac.py": RA07_POOL_WRITERS}) == []

    def test_controller_reservation_tables_written_directly_fire(self):
        found = ra07({CONTROLLERS_PATH: RA07_CONTROLLER_WRITES})
        assert [(symbol, name) for _, symbol, name in found] == [
            ("TransportController.clear", "reservations_mbps"),
            ("reclaim", "reservations_mbps"),
            ("reclaim", "reservations_mbps"),
        ]

    def test_controller_tables_assigned_through_the_writer_pass(self):
        # __init__ builds the state; a class that does not declare the name
        # owns its own attribute; reads are reads.
        sources = {
            CONTROLLERS_PATH: RA07_CONTROLLERS,
            "src/repro/topology/x.py": RA07_CONTROLLER_WRITERS,
        }
        assert ra07(sources) == []

    def test_code_outside_the_package_is_ignored(self):
        sources = {STATE_PATH: RA07_RECORDS, "tests/controlplane/t.py": RA07_RECORD_WRITES}
        assert ra07(sources) == []
