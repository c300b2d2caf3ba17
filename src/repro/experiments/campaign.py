"""The experiment-campaign layer: declarative, parallel, resumable sweeps.

The paper's evaluation is a grid of scenario sweeps (Figs. 4-8, Table 1 and
the ablations).  Every figure module used to walk its grid with nested loops
and run each point inline; this module turns the grid into data so the runs
can be fanned out, cached and resumed:

* a :class:`RunSpec` names one independent run -- the experiment it belongs
  to, a *run kind* (how to execute it), JSON-level parameters, the policy
  and the seed.  Specs are content-hashed (:func:`repro.utils.rng.spec_hash`)
  into a ``run_id`` that keys the on-disk cache;
* a :class:`Campaign` is an ordered list of specs.  :meth:`Campaign.run`
  loads the cached records, executes only the missing specs through a
  pluggable executor (:mod:`repro.utils.executors`) and persists each fresh
  :class:`RunRecord` as ``<cache_dir>/<experiment>/<run_id>.json``;
* the figure modules declare their grids as campaigns and *reduce* the
  resulting records into their existing point/result types, so every figure
  is "expand grid -> run (parallel, cached) -> reduce".

Determinism contract: a spec carries everything its run needs, every
stochastic component seeds itself from the spec's ``seed`` through
:func:`repro.utils.rng.derive_seed` (stable across processes since the CRC32
fix), and run kinds are pure functions of the spec.  Hence serial and
process-pool executions produce identical records -- asserted by
``tests/property/test_executor_invariance.py`` -- and cached records can be
trusted regardless of which process produced them.  The one documented
exemption is the ``solver-ablation`` kind's wall-clock ``runtime_s`` field
(see :mod:`repro.experiments.ablations`).
"""

from __future__ import annotations

import importlib
import itertools
import json
import os
import tempfile
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

from repro.utils.executors import default_executor
from repro.utils.rng import derive_spec_seed, normalize_spec, spec_hash

#: Bump when the persisted record layout changes; loaders reject other versions.
SCHEMA_VERSION = 1

#: Default cache directory (overridable per call and via the environment).
CACHE_DIR_ENV = "REPRO_CAMPAIGN_DIR"
DEFAULT_CACHE_DIR = ".repro_campaigns"


def default_cache_dir() -> Path:
    return Path(os.environ.get(CACHE_DIR_ENV, DEFAULT_CACHE_DIR))


# --------------------------------------------------------------------- #
# Specs and records
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class RunSpec:
    """One independent run of a campaign.

    ``params`` must hold JSON-level values only (strings, numbers, booleans,
    lists) so the spec can be content-hashed and rebuilt in a worker process;
    rich objects (templates, topologies) are referenced by name and resolved
    by the run kind.  ``stop_on_converged_revenue`` is part of the spec --
    and therefore of the cache key -- because an early-stopped run covers
    fewer epochs than a full one and the two must never alias in the cache.
    """

    experiment: str
    kind: str
    params: Mapping[str, Any]
    policy: str | None = None
    seed: int | None = None
    stop_on_converged_revenue: bool = False

    def as_dict(self) -> dict[str, Any]:
        """JSON-level view of the spec (tuples and numpy scalars normalised).

        The normalisation matters for caching: a record loaded from disk has
        been through a JSON round trip, so the in-memory spec must serialise
        to exactly the same shapes or :meth:`RunStore.load` would reject
        every cached record for, say, a tuple-valued parameter.
        """
        return {
            "experiment": self.experiment,
            "kind": self.kind,
            "params": normalize_spec(dict(self.params)),
            "policy": self.policy,
            "seed": self.seed,
            "stop_on_converged_revenue": self.stop_on_converged_revenue,
        }

    @property
    def run_id(self) -> str:
        """Content hash keying this run in the on-disk cache."""
        return spec_hash(self.as_dict())

    def label(self) -> str:
        """Short human-readable identifier for status/progress output.

        Mapping-valued params (e.g. a whole scenario-family declaration)
        render as their ``name`` field, or a short content hash, instead of
        the full dict.
        """

        def compact(value: Any) -> Any:
            if isinstance(value, Mapping):
                name = value.get("name")
                return str(name) if name is not None else f"<{spec_hash(value)[:8]}>"
            return value

        params = ",".join(f"{k}={compact(v)}" for k, v in sorted(self.params.items()))
        policy = f":{self.policy}" if self.policy else ""
        return f"{self.experiment}[{params}]{policy}"

    def scenario_identity(self) -> dict[str, Any]:
        """The part of the spec that identifies the *scenario* (not the run).

        Policy and the stopping rule are excluded: paired comparisons (e.g.
        overbooking vs the no-overbooking baseline in Fig. 5) must replay the
        same demand traces, so derived seeds depend only on this identity.
        """
        return {"experiment": self.experiment, "params": dict(self.params)}


@dataclass(frozen=True)
class RunRecord:
    """The persisted outcome of one run: its spec, a flat numeric summary
    and run-kind-specific extras (per-epoch series, usage timelines, ...)."""

    spec: RunSpec
    summary: Mapping[str, float]
    extras: Mapping[str, Any] = field(default_factory=dict)

    def as_dict(self) -> dict[str, Any]:
        return {
            "schema": SCHEMA_VERSION,
            "run_id": self.spec.run_id,
            "spec": self.spec.as_dict(),
            "summary": dict(self.summary),
            "extras": dict(self.extras),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "RunRecord":
        if payload.get("schema") != SCHEMA_VERSION:
            raise ValueError(
                f"unsupported record schema {payload.get('schema')!r} "
                f"(expected {SCHEMA_VERSION})"
            )
        spec = payload["spec"]
        return cls(
            spec=RunSpec(
                experiment=spec["experiment"],
                kind=spec["kind"],
                params=spec["params"],
                policy=spec.get("policy"),
                seed=spec.get("seed"),
                stop_on_converged_revenue=spec.get("stop_on_converged_revenue", False),
            ),
            summary=payload["summary"],
            extras=payload.get("extras", {}),
        )


# --------------------------------------------------------------------- #
# Run kinds
# --------------------------------------------------------------------- #
#: Run kind name -> function executing a spec of that kind.  A run function
#: takes the spec and returns ``{"summary": {...}, "extras": {...}}``.
_RUN_KINDS: dict[str, Callable[[RunSpec], dict[str, Any]]] = {}

#: Where each non-built-in run kind registers itself.  Worker processes only
#: import this module (via pickled :class:`RunSpec`), so unknown kinds are
#: resolved by importing their home module on first use.
_RUN_KIND_MODULES = {
    "path-stats": "repro.experiments.fig4_topologies",
    "solver-ablation": "repro.experiments.ablations",
    "forecaster-ablation": "repro.experiments.ablations",
    "generated": "repro.scenarios.campaigns",
    "trace-replay": "repro.workloads.campaigns",
}


def register_run_kind(name: str):
    """Decorator registering ``fn`` as the executor of run kind ``name``."""

    def decorator(fn: Callable[[RunSpec], dict[str, Any]]):
        _RUN_KINDS[name] = fn
        return fn

    return decorator


def _resolve_run_kind(kind: str) -> Callable[[RunSpec], dict[str, Any]]:
    if kind not in _RUN_KINDS:
        module = _RUN_KIND_MODULES.get(kind)
        if module is not None:
            importlib.import_module(module)
    try:
        return _RUN_KINDS[kind]
    except KeyError as exc:
        known = sorted(set(_RUN_KINDS) | set(_RUN_KIND_MODULES))
        raise KeyError(f"unknown run kind {kind!r}; expected one of {known}") from exc


def execute_spec(spec: RunSpec) -> RunRecord:
    """Execute one spec in the calling process (the executor map function)."""
    outcome = _resolve_run_kind(spec.kind)(spec)
    return RunRecord(
        spec=spec,
        summary=outcome.get("summary", {}),
        extras=outcome.get("extras", {}),
    )


@register_run_kind("simulation")
def _run_simulation_spec(spec: RunSpec) -> dict[str, Any]:
    """Built-in run kind: build a scenario from the spec and simulate it."""
    from repro.simulation.runner import run_scenario, simulation_record

    scenario = build_scenario(spec.params, seed=spec.seed)
    result = run_scenario(
        scenario,
        policy=spec.policy or "optimal",
        stop_on_converged_revenue=spec.stop_on_converged_revenue,
    )
    return simulation_record(result)


def build_scenario(params: Mapping[str, Any], seed: int | None):
    """Rebuild a scenario from JSON-level spec parameters.

    ``params["scenario"]`` selects the constructor; slice templates are
    referenced by name (resolved through ``repro.core.slices.TEMPLATES``) so
    the spec stays hashable and picklable.
    """
    from repro.core.slices import TEMPLATES
    from repro.simulation.scenario import (
        heterogeneous_scenario,
        homogeneous_scenario,
        testbed_scenario,
    )

    kind = params.get("scenario")
    if kind == "homogeneous":
        return homogeneous_scenario(
            operator=params["operator"],
            template=TEMPLATES[params["slice_type"]],
            num_tenants=int(params["num_tenants"]),
            mean_load_fraction=float(params["alpha"]),
            relative_std=float(params.get("relative_std", 0.25)),
            penalty_factor=float(params.get("penalty_factor", 1.0)),
            num_epochs=int(params.get("num_epochs", 24)),
            num_base_stations=params.get("num_base_stations"),
            seed=seed,
            forecast_mode=params.get("forecast_mode", "oracle"),
        )
    if kind == "heterogeneous":
        return heterogeneous_scenario(
            operator=params["operator"],
            template_a=TEMPLATES[params["slice_type_a"]],
            template_b=TEMPLATES[params["slice_type_b"]],
            num_tenants=int(params["num_tenants"]),
            fraction_b=float(params["beta"]),
            mean_load_fraction=float(params.get("mean_load_fraction", 0.2)),
            relative_std=float(params.get("relative_std", 0.25)),
            penalty_factor=float(params.get("penalty_factor", 1.0)),
            num_epochs=int(params.get("num_epochs", 24)),
            num_base_stations=params.get("num_base_stations"),
            seed=seed,
            forecast_mode=params.get("forecast_mode", "oracle"),
        )
    if kind == "testbed":
        return testbed_scenario(
            num_epochs=int(params.get("num_epochs", 18)),
            penalty_factor=float(params.get("penalty_factor", 1.0)),
            mean_load_fraction=float(params.get("mean_load_fraction", 0.5)),
            relative_std=float(params.get("relative_std", 0.1)),
            seed=seed,
        )
    if kind == "generated":
        from repro.scenarios.family import ScenarioFamily
        from repro.scenarios.generator import sample_scenario

        family = ScenarioFamily.from_dict(params["family"])
        return sample_scenario(family, seed=seed if seed is not None else 0)
    raise KeyError(
        f"unknown scenario kind {kind!r}; "
        "expected homogeneous/heterogeneous/testbed/generated"
    )


# --------------------------------------------------------------------- #
# Grid expansion
# --------------------------------------------------------------------- #
def expand_grid(axes: Mapping[str, Sequence[Any]]) -> list[dict[str, Any]]:
    """Cartesian product of named axes, in nested-loop (row-major) order.

    ``expand_grid({"a": (1, 2), "b": ("x",)})`` yields
    ``[{"a": 1, "b": "x"}, {"a": 2, "b": "x"}]`` -- the same order the old
    nested ``for`` loops produced, which the reduce steps rely on.
    """
    keys = list(axes)
    return [
        dict(zip(keys, combo))
        for combo in itertools.product(*(axes[key] for key in keys))
    ]


# --------------------------------------------------------------------- #
# Campaign execution
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class CampaignStatus:
    """How much of a campaign is already in the cache."""

    name: str
    total: int
    cached: int

    @property
    def missing(self) -> int:
        return self.total - self.cached


@dataclass(frozen=True)
class CampaignResult:
    """Outcome of :meth:`Campaign.run`: records aligned with the specs."""

    name: str
    specs: tuple[RunSpec, ...]
    records: tuple[RunRecord, ...]
    num_executed: int
    num_cached: int


@dataclass(frozen=True)
class Campaign:
    """An ordered set of independent runs plus how to seed them.

    ``base_seed`` only matters for specs whose ``seed`` is ``None``: those
    get a deterministic per-run seed derived from the campaign seed and the
    spec's *scenario identity* (params without policy/stopping rule), so
    paired policy comparisons replay identical demand while distinct grid
    points draw independent streams.
    """

    name: str
    specs: tuple[RunSpec, ...]
    base_seed: int | None = None

    def __post_init__(self) -> None:
        ids = [spec.run_id for spec in self.resolved_specs()]
        if len(set(ids)) != len(ids):
            raise ValueError(f"campaign {self.name!r} contains duplicate run specs")

    def resolved_specs(self) -> tuple[RunSpec, ...]:
        """Specs with ``seed=None`` resolved via the campaign base seed."""
        if self.base_seed is None:
            return tuple(self.specs)
        resolved = []
        for spec in self.specs:
            if spec.seed is None:
                seed = derive_spec_seed(self.base_seed, spec.scenario_identity())
                spec = replace(spec, seed=seed)
            resolved.append(spec)
        return tuple(resolved)

    # ------------------------------------------------------------------ #
    def run(
        self,
        cache_dir: str | Path | None = None,
        workers: int | None = None,
        force: bool = False,
    ) -> CampaignResult:
        """Execute the campaign, reusing cached records where possible.

        ``cache_dir=None`` disables persistence entirely (every run
        executes, nothing is written) -- the hermetic mode used by most
        tests.  Otherwise completed runs are loaded from
        ``<cache_dir>/<experiment>/<run_id>.json`` and only the missing
        specs are executed, serially or in a pool of ``workers`` processes
        (:func:`~repro.utils.executors.default_executor`).  Each fresh record is persisted as soon
        as its run finishes, so a sweep interrupted (or aborted by a
        failing run) mid-way keeps everything completed up to that point
        and resumes from there.  ``force=True`` re-executes everything and
        overwrites the cache.
        """
        specs = self.resolved_specs()
        executor = default_executor(workers)
        store = RunStore(cache_dir) if cache_dir is not None else None

        records: dict[str, RunRecord] = {}
        pending: list[RunSpec] = []
        for spec in specs:
            cached = None if (store is None or force) else store.load(spec)
            if cached is not None:
                records[spec.run_id] = cached
            else:
                pending.append(spec)

        on_result = store.save if store is not None else None
        fresh = (
            executor.map(execute_spec, pending, on_result=on_result)
            if pending
            else []
        )
        for record in fresh:
            records[record.spec.run_id] = record

        return CampaignResult(
            name=self.name,
            specs=specs,
            records=tuple(records[spec.run_id] for spec in specs),
            num_executed=len(pending),
            num_cached=len(specs) - len(pending),
        )

    def status(self, cache_dir: str | Path | None = None) -> CampaignStatus:
        """Count how many of the campaign's runs are already cached."""
        specs = self.resolved_specs()
        if cache_dir is None:
            return CampaignStatus(name=self.name, total=len(specs), cached=0)
        store = RunStore(cache_dir)
        cached = sum(1 for spec in specs if store.contains(spec))
        return CampaignStatus(name=self.name, total=len(specs), cached=cached)


class RunStore:
    """Content-addressed JSON store for run records.

    Layout: ``<root>/<experiment>/<run_id>.json``.  Writes go through a
    temporary file plus :func:`os.replace` so a record is either absent or
    complete -- concurrent sweeps over the same cache directory never
    observe half-written JSON.
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)

    def path_for(self, spec: RunSpec) -> Path:
        return self.root / spec.experiment / f"{spec.run_id}.json"

    def contains(self, spec: RunSpec) -> bool:
        """Cheap cached-run check: does a non-empty record file exist?

        The file name *is* the spec's content hash and only validated
        records are ever written there, so existence is enough for status
        counting without parsing the record body (fig8 records carry full
        usage timelines).  :meth:`load` keeps the strict embedded-spec
        check for the execution path, where a corrupt or hand-edited file
        must trigger a re-run.
        """
        try:
            return self.path_for(spec).stat().st_size > 0
        except OSError:
            return False

    def load(self, spec: RunSpec) -> RunRecord | None:
        path = self.path_for(spec)
        try:
            payload = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            return None
        try:
            record = RunRecord.from_dict(payload)
        except (KeyError, ValueError):
            return None
        # Guard against hash collisions and hand-edited files: the stored
        # spec must be the one we asked for, or the run is re-executed.
        if record.spec.as_dict() != spec.as_dict():
            return None
        return record

    def save(self, record: RunRecord) -> Path:
        path = self.path_for(record.spec)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = json.dumps(record.as_dict(), sort_keys=True, indent=1)
        fd, tmp_name = tempfile.mkstemp(
            dir=path.parent, prefix=f".{record.spec.run_id}", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(payload)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        return path


__all__ = [
    "SCHEMA_VERSION",
    "Campaign",
    "CampaignResult",
    "CampaignStatus",
    "RunRecord",
    "RunSpec",
    "RunStore",
    "build_scenario",
    "default_cache_dir",
    "execute_spec",
    "expand_grid",
    "register_run_kind",
]
