"""Fig. 4: the three operator networks and their path statistics.

The paper characterises the networks through (a)-(c) their structure and
(d)-(e) the distributions of per-path bottleneck capacity and per-path delay
over all candidate paths between base stations and the edge compute unit.
This module regenerates those distributions for the synthetic operator
topologies.

The per-operator computation runs through the campaign layer (run kind
``path-stats``): each operator is one cacheable run whose record stores the
raw per-path capacity/delay samples, and the reduce step rebuilds the
empirical CDFs from them.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.campaign import (
    Campaign,
    CampaignResult,
    RunSpec,
    register_run_kind,
)
from repro.topology.network import NetworkTopology
from repro.topology.operators import OPERATOR_FACTORIES
from repro.topology.paths import PathSet, compute_path_sets
from repro.utils.stats import EmpiricalCDF


@dataclass(frozen=True)
class OperatorPathStatistics:
    """Path statistics of one operator network (one curve of Fig. 4(d)-(e))."""

    operator: str
    num_base_stations: int
    num_links: int
    mean_paths_per_pair: float
    capacity_cdf_gbps: EmpiricalCDF
    delay_cdf_us: EmpiricalCDF

    def summary(self) -> dict[str, float]:
        return {
            "num_base_stations": float(self.num_base_stations),
            "num_links": float(self.num_links),
            "mean_paths_per_pair": self.mean_paths_per_pair,
            "median_capacity_gbps": self.capacity_cdf_gbps.quantile(0.5),
            "max_capacity_gbps": self.capacity_cdf_gbps.quantile(1.0),
            "median_delay_us": self.delay_cdf_us.quantile(0.5),
            "p95_delay_us": self.delay_cdf_us.quantile(0.95),
        }


@dataclass(frozen=True)
class Fig4Result:
    """Per-operator path statistics (the full figure)."""

    operators: dict[str, OperatorPathStatistics]

    def rows(self) -> list[dict[str, float | str]]:
        rows: list[dict[str, float | str]] = []
        for name, stats in self.operators.items():
            row: dict[str, float | str] = {"operator": name}
            row.update(stats.summary())
            rows.append(row)
        return rows


def path_statistics(
    operator: str,
    topology: NetworkTopology,
    path_set: PathSet | None = None,
    k_paths: int = 6,
) -> OperatorPathStatistics:
    """Compute the Fig. 4(d)-(e) statistics for one topology.

    Only paths towards the edge compute unit are considered, matching the
    paper (the green dot in Fig. 4(a)-(c) is the edge CU).
    """
    paths = path_set or compute_path_sets(topology, k=k_paths)
    edge_paths = [p for p in paths.all_paths() if p.compute_unit == "edge-cu"]
    if not edge_paths:
        raise ValueError(f"topology {topology.name!r} has no path to the edge CU")
    capacities_gbps = [p.capacity_mbps / 1000.0 for p in edge_paths]
    delays_us = [p.delay_us for p in edge_paths]
    pairs = {(p.base_station, p.compute_unit) for p in edge_paths}
    mean_paths = len(edge_paths) / len(pairs)
    return OperatorPathStatistics(
        operator=operator,
        num_base_stations=len(topology.base_station_names),
        num_links=len(topology.links),
        mean_paths_per_pair=mean_paths,
        capacity_cdf_gbps=EmpiricalCDF.from_samples(capacities_gbps),
        delay_cdf_us=EmpiricalCDF.from_samples(delays_us),
    )


@register_run_kind("path-stats")
def _run_path_stats_spec(spec: RunSpec) -> dict:
    """Campaign run kind: one operator's Fig. 4 statistics.

    The record's extras keep the raw per-path samples so the reduce step
    (and any later re-rendering from the cache) can rebuild the CDFs.
    """
    params = spec.params
    factory = OPERATOR_FACTORIES[params["operator"]]
    topology = factory(
        num_base_stations=params.get("num_base_stations"), seed=spec.seed
    )
    stats = path_statistics(
        params["operator"], topology, k_paths=int(params.get("k_paths", 6))
    )
    return {
        "summary": stats.summary(),
        "extras": {
            "capacities_gbps": list(stats.capacity_cdf_gbps.values),
            "delays_us": list(stats.delay_cdf_us.values),
        },
    }


def fig4_campaign(
    num_base_stations: int | None = None,
    k_paths: int = 6,
    seed: int | None = None,
    operators: tuple[str, ...] = ("romanian", "swiss", "italian"),
) -> Campaign:
    """Declare the Fig. 4 per-operator computation as a campaign."""
    specs = tuple(
        RunSpec(
            experiment="fig4",
            kind="path-stats",
            params={
                "operator": operator,
                "num_base_stations": num_base_stations,
                "k_paths": k_paths,
            },
            seed=seed,
        )
        for operator in operators
    )
    return Campaign(name="fig4", specs=specs, base_seed=seed)


def reduce_fig4(result: CampaignResult) -> Fig4Result:
    """Rebuild the per-operator statistics from the run records."""
    operators: dict[str, OperatorPathStatistics] = {}
    for record in result.records:
        operator = record.spec.params["operator"]
        operators[operator] = OperatorPathStatistics(
            operator=operator,
            num_base_stations=int(record.summary["num_base_stations"]),
            num_links=int(record.summary["num_links"]),
            mean_paths_per_pair=record.summary["mean_paths_per_pair"],
            capacity_cdf_gbps=EmpiricalCDF.from_samples(
                record.extras["capacities_gbps"]
            ),
            delay_cdf_us=EmpiricalCDF.from_samples(record.extras["delays_us"]),
        )
    return Fig4Result(operators=operators)
