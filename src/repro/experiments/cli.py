"""Command-line front end for the experiment campaigns.

``python -m repro.experiments`` (or the ``repro-experiments`` console
script) drives the campaign layer:

* ``list`` -- show the registered campaigns and their run counts;
* ``run NAME`` -- execute a campaign (``--workers N`` fans out over a
  process pool; re-invocations skip runs already in the cache directory and
  report them as cached);
* ``status [NAME]`` -- show how much of each campaign is already cached.

Each campaign comes in two sizes: the default *quick* grid finishes in tens
of seconds and exists so sweeps (and their caching/parallelism) can be
exercised interactively; ``--full`` switches to the module-level reduced
defaults used by the benchmark harness, which regenerate the figure trends.
Records are cached under ``--cache-dir`` (default ``.repro_campaigns`` or
``$REPRO_CAMPAIGN_DIR``), keyed by each run spec's content hash, so quick
and full sweeps share whatever points they have in common.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass
from typing import Callable

from repro.experiments import ablations, fig4_topologies, fig5_homogeneous
from repro.experiments import fig6_heterogeneous, fig8_testbed, sla_violations
from repro.experiments.campaign import (
    Campaign,
    CampaignResult,
    RunStore,
    default_cache_dir,
)
from repro.utils.executors import default_executor

#: Quick-profile grid for Fig. 5 (2 operators x 3 load points, 3 runs each).
_FIG5_QUICK = {
    "operators": ("romanian", "swiss"),
    "slice_types": ("eMBB",),
    "alphas": (0.2, 0.5, 0.8),
    "relative_stds": (0.25,),
    "penalty_factors": (1.0,),
    "policies": ("optimal", "kac"),
    "num_base_stations": 6,
    "num_tenants": {"romanian": 8, "swiss": 8},
    "num_epochs": 2,
    "seed": 1,
}

_FIG6_QUICK = {
    "operators": ("romanian",),
    "mixes": (("eMBB", "mMTC"),),
    "betas": (0.0, 0.5, 1.0),
    "policies": ("optimal", "kac"),
    "num_base_stations": 6,
    "num_tenants": {"romanian": 8},
    "num_epochs": 2,
    "seed": 1,
}


@dataclass(frozen=True)
class CampaignEntry:
    """One runnable campaign: how to build it and how to render its result."""

    name: str
    description: str
    factory: Callable[[bool], tuple[Campaign, Callable[[CampaignResult], str]]]

    def build(self, full: bool) -> tuple[Campaign, Callable[[CampaignResult], str]]:
        return self.factory(full)


def _fig4_factory(full: bool):
    kwargs = {"seed": 1} if full else {"num_base_stations": 12, "seed": 1}
    campaign = fig4_topologies.fig4_campaign(**kwargs)

    def render(result: CampaignResult) -> str:
        rows = fig4_topologies.reduce_fig4(result).rows()
        lines = []
        for row in rows:
            cells = ", ".join(
                f"{key}={value:.2f}" if isinstance(value, float) else f"{key}={value}"
                for key, value in row.items()
            )
            lines.append(cells)
        return "\n".join(lines)

    return campaign, render


def _fig5_factory(full: bool):
    kwargs = {} if full else dict(_FIG5_QUICK)
    campaign = fig5_homogeneous.fig5_campaign(**kwargs)
    policies = kwargs.get("policies", fig5_homogeneous.DEFAULT_POLICIES)

    def render(result: CampaignResult) -> str:
        return fig5_homogeneous.format_fig5(
            fig5_homogeneous.reduce_fig5(result, policies=policies)
        )

    return campaign, render


def _fig6_factory(full: bool):
    kwargs = {} if full else dict(_FIG6_QUICK)
    campaign = fig6_heterogeneous.fig6_campaign(**kwargs)

    def render(result: CampaignResult) -> str:
        return fig6_heterogeneous.format_fig6(fig6_heterogeneous.reduce_fig6(result))

    return campaign, render


def _fig8_factory(full: bool):
    campaign = fig8_testbed.fig8_campaign(num_epochs=18 if full else 10, seed=3)

    def render(result: CampaignResult) -> str:
        fig8 = fig8_testbed.reduce_fig8(result)
        lines = []
        for policy in fig8.policies():
            admitted = ", ".join(fig8.admitted(policy)) or "(none)"
            lines.append(
                f"{policy:>15}: net revenue {fig8.final_revenue(policy):8.2f}, "
                f"admitted {admitted}"
            )
        return "\n".join(lines)

    return campaign, render


def _sla_factory(full: bool):
    kwargs = (
        {}
        if full
        else {"num_base_stations": 4, "num_tenants": 6, "num_epochs": 4, "seed": 5}
    )
    campaign = sla_violations.sla_violations_campaign(**kwargs)

    def render(result: CampaignResult) -> str:
        rows = sla_violations.reduce_sla_violations(result)
        return "\n".join(
            f"{row.label:<42} violations={row.violation_probability:.6%} "
            f"mean-drop={row.mean_drop_fraction:.2%} revenue={row.net_revenue:.2f}"
            for row in rows
        )

    return campaign, render


def _solver_ablation_factory(full: bool):
    sizes = ((4, 4), (6, 6), (8, 8)) if full else ((3, 3), (4, 4))
    solvers = ("optimal", "benders", "kac")
    campaign = ablations.solver_ablation_campaign(sizes=sizes, solvers=solvers, seed=11)

    def render(result: CampaignResult) -> str:
        rows = ablations.reduce_solver_ablation(result, solvers=solvers)
        return "\n".join(
            f"tenants={row.num_tenants:>3} BSs={row.num_base_stations:>3} "
            f"{row.solver:<8} runtime={row.runtime_s:7.3f}s "
            f"gap={row.optimality_gap_percent:6.2f}% admitted={row.num_admitted}"
            for row in rows
        )

    return campaign, render


def _generated_factory(full: bool):
    from repro.scenarios import campaigns as generated_campaigns
    from repro.scenarios.family import CHURN_FAMILY, DIFFERENTIAL_FAMILY

    if full:
        campaign = generated_campaigns.generated_campaign(
            CHURN_FAMILY, num_scenarios=12, base_seed=7
        )
    else:
        campaign = generated_campaigns.generated_campaign(
            DIFFERENTIAL_FAMILY, num_scenarios=4, base_seed=7
        )

    def render(result: CampaignResult) -> str:
        return generated_campaigns.format_generated(
            generated_campaigns.reduce_generated(result)
        )

    return campaign, render


def _trace_replay_factory(full: bool):
    from repro.workloads import campaigns as workload_campaigns

    trace = workload_campaigns.CITY_TRACE if full else workload_campaigns.QUICK_TRACE
    campaign = workload_campaigns.trace_replay_campaign(trace, num_replays=2)

    def render(result: CampaignResult) -> str:
        return workload_campaigns.format_trace_replay(
            workload_campaigns.reduce_trace_replay(result)
        )

    return campaign, render


def _forecaster_ablation_factory(full: bool):
    kwargs = (
        {}
        if full
        else {
            "forecasters": ("holt-winters", "naive"),
            "num_tenants": 3,
            "num_base_stations": 2,
            "num_days": 2,
            "epochs_per_day": 6,
            "seed": 2,
        }
    )
    campaign = ablations.forecaster_ablation_campaign(**kwargs)

    def render(result: CampaignResult) -> str:
        rows = ablations.reduce_forecaster_ablation(result)
        return "\n".join(
            f"{row.forecaster:<20} revenue={row.net_revenue:8.2f} "
            f"violations={row.violation_probability:.4%} admitted={row.num_admitted}"
            for row in rows
        )

    return campaign, render


CAMPAIGNS: dict[str, CampaignEntry] = {
    entry.name: entry
    for entry in (
        CampaignEntry(
            "fig4", "operator topologies and path statistics", _fig4_factory
        ),
        CampaignEntry(
            "fig5", "revenue gain in homogeneous scenarios", _fig5_factory
        ),
        CampaignEntry(
            "fig6", "net revenue in heterogeneous scenarios", _fig6_factory
        ),
        CampaignEntry("fig8", "dynamic testbed experiment", _fig8_factory),
        CampaignEntry("sla", "SLA-violation footprint", _sla_factory),
        CampaignEntry(
            "solver-ablation", "solver runtime and optimality gap", _solver_ablation_factory
        ),
        CampaignEntry(
            "forecaster-ablation", "forecaster choice on seasonal demand", _forecaster_ablation_factory
        ),
        CampaignEntry(
            "generated", "randomized scenario families (stochastic generator)", _generated_factory
        ),
        CampaignEntry(
            "trace-replay", "city-scale trace replay (columnar workload tier)", _trace_replay_factory
        ),
    )
}


# --------------------------------------------------------------------- #
# Commands
# --------------------------------------------------------------------- #
def _entry(name: str) -> CampaignEntry:
    try:
        return CAMPAIGNS[name]
    except KeyError:
        raise SystemExit(
            f"unknown campaign {name!r}; choose from {', '.join(sorted(CAMPAIGNS))}"
        ) from None


def cmd_list(args: argparse.Namespace, out) -> int:
    print(f"{'campaign':<22} {'runs':>5}  description", file=out)
    print("-" * 60, file=out)
    for name in sorted(CAMPAIGNS):
        campaign, _ = CAMPAIGNS[name].build(args.full)
        print(
            f"{name:<22} {len(campaign.specs):>5}  {CAMPAIGNS[name].description}",
            file=out,
        )
    return 0


def cmd_status(args: argparse.Namespace, out) -> int:
    names = [args.campaign] if args.campaign else sorted(CAMPAIGNS)
    print(f"cache directory: {args.cache_dir}", file=out)
    for name in names:
        campaign, _ = _entry(name).build(args.full)
        status = campaign.status(cache_dir=args.cache_dir)
        print(
            f"{name:<22} {status.cached:>4}/{status.total:<4} runs cached"
            f"{'' if status.missing else '  (complete)'}",
            file=out,
        )
        if args.campaign:  # single campaign: list every run
            store = RunStore(args.cache_dir)
            for spec in campaign.resolved_specs():
                marker = "+" if store.contains(spec) else "."
                print(f"  {marker} {spec.label()}", file=out)
    return 0


def cmd_run(args: argparse.Namespace, out) -> int:
    campaign, render = _entry(args.campaign).build(args.full)
    started = time.perf_counter()
    result = campaign.run(cache_dir=args.cache_dir, workers=args.workers, force=args.force)
    elapsed = time.perf_counter() - started
    rate = result.num_executed / elapsed if elapsed > 0 else float("inf")
    print(
        f"campaign {campaign.name}: {len(result.records)} runs "
        f"({result.num_executed} executed, {result.num_cached} cached) "
        f"in {elapsed:.1f}s [{default_executor(args.workers)!r}, {rate:.2f} runs/s]",
        file=out,
    )
    if result.num_executed == 0 and result.num_cached == len(result.records):
        print("all runs cached; nothing to execute", file=out)
    if not args.no_render:
        print(render(result), file=out)
    return 0


def _add_shared_options(parser: argparse.ArgumentParser, suppress: bool) -> None:
    """Register --cache-dir/--full on a (sub)parser.

    The options are accepted both before and after the subcommand
    (``--cache-dir X run fig5`` and ``run fig5 --cache-dir X``): the
    subparser copies use ``SUPPRESS`` defaults so an omitted flag leaves
    the top-level value untouched instead of clobbering it.
    """
    parser.add_argument(
        "--cache-dir",
        default=argparse.SUPPRESS if suppress else str(default_cache_dir()),
        help="run-record cache directory (default: %(default)s)"
        if not suppress
        else "run-record cache directory",
    )
    parser.add_argument(
        "--full",
        action="store_true",
        default=argparse.SUPPRESS if suppress else False,
        help="use the full reduced-figure grids instead of the quick profiles",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Run the paper's experiment campaigns (parallel, cached, resumable).",
    )
    _add_shared_options(parser, suppress=False)
    sub = parser.add_subparsers(dest="command", required=True)

    listing = sub.add_parser("list", help="list the registered campaigns")
    _add_shared_options(listing, suppress=True)

    status = sub.add_parser("status", help="show cached/total runs per campaign")
    status.add_argument("campaign", nargs="?", help="campaign name (default: all)")
    _add_shared_options(status, suppress=True)

    run = sub.add_parser("run", help="execute a campaign")
    _add_shared_options(run, suppress=True)
    run.add_argument("campaign", help=f"one of: {', '.join(sorted(CAMPAIGNS))}")
    run.add_argument(
        "--workers",
        type=int,
        default=None,
        help="process-pool size (default: run serially)",
    )
    run.add_argument(
        "--force", action="store_true", help="re-execute runs even if cached"
    )
    run.add_argument(
        "--no-render", action="store_true", help="skip printing the reduced figure"
    )
    return parser


def main(argv: list[str] | None = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    args = build_parser().parse_args(argv)
    commands = {"list": cmd_list, "status": cmd_status, "run": cmd_run}
    try:
        return commands[args.command](args, out)
    except BrokenPipeError:  # e.g. `... status | head`
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
