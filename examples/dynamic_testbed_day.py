#!/usr/bin/env python3
"""Replay the paper's proof-of-concept testbed day (Fig. 8).

Nine slice requests (three uRLLC, three mMTC, three eMBB) arrive every two
hours starting at 06:00 on a two-base-station testbed with a 16-CPU edge
cloud and a 64-CPU core cloud.  The orchestrator learns each slice's load
online and adapts reservations, which lets it admit slices the no-overbooking
baseline has to reject.

Run with:  python examples/dynamic_testbed_day.py
"""

from repro.experiments.fig8_testbed import fig8_campaign, reduce_fig8


def main(num_epochs: int = 18, seed: int = 3) -> None:
    """Replay the testbed day; ``num_epochs`` shrinks it for smoke tests."""
    campaign = fig8_campaign(policies=("optimal", "no-overbooking"), num_epochs=num_epochs, seed=seed)
    result = reduce_fig8(campaign.run())

    print("Admission outcome")
    print("-" * 60)
    for policy in result.policies():
        admitted = ", ".join(result.admitted(policy)) or "(none)"
        rejected = ", ".join(result.rejected(policy)) or "(none)"
        print(f"{policy:>15}: admitted  {admitted}")
        print(f"{'':>15}  rejected  {rejected}")

    print("\nCumulative net revenue over the day (Fig. 8a)")
    print("-" * 60)
    timelines = {policy: dict(result.revenue_timeline(policy)) for policy in result.policies()}
    hours = [hour for hour, _ in result.revenue_timeline("optimal")]
    print(f"{'hour':<7} {'overbooking':>12} {'no-overbooking':>15}")
    for hour in hours:
        print(
            f"{hour:<7} {timelines['optimal'][hour]:>12.2f} "
            f"{timelines['no-overbooking'][hour]:>15.2f}"
        )

    print("\nEdge compute unit: reservation vs utilisation (Fig. 8d)")
    print("-" * 60)
    timeline = result.domain_timeline("optimal", "compute")["edge-cu"]
    print(f"{'hour':<7} {'reserved CPUs':>14} {'used CPUs':>10}")
    for hour, reserved, used in timeline:
        print(f"{hour:<7} {reserved:>14.1f} {used:>10.1f}")


if __name__ == "__main__":
    main()
