"""Fig. 8: the dynamic proof-of-concept experiment of Section 5.

Nine heterogeneous slice requests arrive over a day on the small testbed
(two base stations, one switch, an edge and a core compute unit); the
experiment compares the overbooking orchestrator against the no-overbooking
baseline and records, per epoch:

* the accumulated net revenue (Fig. 8(a)),
* the per-slice radio reservation vs. utilisation at both BSs (Fig. 8(b)),
* the same for the two CU-facing transport links (Fig. 8(c)),
* the same for the CPU pools of the edge and core CUs (Fig. 8(d)).

The per-policy runs are declared as a campaign; :class:`Fig8Result` is a
view over the persisted run records (net-revenue series, admission outcome
and per-domain usage timelines), so the figure can be re-rendered from the
cache without re-simulating.

The paper's hardware inventory (Table 2) cannot be reproduced in software;
``TESTBED_CONFIG`` documents how each component is substituted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.experiments.campaign import Campaign, CampaignResult, RunRecord, RunSpec

#: Substitution map for Table 2 (see DESIGN.md).
TESTBED_CONFIG = {
    "vEPC (OpenEPC Rel. 7, one per slice)": "VNF entry in the slice's simulated network service",
    "UEs (Samsung Galaxy S7, one per slice and BS)": "aggregate per-BS demand stream per slice",
    "Transport (48-port OpenFlow 1.5 switch)": "simulated switch with 1 Gb/s links",
    "RAN (2x NEC 20 MHz small cells with RAN sharing)": "two simulated 20 MHz base stations with PRB-share enforcement",
    "CU (OpenStack Queens, 16 edge / 64 core CPUs)": "edge CU (16 CPUs) and core CU (64 CPUs, +30 ms) in the simulated compute domain",
}

#: The experiment starts at 06:00 and uses one-hour epochs.
START_HOUR = 6


@dataclass(frozen=True)
class Fig8Result:
    """Per-policy run records plus the figure's convenience accessors."""

    records: dict[str, RunRecord]

    def policies(self) -> list[str]:
        return list(self.records)

    def _extras(self, policy: str) -> dict:
        return dict(self.records[policy].extras)

    # -- Fig. 8(a): net revenue over time ------------------------------- #
    def per_epoch_net_revenue(self, policy: str) -> np.ndarray:
        return np.asarray(self._extras(policy)["per_epoch_net"], dtype=float)

    def cumulative_revenue(self, policy: str) -> np.ndarray:
        return np.cumsum(self.per_epoch_net_revenue(policy))

    def revenue_timeline(self, policy: str) -> list[tuple[str, float]]:
        """(hour-of-day label, cumulative net revenue) pairs."""
        cumulative = self.cumulative_revenue(policy)
        return [
            (f"{(START_HOUR + epoch) % 24:02d}:00", float(value))
            for epoch, value in enumerate(cumulative)
        ]

    # -- admission outcomes --------------------------------------------- #
    def admitted(self, policy: str) -> tuple[str, ...]:
        return tuple(self._extras(policy)["final_admitted"])

    def rejected(self, policy: str) -> tuple[str, ...]:
        return tuple(self._extras(policy)["final_rejected"])

    # -- Fig. 8(b)-(d): per-domain reservation vs utilisation ------------ #
    def domain_timeline(
        self, policy: str, domain: str
    ) -> dict[str, list[tuple[str, float, float]]]:
        """Per resource: (hour label, reserved, used) triples over time.

        ``domain`` is one of ``radio``, ``transport`` or ``compute``.
        Transport resources are labelled ``"endpoint--endpoint"``.
        """
        if domain not in ("radio", "transport", "compute"):
            raise ValueError("domain must be 'radio', 'transport' or 'compute'")
        timeline: dict[str, list[tuple[str, float, float]]] = {}
        for epoch_usage in self._extras(policy).get("epoch_usage", []):
            hour = f"{(START_HOUR + epoch_usage['epoch']) % 24:02d}:00"
            for label, usage in epoch_usage[domain].items():
                timeline.setdefault(label, []).append(
                    (hour, usage["reserved"], usage["used"])
                )
        return timeline

    def final_revenue(self, policy: str) -> float:
        return self.records[policy].summary["net_revenue"]


def fig8_campaign(
    policies: tuple[str, ...] = ("optimal", "no-overbooking"),
    num_epochs: int = 18,
    seed: int | None = 3,
) -> Campaign:
    """Declare the testbed experiment as a campaign (one run per policy)."""
    specs = tuple(
        RunSpec(
            experiment="fig8",
            kind="simulation",
            params={"scenario": "testbed", "num_epochs": num_epochs},
            policy=policy,
            seed=seed,
        )
        for policy in policies
    )
    return Campaign(name="fig8", specs=specs, base_seed=seed)


def reduce_fig8(result: CampaignResult) -> Fig8Result:
    """Rebuild the figure view from the campaign's run records."""
    return Fig8Result(
        records={record.spec.policy: record for record in result.records}
    )
