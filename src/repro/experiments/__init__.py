"""Reproduction of every table and figure of the paper's evaluation.

Each module regenerates one artefact (see DESIGN.md for the full index):

* :mod:`repro.experiments.table1_templates` -- Table 1 (slice templates);
* :mod:`repro.experiments.fig4_topologies` -- Fig. 4 (operator topologies and
  their path capacity / delay distributions);
* :mod:`repro.experiments.fig5_homogeneous` -- Fig. 5 (relative revenue gain
  in homogeneous scenarios);
* :mod:`repro.experiments.fig6_heterogeneous` -- Fig. 6 (net revenue in
  heterogeneous scenarios);
* :mod:`repro.experiments.sla_violations` -- the SLA-violation statistics
  quoted in Sections 4.3.3-4.3.4;
* :mod:`repro.experiments.fig8_testbed` -- Fig. 8 (the dynamic testbed
  experiment);
* :mod:`repro.experiments.ablations` -- additional ablations (solver runtime
  and optimality gap, forecaster choice).

Every sweep is declared through the campaign layer
(:mod:`repro.experiments.campaign`): grids expand into content-hashed run
specs, execute through pluggable (serial / process-pool) executors with
per-run seeds, persist their records as JSON and resume from the cache.
``python -m repro.experiments`` (see :mod:`repro.experiments.cli`) lists,
runs and reports the status of the registered campaigns.

All simulation run kinds reach the control plane exclusively through the
northbound :class:`~repro.api.broker.SliceBroker` facade (via the simulation
engine); no experiment touches the orchestrator directly.
"""

from repro.experiments.campaign import (
    Campaign,
    CampaignResult,
    CampaignStatus,
    RunRecord,
    RunSpec,
    RunStore,
    execute_spec,
    expand_grid,
)
from repro.experiments.table1_templates import table1_rows
from repro.experiments.fig4_topologies import Fig4Result, fig4_campaign
from repro.experiments.fig5_homogeneous import Fig5Point, fig5_campaign
from repro.experiments.fig6_heterogeneous import Fig6Point, fig6_campaign
from repro.experiments.sla_violations import (
    SlaViolationResult,
    sla_violations_campaign,
)
from repro.experiments.fig8_testbed import Fig8Result, fig8_campaign
from repro.experiments.ablations import (
    SolverAblationRow,
    solver_ablation_campaign,
    ForecasterAblationRow,
    forecaster_ablation_campaign,
)

__all__ = [
    "Campaign",
    "CampaignResult",
    "CampaignStatus",
    "RunRecord",
    "RunSpec",
    "RunStore",
    "execute_spec",
    "expand_grid",
    "table1_rows",
    "Fig4Result",
    "fig4_campaign",
    "Fig5Point",
    "fig5_campaign",
    "Fig6Point",
    "fig6_campaign",
    "SlaViolationResult",
    "sla_violations_campaign",
    "Fig8Result",
    "fig8_campaign",
    "SolverAblationRow",
    "solver_ablation_campaign",
    "ForecasterAblationRow",
    "forecaster_ablation_campaign",
]
