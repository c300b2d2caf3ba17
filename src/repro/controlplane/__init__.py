"""The hierarchical control plane of Fig. 2.

At the top, the :class:`~repro.controlplane.slice_manager.SliceManager`
receives tenant slice requests.  In the middle, the
:class:`~repro.controlplane.orchestrator.E2EOrchestrator` (the paper's OVNES)
runs admission control & resource reservation and forecasts each slice's
load from its monitoring peak track
(:class:`~repro.controlplane.monitoring.MonitoringService`, one peak per
epoch over all of the slice's base stations), and is the only stateful
entity.  At the bottom, per-domain controllers (RAN, transport, cloud)
enforce the orchestrator's decisions on the (simulated) data plane and feed
monitoring data back up.
"""

from repro.controlplane.monitoring import MonitoringService
from repro.controlplane.state import SliceState, SliceRecord, SliceRegistry
from repro.controlplane.slice_manager import SliceManager, SliceDescriptor
from repro.controlplane.controllers import (
    RanController,
    TransportController,
    CloudController,
    ControllerSet,
)
from repro.controlplane.orchestrator import E2EOrchestrator, OrchestratorConfig

__all__ = [
    "MonitoringService",
    "SliceState",
    "SliceRecord",
    "SliceRegistry",
    "SliceManager",
    "SliceDescriptor",
    "RanController",
    "TransportController",
    "CloudController",
    "ControllerSet",
    "E2EOrchestrator",
    "OrchestratorConfig",
]
