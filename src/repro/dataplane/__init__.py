"""Simulated data plane: statistical multiplexing and per-domain usage.

The paper's data plane (Fig. 1) shapes each slice's traffic with a
rate-control middlebox, which is what makes overbooking transparent: traffic
within the reservation is always forwarded, and only when a resource
saturates is the overbooked excess clamped back.  The simulation models that
per epoch in :mod:`repro.dataplane.multiplexing` (the SLA-conformant traffic
each slice loses on saturated radio / transport / compute resources, which
drives penalties) and accounts reservation vs. utilisation per domain with
:class:`UsageAccountant`, which is what the testbed experiment (Fig. 8)
measures.
"""

from repro.dataplane.usage import DomainUsage, UsageAccountant

__all__ = [
    "DomainUsage",
    "UsageAccountant",
]
