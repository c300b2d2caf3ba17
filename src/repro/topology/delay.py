"""Store-and-forward delay model for transport paths.

The paper (footnote 11, Section 4.3.1) computes per-path delays assuming
store-and-forward switching with:

* a transmission delay of ``12000 / C_e`` per link (a 12 000-bit frame, i.e.
  a 1500-byte packet, serialised at the link rate),
* a propagation delay of 4 us/km on cable (fiber/copper) and 5 us/km on
  wireless links,
* a fixed 5 us per hop for processing.

All delays are expressed in microseconds; link capacities in Mb/s (so a
12 000-bit frame on a 1 Gb/s = 1000 Mb/s link takes 12 us).
"""

from __future__ import annotations

from repro.topology.elements import TransportLink

FRAME_BITS = 12_000.0
PER_HOP_PROCESSING_US = 5.0


def link_delay_us(link: TransportLink) -> float:
    """One-hop store-and-forward delay of a transport link, in microseconds."""
    transmission = FRAME_BITS / link.capacity_mbps  # Mb/s == bits/us
    propagation = link.length_km * link.technology.propagation_us_per_km
    return transmission + propagation + PER_HOP_PROCESSING_US
