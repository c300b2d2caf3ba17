"""Radio domain: RAN sharing, i.e. PRB shares of a base station per slice.

The bitrate-to-spectrum factor is the base station's own
(:meth:`repro.topology.elements.BaseStation.mhz_for_bitrate`), the one the
solver reserves with; this package only turns it into PRB shares.
"""

from repro.radio.ran_sharing import RanSlicingEnforcer, RadioShare

__all__ = [
    "RanSlicingEnforcer",
    "RadioShare",
]
