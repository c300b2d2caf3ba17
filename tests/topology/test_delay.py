"""Tests for the store-and-forward delay model (footnote 11)."""

import pytest

from repro.topology.delay import FRAME_BITS, PER_HOP_PROCESSING_US, link_delay_us
from repro.topology.elements import LinkTechnology, TransportLink


def make_link(capacity_mbps=1000.0, length_km=1.0, technology=LinkTechnology.FIBER):
    return TransportLink(
        endpoint_a="a",
        endpoint_b="b",
        capacity_mbps=capacity_mbps,
        length_km=length_km,
        technology=technology,
    )


class TestLinkDelay:
    def test_components_add_up(self):
        link = make_link(capacity_mbps=1000.0, length_km=2.0)
        expected = FRAME_BITS / 1000.0 + 2.0 * 4.0 + PER_HOP_PROCESSING_US
        assert link_delay_us(link) == pytest.approx(expected)

    def test_wireless_has_higher_propagation(self):
        fiber = make_link(technology=LinkTechnology.FIBER, length_km=10.0)
        wireless = make_link(technology=LinkTechnology.WIRELESS, length_km=10.0)
        assert link_delay_us(wireless) > link_delay_us(fiber)

    def test_faster_link_lower_transmission_delay(self):
        slow = make_link(capacity_mbps=2_000.0, length_km=0.0)
        fast = make_link(capacity_mbps=200_000.0, length_km=0.0)
        assert link_delay_us(fast) < link_delay_us(slow)

    def test_paper_example_2gbps(self):
        # A 12 000-bit frame on a 2 Gb/s link takes 6 us to serialise.
        link = make_link(capacity_mbps=2000.0, length_km=0.0)
        assert link_delay_us(link) == pytest.approx(6.0 + PER_HOP_PROCESSING_US)
