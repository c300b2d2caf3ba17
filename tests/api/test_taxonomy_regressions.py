"""Regression tests for boundary-error leaks found by `repro.analysis` (RA02).

Before the fix, a directly constructed status DTO with a bad state raised a
bare ValueError and double-starting a BrokerServer raised a bare
RuntimeError.  Both must surface as structured BrokerError subclasses with
stable codes so transports can map them to HTTP statuses.  Parameter values
(numbers, epochs, names) are the input contract's, one row per parameter in
``tests/api/test_input_contract.py``.
"""

from __future__ import annotations

import pytest

from repro.api.dtos import SliceRequestV1, SliceStatus
from repro.api.errors import LifecycleError, ValidationError
from repro.api.server import BrokerServer
from repro.api.broker import SliceBroker
from repro.core.milp_solver import DirectMILPSolver
from repro.core.slices import TEMPLATES
from repro.topology import operators


@pytest.fixture(scope="module")
def template():
    return TEMPLATES["eMBB"]


class TestDirectDtoConstruction:
    """DTO __post_init__ guards must speak the taxonomy."""

    def test_bogus_status_state(self):
        with pytest.raises(ValidationError) as excinfo:
            SliceStatus(name="t", state="bogus", arrival_epoch=0, duration_epochs=1)
        assert excinfo.value.code == "validation"

    def test_valid_direct_construction_still_works(self, template):
        request = SliceRequestV1(name="t", template=template)
        assert SliceRequestV1.from_dict(request.to_dict()) == request


class TestServerDoubleStart:
    def test_double_start_is_a_lifecycle_error(self):
        broker = SliceBroker(
            topology=operators.testbed_topology(), solver=DirectMILPSolver()
        )
        server = BrokerServer(broker)
        server.start()
        try:
            with pytest.raises(LifecycleError) as excinfo:
                server.start()
            assert excinfo.value.code == "lifecycle"
            assert excinfo.value.details["url"] == server.url
        finally:
            server.stop()

    def test_restart_after_stop_is_a_lifecycle_error(self):
        """stop() closes the bound socket; a silent restart used to launch a
        serve_forever thread over the dead fd."""
        broker = SliceBroker(
            topology=operators.testbed_topology(), solver=DirectMILPSolver()
        )
        server = BrokerServer(broker)
        server.start()
        server.stop()
        with pytest.raises(LifecycleError, match="cannot be restarted"):
            server.start()

    def test_stop_is_idempotent(self):
        broker = SliceBroker(
            topology=operators.testbed_topology(), solver=DirectMILPSolver()
        )
        server = BrokerServer(broker)
        server.start()
        server.stop()
        server.stop()
