"""``list_slices`` pages are slices of the broker's sorted name index.

Hypothesis drives random submit / release / advance sequences, with a
marker cache small enough that withdrawal markers are evicted, and checks
every ``(offset, limit)`` page and its ``total`` against the reference: the
sorted set of every name the broker can report a status for (queued,
registered, or withdrawn while queued and still remembered).
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import BrokerError, SliceBroker, SliceRequestV1
from tests.conftest import CoinSolver, build_tiny_topology

NAMES = [f"s{index}" for index in range(8)]

OPERATIONS = st.lists(
    st.one_of(
        st.tuples(st.just("submit"), st.sampled_from(NAMES), st.integers(0, 2), st.integers(1, 3)),
        st.tuples(st.just("release"), st.sampled_from(NAMES)),
        st.tuples(st.just("advance")),
    ),
    max_size=40,
)


def reference_names(broker: SliceBroker) -> list[str]:
    orchestrator = broker.orchestrator
    return sorted(
        {request.name for request in orchestrator.slice_manager.pending_requests}
        | {record.name for record in orchestrator.registry.all_records()}
        | set(broker._withdrawn)
    )


def check_pages(broker: SliceBroker) -> None:
    names = reference_names(broker)
    assert broker.slice_count() == len(names)
    for offset in range(len(names) + 2):
        for limit in (None, 0, 1, 3):
            page = broker.list_slices(offset=offset, limit=limit)
            stop = None if limit is None else offset + limit
            assert [status.name for status in page] == names[offset:stop]
            assert page.total == len(names)
            assert list(page) == [broker.status(name) for name in names[offset:stop]]


@settings(max_examples=60, deadline=None)
@given(operations=OPERATIONS, cache_limit=st.integers(1, 4))
def test_every_page_is_a_slice_of_the_sorted_reference(operations, cache_limit):
    broker = SliceBroker(
        topology=build_tiny_topology(), solver=CoinSolver(), cache_limit=cache_limit
    )
    epoch = 0
    for operation in operations:
        try:
            if operation[0] == "submit":
                _, name, delay, duration = operation
                broker.submit(
                    SliceRequestV1.of(
                        name, "uRLLC", duration_epochs=duration, arrival_epoch=epoch + delay
                    )
                )
            elif operation[0] == "release":
                broker.release(operation[1], epoch=epoch)
            else:
                broker.advance_epoch(epoch)
                epoch += 1
        except BrokerError:
            pass  # an illegal submit or release leaves the tables alone
        check_pages(broker)


def test_a_batch_rolled_back_at_intake_leaves_no_name_behind():
    broker = SliceBroker(topology=build_tiny_topology(), solver=CoinSolver())
    broker.submit(SliceRequestV1.of("kept", "uRLLC", duration_epochs=2))
    try:
        broker.submit_batch(
            [
                SliceRequestV1.of("new", "uRLLC", duration_epochs=2),
                SliceRequestV1.of("kept", "uRLLC", duration_epochs=2),  # already queued
            ]
        )
    except BrokerError:
        pass
    check_pages(broker)
    assert [status.name for status in broker.list_slices()] == ["kept"]
