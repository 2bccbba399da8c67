"""Property-based tests for fault injection (hypothesis).

Two promises are load-bearing: faulted runs are bit-reproducible (same
seed, same report — ISSUE requirement), and page checksums catch every
corruption the plan injects (integrity is detection, not luck).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blob.pages import MemoryPager, PageStore
from repro.core.rational import Rational
from repro.engine.player import (
    AdaptationPolicy,
    CostModel,
    Player,
    RetryPolicy,
    _PlannedRead,
)
from repro.errors import BlobCorruptionError
from repro.faults import FaultPlan, FaultyPager

plans = st.builds(
    FaultPlan,
    seed=st.integers(min_value=0, max_value=2**32),
    page_size=st.sampled_from([64, 512, 4096]),
    transient_rate=st.floats(0.0, 0.5),
    bad_page_rate=st.floats(0.0, 0.3),
    corruption_rate=st.floats(0.0, 0.5),
    degraded_fraction=st.floats(0.0, 1.0),
    degradation_span=st.integers(1, 64),
)


@settings(max_examples=40, deadline=None)
@given(
    plan=plans,
    count=st.integers(min_value=1, max_value=60),
    size=st.integers(min_value=1, max_value=10_000),
)
def test_same_seed_playback_reports_are_bit_identical(plan, count, size):
    reads = [
        _PlannedRead(f"v[{i}]", i * size, size, Rational(i, 25))
        for i in range(count)
    ]

    def run():
        player = Player(
            CostModel(bandwidth=50_000),
            fault_plan=plan,
            retry_policy=RetryPolicy(max_retries=2,
                                     abort_skip_fraction=None),
            adaptation=AdaptationPolicy(levels=3),
        )
        return player.play(reads)

    first = run()
    second = run()
    assert first == second
    assert first.element_count + first.skipped_elements == count


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32),
    corruption_rate=st.floats(0.05, 1.0),
    visits=st.integers(min_value=1, max_value=40),
    payload=st.binary(min_size=1, max_size=64),
)
def test_checksums_catch_every_injected_corruption(
        seed, corruption_rate, visits, payload):
    plan = FaultPlan(seed=seed, page_size=64,
                     corruption_rate=corruption_rate)
    pager = FaultyPager(MemoryPager(page_size=64), plan)
    store = PageStore(pager, checksums=True)
    page = store.allocate()
    store.write(page, payload)
    for visit in range(visits):
        injected = plan.is_corrupted(page, visit)
        try:
            data = store.read(page)
        except BlobCorruptionError:
            assert injected  # never a false alarm
        else:
            assert not injected  # never a miss
            assert data[:len(payload)] == payload
    assert pager.fault_counts["corrupted"] == sum(
        plan.is_corrupted(page, v) for v in range(visits)
    )


@settings(max_examples=60, deadline=None)
@given(
    plan=plans,
    offset=st.integers(min_value=0, max_value=10**6),
    size=st.integers(min_value=0, max_value=10**5),
)
def test_pages_of_covers_exactly_the_span(plan, offset, size):
    pages = list(plan.pages_of(offset, size))
    if size == 0:
        assert pages == []
        return
    assert pages[0] == offset // plan.page_size
    assert pages[-1] == (offset + size - 1) // plan.page_size
    assert pages == list(range(pages[0], pages[-1] + 1))
