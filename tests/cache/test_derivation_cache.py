"""DerivationCache: cost-driven admission, density eviction, wiring."""

import pytest

from repro.blob.blob import PagedBlob
from repro.blob.pages import MemoryPager, PageStore
from repro.cache import ENTRY_BUCKETS, DerivationCache, object_bytes
from repro.core.composition import MultimediaObject
from repro.core.derivation import Derivation, DerivationCategory
from repro.core.elements import MediaElement
from repro.core.media_object import StreamMediaObject
from repro.core.media_types import MediaKind, media_type_registry
from repro.core.rational import Rational
from repro.core.streams import TimedStream
from repro.engine.player import CostModel, Player
from repro.engine.vod import VodServer
from repro.errors import CacheError
from repro.media import frames
from repro.media.objects import video_object
from repro.obs import Observability
from repro.obs.profile import STAGE_BUCKETS, STAGE_METRIC


VIDEO_TYPE = media_type_registry.get("pal-video")


def clip(total_bytes: int, name: str = "clip") -> StreamMediaObject:
    """A video object whose stream totals exactly ``total_bytes``."""
    stream = TimedStream.from_elements(
        VIDEO_TYPE, [MediaElement(payload=0, size=total_bytes)]
    )
    descriptor = VIDEO_TYPE.make_media_descriptor(
        frame_rate=25, frame_width=8, frame_height=8, frame_depth=24,
        color_model="RGB",
    )
    return StreamMediaObject(VIDEO_TYPE, descriptor, stream, name=name)


def derive(inputs, result, name="test-derivation", counter=None):
    """A derived object expanding to ``result``; ``counter`` (a list)
    collects one entry per actual expansion."""

    def expand(objs, params):
        if counter is not None:
            counter.append(1)
        return result

    derivation = Derivation(
        name=name,
        category=DerivationCategory.CHANGE_OF_CONTENT,
        input_kinds=(MediaKind.VIDEO,),
        result_kind=MediaKind.VIDEO,
        expand=expand,
        variadic=True,
        describe=lambda objs, params: (objs[0].media_type,
                                       objs[0].descriptor),
    )
    return derivation(inputs, name=f"{name}-out")


#: seek_time=0 makes benefit = (input_bytes + expanded_bytes) / bandwidth —
#: density is then a pure, predictable function of the test's byte sizes.
LINEAR = CostModel(bandwidth=1000, seek_time=0)


class TestValidation:
    def test_budget_validated(self):
        with pytest.raises(CacheError, match="budget"):
            DerivationCache(budget_bytes=0)

    def test_threshold_validated(self):
        with pytest.raises(CacheError, match="non-negative"):
            DerivationCache(min_benefit_seconds=-1)


class TestObjectBytes:
    def test_stream_object_sized_from_stream(self):
        assert object_bytes(clip(700)) == 700

    def test_derived_object_sized_from_derivation_object(self):
        derived = derive([clip(5000)], clip(5000))
        assert object_bytes(derived) == \
            derived.derivation_object.storage_size()


class TestAdmission:
    def test_materialize_expands_once(self):
        cache = DerivationCache(budget_bytes=10_000, cost_model=LINEAR)
        calls = []
        derived = derive([clip(100)], clip(400), counter=calls)
        first = cache.materialize(derived)
        second = cache.materialize(derived)
        assert first is second
        assert calls == [1]
        assert derived in cache
        assert cache.occupancy_bytes == 400

    def test_cheap_expansions_rejected(self):
        # benefit = (100 + 400)/1000 = 0.5 s < 1 s threshold.
        cache = DerivationCache(budget_bytes=10_000, cost_model=LINEAR,
                                min_benefit_seconds=1.0)
        derived = derive([clip(100)], clip(400))
        assert not cache.put(derived, clip(400))
        assert derived not in cache
        assert cache.rejections == 1

    def test_oversized_expansions_rejected(self):
        cache = DerivationCache(budget_bytes=1000, cost_model=LINEAR)
        derived = derive([clip(100)], clip(2000))
        assert not cache.put(derived, clip(2000))
        assert cache.rejections == 1

    def test_newcomer_never_displaces_denser_entries(self):
        cache = DerivationCache(budget_bytes=1000, cost_model=LINEAR)
        # Dense: 9000 input bytes behind 900 expanded bytes.
        dense = derive([clip(9000)], clip(900), name="dense")
        assert cache.put(dense, clip(900))
        # Sparse newcomer: 100 input bytes behind 900 expanded bytes —
        # admitting it would need to evict the denser incumbent.
        sparse = derive([clip(100)], clip(900), name="sparse")
        assert not cache.put(sparse, clip(900))
        assert dense in cache and sparse not in cache
        assert cache.stats()["rejections"] == 1

    def test_denser_newcomer_evicts_sparse_entries(self):
        cache = DerivationCache(budget_bytes=1000, cost_model=LINEAR)
        sparse = derive([clip(100)], clip(900), name="sparse")
        assert cache.put(sparse, clip(900))
        dense = derive([clip(9000)], clip(900), name="dense")
        assert cache.put(dense, clip(900))
        assert dense in cache and sparse not in cache
        assert cache.evictions == 1
        assert cache.occupancy_bytes <= cache.budget_bytes

    def test_budget_never_exceeded(self):
        cache = DerivationCache(budget_bytes=1000, cost_model=LINEAR)
        for i in range(10):
            derived = derive([clip((i + 1) * 1000)], clip(300),
                             name=f"d{i}")
            cache.put(derived, clip(300))
            assert cache.occupancy_bytes <= cache.budget_bytes
        assert len(cache) == 3  # 3 x 300 bytes fit, the rest evicted

    def test_eviction_order_is_density_then_recency(self):
        cache = DerivationCache(budget_bytes=10_000, cost_model=LINEAR)
        sparse = derive([clip(100)], clip(500), name="sparse")
        dense = derive([clip(9000)], clip(500), name="dense")
        cache.put(sparse, clip(500))
        cache.put(dense, clip(500))
        assert cache.keys() == [sparse.object_id, dense.object_id]

    def test_refresh_keeps_single_entry(self):
        cache = DerivationCache(budget_bytes=10_000, cost_model=LINEAR)
        derived = derive([clip(100)], clip(400))
        cache.put(derived, clip(400))
        assert cache.put(derived, clip(400))
        assert len(cache) == 1

    def test_discard_and_clear(self):
        cache = DerivationCache(budget_bytes=10_000, cost_model=LINEAR)
        derived = derive([clip(100)], clip(400))
        cache.put(derived, clip(400))
        assert cache.discard(derived)
        assert not cache.discard(derived)
        cache.put(derived, clip(400))
        cache.clear()
        assert len(cache) == 0 and cache.occupancy_bytes == 0


class TestMetrics:
    def test_hit_miss_admission_counters(self):
        obs = Observability()
        cache = DerivationCache(budget_bytes=10_000, cost_model=LINEAR,
                                obs=obs)
        derived = derive([clip(100)], clip(400))
        cache.materialize(derived)
        cache.materialize(derived)
        metrics = obs.metrics
        kind = derived.derivation_object.derivation.name
        assert metrics.counter("cache.derivation.misses").value(
            derivation=kind) == 1
        assert metrics.counter("cache.derivation.hits").value(
            derivation=kind) == 1
        assert metrics.counter("cache.derivation.admissions").total() == 1
        assert metrics.gauge("cache.derivation.hit_ratio").value() == 0.5
        assert metrics.gauge(
            "cache.derivation.occupancy_bytes").value() == 400
        assert metrics.histogram(
            "cache.derivation.entry_bytes", buckets=ENTRY_BUCKETS,
        ).count() == 1

    def test_rejection_counter_labeled_by_reason(self):
        obs = Observability()
        cache = DerivationCache(budget_bytes=1000, cost_model=LINEAR,
                                min_benefit_seconds=0.3, obs=obs)
        kind = "reasons"
        cheap = derive([clip(10)], clip(100), name=kind)
        huge = derive([clip(9000)], clip(2000), name=kind)
        cache.put(cheap, clip(100))
        cache.put(huge, clip(2000))
        rejections = obs.metrics.counter("cache.derivation.rejections")
        assert rejections.value(derivation=kind, reason="cheap") == 1
        assert rejections.value(derivation=kind, reason="too_large") == 1


class TestDerivedObjectWiring:
    def test_attach_cache_replaces_memo(self):
        cache = DerivationCache(budget_bytes=10_000, cost_model=LINEAR)
        calls = []
        derived = derive([clip(100)], clip(400), counter=calls)
        derived.materialize()  # legacy unbounded memo
        assert derived._expanded is not None
        derived.attach_cache(cache)
        assert derived._expanded is None  # memo migrated into the cache
        assert derived in cache
        assert derived.is_materialized
        derived.materialize()
        assert calls == [1]  # still only the original expansion

    def test_discard_through_cache(self):
        cache = DerivationCache(budget_bytes=10_000, cost_model=LINEAR)
        derived = derive([clip(100)], clip(400)).attach_cache(cache)
        derived.materialize()
        derived.discard_materialization()
        assert not derived.is_materialized
        assert derived not in cache

    def test_detach_returns_to_memo(self):
        cache = DerivationCache(budget_bytes=10_000, cost_model=LINEAR)
        calls = []
        derived = derive([clip(100)], clip(400), counter=calls)
        derived.attach_cache(cache)
        derived.materialize()
        derived.attach_cache(None)
        derived.materialize()
        assert len(calls) == 2  # cache state no longer consulted


class TestEngineWiring:
    def test_player_plans_through_cache(self):
        cache = DerivationCache(budget_bytes=1 << 20, cost_model=LINEAR)
        calls = []
        result = video_object(frames.scene(8, 8, 4, "pan"), "cut")
        derived = derive([clip(2000)], result, counter=calls)
        multimedia = MultimediaObject("mm")
        # Explicit duration: interval math must not expand the derived
        # component behind the cache's back.
        multimedia.add_temporal(derived, at=0, label="d",
                                duration=result.stream().duration_seconds())
        player = Player(CostModel(bandwidth=2_000_000),
                        derivation_cache=cache)
        player.plan_multimedia(multimedia)
        player.plan_multimedia(multimedia)
        assert calls == [1]
        assert cache.hits == 1

    def test_one_expansion_price(self):
        """§4.2 has one price: the cache's benefit, the player's
        ``derivation_expand`` observation and ``CostModel.expansion_cost``
        agree for the same derived object and cost model."""
        model = CostModel(bandwidth=2_000_000, seek_time=Rational(1, 100),
                          decode_rate=3_000_000)
        source = clip(2000)
        result = video_object(frames.scene(8, 8, 4, "pan"), "cut")
        derived = derive([source], result)
        multimedia = MultimediaObject("mm")
        multimedia.add_temporal(derived, at=0, label="d",
                                duration=result.stream().duration_seconds())
        obs = Observability()
        cache = DerivationCache(budget_bytes=1 << 20, cost_model=model)
        Player(model, derivation_cache=cache, obs=obs).plan_multimedia(
            multimedia)
        price = model.expansion_cost(object_bytes(source),
                                     result.stream().total_size())
        assert price == model.element_cost(
            2000 + result.stream().total_size(), contiguous=False)
        [entry] = cache.manifest()["entries"]
        assert entry["benefit_seconds"] == float(price)
        stages = obs.metrics.histogram(STAGE_METRIC, buckets=STAGE_BUCKETS)
        assert stages.count(stage="derivation_expand") == 1
        assert stages.sum(stage="derivation_expand") == float(price)

    def test_vod_prefetch_warms_page_pool(self):
        from repro.cache import BufferPool
        from repro.engine.recorder import Recorder

        obs = Observability()
        pool = BufferPool(256)
        store = PageStore(MemoryPager(page_size=256), checksums=True,
                          buffer_pool=pool, obs=obs)
        movie = Recorder(PagedBlob(store)).record(
            [video_object(frames.scene(16, 16, 6, "pan"), "video1")]
        )
        server = VodServer(bandwidth=2_000_000, obs=obs)
        server.publish("feature", movie)
        pager_reads = obs.metrics.counter("blob.page.pager_reads")

        cold_before = pager_reads.total()
        warmed = server.prefetch("feature")
        cold = pager_reads.total() - cold_before

        warm_before = pager_reads.total()
        assert server.prefetch("feature") == warmed
        warm = pager_reads.total() - warm_before

        assert warmed > 0
        assert warm < cold
        assert obs.metrics.counter("vod.prefetches").total() == 2
        assert obs.metrics.counter(
            "vod.prefetch_bytes").total() == 2 * warmed

    def test_vod_prefetch_unknown_title(self):
        from repro.errors import EngineError

        server = VodServer(bandwidth=1_000_000)
        with pytest.raises(EngineError, match="unknown title"):
            server.prefetch("nope")
