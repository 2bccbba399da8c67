"""Tests for instrumentation wiring across the stack."""

import pytest

from repro.blob.blob import MemoryBlob
from repro.blob.pages import MemoryPager, PageStore
from repro.blob.store import BlobStore
from repro.codecs.jpeg_like import JpegLikeCodec
from repro.core.derivation import (
    Derivation,
    DerivationCategory,
    DerivationObject,
)
from repro.core.media_types import MediaKind
from repro.engine.recorder import Recorder
from repro.errors import BlobCorruptionError, ObservabilityError
from repro.faults import FaultPlan, FaultyPager
from repro.media import frames, signals
from repro.media.objects import audio_object, video_object
from repro.obs import NULL_OBS, Instrumented, Observability, Severity
from repro.query.database import MediaDatabase


@pytest.fixture
def obs():
    return Observability()


class TestInstrumentedMixin:
    def test_defaults_to_null_sink(self):
        class Thing(Instrumented):
            pass

        thing = Thing()
        assert thing.obs is NULL_OBS
        assert not thing.obs.enabled
        # hooks on the null sink are inert and record nothing
        thing.obs.metrics.counter("x").inc()
        assert thing.obs.metrics.snapshot() == {}

    def test_instrument_attaches_and_detaches(self, obs):
        class Thing(Instrumented):
            pass

        thing = Thing()
        assert thing.instrument(obs) is thing
        assert thing.obs is obs
        thing.instrument(None)
        assert thing.obs is NULL_OBS

    def test_children_hook_propagates(self, obs):
        class Child(Instrumented):
            pass

        class Parent(Instrumented):
            def __init__(self):
                self.child = Child()

            def _instrument_children(self, obs):
                self.child.instrument(obs)

        parent = Parent()
        parent.instrument(obs)
        assert parent.child.obs is obs


class TestPageStoreMetrics:
    def test_counts_reads_writes_and_checksums(self, obs):
        store = PageStore(MemoryPager(page_size=64), checksums=True, obs=obs)
        page = store.allocate()
        store.write(page, b"x" * 64)
        store.read(page)
        metrics = obs.metrics
        assert metrics.counter("blob.page.writes").value() == 1
        assert metrics.counter("blob.page.bytes_written").value() == 64
        assert metrics.counter("blob.page.reads").value() == 1
        assert metrics.counter("blob.page.bytes_read").value() == 64
        assert metrics.counter("blob.page.checksum_verifications").value() == 1
        assert metrics.counter("blob.page.checksum_failures").value() == 0

    def test_allocation_sources_labeled(self, obs):
        store = PageStore(MemoryPager(page_size=64), obs=obs)
        first = store.allocate()
        store.free(first)
        store.allocate()  # reuses the freed page
        allocations = obs.metrics.counter("blob.page.allocations")
        assert allocations.value(source="grow") == 1
        assert allocations.value(source="reuse") == 1
        assert obs.metrics.counter("blob.page.frees").value() == 1

    def test_checksum_failure_counted_before_raise(self, obs):
        store = PageStore(MemoryPager(page_size=64), checksums=True, obs=obs)
        page = store.allocate()
        store.write(page, b"x" * 64)
        store.pager.write_page(page, b"y" * 64)  # corrupt behind the store
        with pytest.raises(BlobCorruptionError):
            store.read(page)
        assert obs.metrics.counter("blob.page.checksum_failures").value() == 1


class TestBlobStoreMetrics:
    def test_creates_deletes_and_blob_gauge(self, obs):
        store = BlobStore(obs=obs)
        store.create("a")
        store.create("b")
        store.delete("a")
        assert obs.metrics.counter("blob.store.creates").value() == 2
        assert obs.metrics.counter("blob.store.deletes").value() == 1
        assert obs.metrics.gauge("blob.store.blobs").value() == 1

    def test_sink_propagates_to_page_store(self, obs):
        store = BlobStore(obs=obs)
        assert store.pages.obs is obs


class TestFaultyPagerMetrics:
    def test_injections_counted_by_kind(self, obs):
        pager = MemoryPager(page_size=64)
        store = PageStore(pager)
        pages = [store.allocate() for _ in range(40)]
        for page in pages:
            store.write(page, b"x" * 64)
        plan = FaultPlan(seed=7, page_size=64, transient_rate=0.5)
        faulty = FaultyPager(pager, plan, obs=obs)
        for page in pages:
            try:
                faulty.read_page(page)
            except Exception:
                pass
        injected = obs.metrics.counter("faults.injected")
        reads = obs.metrics.counter("faults.pager.reads")
        assert reads.value() == len(pages)
        assert injected.value(kind="transient") > 0
        assert injected.value(kind="transient") == faulty.fault_counts["transient"]

    def test_wrapping_in_page_store_propagates_sink(self, obs):
        pager = MemoryPager(page_size=64)
        plan = FaultPlan(seed=7, page_size=64)
        faulty = FaultyPager(pager, plan)
        store = PageStore(faulty, obs=obs)
        assert faulty.obs is obs
        assert store.obs is obs


class TestInterpretationMetrics:
    @pytest.fixture
    def movie(self):
        video = video_object(frames.scene(32, 24, 6, "orbit"), "video1")
        audio = audio_object(signals.sine(440, 0.2, 8000), "audio1",
                             sample_rate=8000)
        return Recorder(MemoryBlob()).record(
            [video, audio],
            encoders={"video1": JpegLikeCodec(quality=40).encode},
        )

    def test_materialize_counts_and_traces(self, movie, obs):
        movie.instrument(obs)
        movie.materialize("video1")
        materializations = obs.metrics.counter(
            "core.interpretation.materializations"
        )
        assert materializations.value(sequence="video1") == 1
        assert obs.metrics.counter(
            "core.interpretation.bytes_read"
        ).value() > 0
        (span,) = obs.tracer.named("core.materialize")
        assert span.attributes["sequence"] == "video1"
        assert span.attributes["elements"] == 6

    def test_element_reads_counted(self, movie, obs):
        movie.instrument(obs)
        movie.read_element("audio1", 0)
        reads = obs.metrics.counter("core.interpretation.element_reads")
        assert reads.value(sequence="audio1") == 1


class TestDerivedObjectMetrics:
    @pytest.fixture
    def derived(self):
        source = video_object(frames.scene(32, 24, 6, "orbit"), "src")
        identity = Derivation(
            name="identity",
            category=DerivationCategory.CHANGE_OF_CONTENT,
            input_kinds=(MediaKind.VIDEO,),
            result_kind=MediaKind.VIDEO,
            expand=lambda inputs, params: inputs[0],
            describe=lambda inputs, params: (inputs[0].media_type,
                                             inputs[0].descriptor),
        )
        return DerivationObject(identity, [source], {}).derive("derived")

    def test_expansion_counted_and_traced(self, derived, obs):
        derived.instrument(obs)
        derived.expand()
        expansions = obs.metrics.counter("core.derivation.expansions")
        assert expansions.value(derivation="identity") == 1
        assert len(obs.tracer.named("core.expand")) == 1

    def test_materialization_then_cache_hits(self, derived, obs):
        derived.instrument(obs)
        derived.materialize()
        derived.stream()  # served from the cached expansion
        metrics = obs.metrics
        assert metrics.counter("core.derivation.materializations").value(
            derivation="identity"
        ) == 1
        assert metrics.counter("core.derivation.cache_hits").value(
            derivation="identity"
        ) == 1

    def test_unmaterialized_access_expands_each_time(self, derived, obs):
        derived.instrument(obs)
        derived.stream()
        derived.stream()
        expansions = obs.metrics.counter("core.derivation.expansions")
        assert expansions.value(derivation="identity") == 2


class TestDatabaseMetrics:
    def test_catalog_lookups_and_misses(self, obs):
        db = MediaDatabase(obs=obs)
        video = video_object(frames.scene(32, 24, 4, "orbit"), "clip")
        db.add_object(video, title="Clip")
        db.get_object("clip")
        with pytest.raises(Exception):
            db.get_object("missing")
        assert obs.metrics.counter("query.catalog.lookups").value() == 2
        assert obs.metrics.counter("query.catalog.misses").value() == 1

    def test_objects_query_selectivity(self, obs):
        db = MediaDatabase(obs=obs)
        for i in range(4):
            clip = video_object(frames.scene(32, 24, 2, "orbit"), f"clip{i}")
            db.add_object(clip, topic="news" if i % 2 else "sport")
        db.objects(topic="news")
        assert obs.metrics.counter("query.objects.calls").value() == 1
        assert obs.metrics.counter("query.objects.candidates").value() == 4
        assert obs.metrics.counter("query.objects.matches").value() == 2
        (span,) = obs.tracer.named("query.objects")
        assert span.attributes["candidates"] == 4
        assert span.attributes["matches"] == 2

    def test_sink_propagates_to_blob_store_and_interpretations(self, obs):
        db = MediaDatabase(obs=obs)
        assert db.blobs.obs is obs
        video = video_object(frames.scene(32, 24, 4, "orbit"), "video1")
        movie = Recorder(MemoryBlob()).record([video])
        db.add_interpretation(movie)
        assert movie.obs is obs


class TestScopedViews:
    def test_scoped_metrics_prefix_names(self, obs):
        shard = obs.scoped("shard0")
        shard.metrics.counter("engine.play.underruns").inc(3)
        assert obs.metrics.get("shard0.engine.play.underruns").total() == 3
        assert shard.metrics.names() == ["shard0.engine.play.underruns"]

    def test_duplicate_scope_prefix_rejected(self, obs):
        obs.scoped("shard0")
        with pytest.raises(ObservabilityError, match="already claimed"):
            obs.scoped("shard0")

    def test_nested_scoping_composes_flat_prefix(self, obs):
        inner = obs.scoped("fleet").scoped("shard1")
        assert inner.scope == "fleet.shard1"
        inner.metrics.counter("reads").inc()
        assert "fleet.shard1.reads" in obs.metrics.names()

    def test_nested_view_exports_its_own_metrics(self, obs):
        inner = obs.scoped("fleet").scoped("shard1")
        inner.metrics.counter("reads").inc()
        obs.metrics.counter("fleet.other").inc()
        assert inner.metrics.names() == ["fleet.shard1.reads"]
        assert inner.metrics.snapshot() == {
            "fleet.shard1.reads": {"type": "counter",
                                   "series": [{"value": 1}]}}
        assert obs.scoped("fleet2").metrics.names() == []

    def test_server_on_a_nested_view_embeds_and_scrapes_its_metrics(self, obs):
        from repro.core.rational import Rational
        from repro.engine.vod import ServeOptions, SessionRequest, VodServer
        from repro.obs.telemetry import Telemetry

        inner = obs.scoped("fleet").scoped("shard1")
        telemetry = Telemetry()
        server = VodServer(50_000, obs=inner, telemetry=telemetry)
        video = video_object(frames.scene(16, 16, 4, "orbit"), "clip")
        server.publish("clip", Recorder(MemoryBlob()).record([video]))
        report = server.serve(
            [SessionRequest(client="c", title="clip",
                            arrival_time=Rational(1, 4))],
            ServeOptions(granularity="read"))
        (session,) = report.admitted
        assert session.report.metrics
        assert set(session.report.metrics) == set(inner.metrics.names())
        assert set(telemetry.store.metrics()) == set(inner.metrics.names())

    def test_nested_collision_caught_against_flat_namespace(self, obs):
        obs.scoped("fleet").scoped("shard1")
        with pytest.raises(ObservabilityError, match="already claimed"):
            obs.scoped("fleet.shard1")

    def test_scoped_spans_and_events_tagged(self, obs):
        shard = obs.scoped("shard2")
        with shard.tracer.span("serve"):
            pass
        shard.events.record(Severity.INFO, "engine", "start", at=0)
        (span,) = obs.tracer.spans
        (event,) = obs.events.events()
        assert span.attributes["scope"] == "shard2"
        assert event.attributes["scope"] == "shard2"
