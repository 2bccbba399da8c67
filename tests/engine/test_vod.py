"""Tests for the video-on-demand server simulation."""

import pytest

from repro.blob.blob import MemoryBlob
from repro.codecs.jpeg_like import JpegLikeCodec
from repro.engine.recorder import Recorder
from repro.engine.vod import ServeOptions, SessionRequest, VodServer
from repro.errors import EngineError, ResourceError
from repro.media import frames
from repro.media.objects import video_object


def make_title(name, frame_count=25, size=48):
    video = video_object(frames.scene(size, size * 3 // 4, frame_count,
                                      "orbit"), name)
    return Recorder(MemoryBlob()).record(
        [video], encoders={name: JpegLikeCodec(quality=40).encode},
        interpretation_name=f"{name}-capture",
    )


def requests(count):
    return [SessionRequest(client=f"c{i}", title="feature")
            for i in range(count)]


@pytest.fixture(scope="module")
def movie():
    return make_title("feature")


@pytest.fixture
def server(movie):
    server = VodServer(bandwidth=2_000_000, prefetch_depth=8)
    server.publish("feature", movie)
    return server


class TestCatalog:
    def test_publish_and_titles(self, server):
        assert server.titles() == ["feature"]

    def test_duplicate_title_rejected(self, server, movie):
        with pytest.raises(EngineError, match="already"):
            server.publish("feature", movie)

    def test_unknown_title(self, server):
        with pytest.raises(EngineError, match="unknown title"):
            server.required_rate("nope")

    def test_required_rate_from_descriptors(self, server, movie):
        rate = server.required_rate("feature")
        descriptor = movie.sequence("feature").media_descriptor
        assert rate == descriptor["average_data_rate"]

    def test_required_rate_is_summed_once_per_title(self, server):
        assert server.required_rate("feature") is \
            server.required_rate("feature")

    def test_unrecorded_title_lacks_rates(self):
        from repro.core.interpretation import Interpretation, PlacementEntry
        from repro.core.media_types import media_type_registry

        video_type = media_type_registry.get("pal-video")
        blob = MemoryBlob(b"x" * 10)
        bare = Interpretation(blob)
        descriptor = video_type.make_media_descriptor(
            frame_rate=25, frame_width=8, frame_height=8, frame_depth=24,
            color_model="RGB",
        )
        bare.add("v", video_type, descriptor, [PlacementEntry(0, 0, 1, 10, 0)])
        server = VodServer(bandwidth=1_000_000)
        server.publish("bare", bare)
        # At every call, not once: a failed sum is not remembered.
        for _ in range(2):
            with pytest.raises(ResourceError, match="average_data_rate"):
                server.required_rate("bare")


class TestAdmission:
    def test_capacity(self, server):
        capacity = server.capacity("feature")
        assert capacity >= 1
        rate = float(server.required_rate("feature"))
        assert capacity == int(2_000_000 / rate)

    def test_admit_up_to_capacity(self, server):
        capacity = server.capacity("feature")
        admitted, rejected = server.admit(requests(capacity + 3))
        assert len(admitted) == capacity
        assert len(rejected) == 3

    def test_margin_reduces_capacity(self, movie):
        tight = VodServer(bandwidth=2_000_000)
        tight.publish("feature", movie)
        careful = VodServer(bandwidth=2_000_000, admission_margin=2.0)
        careful.publish("feature", movie)
        assert careful.capacity("feature") <= tight.capacity("feature") // 2 + 1

    def test_parameter_validation(self):
        with pytest.raises(EngineError):
            VodServer(bandwidth=0)
        with pytest.raises(EngineError):
            VodServer(bandwidth=1, admission_margin=0.5)


class TestServing:
    def test_admitted_sessions_play_clean(self, server):
        capacity = server.capacity("feature")
        count = max(1, capacity // 2)
        report = server.serve(requests(count))
        assert report.admitted_count == count
        assert report.clean_sessions() == count
        assert report.underrun_sessions() == 0

    def test_overload_without_admission_underruns(self, server):
        capacity = server.capacity("feature")
        overload = capacity * 3
        report = server.serve(requests(overload),
                              ServeOptions(enforce_admission=False))
        assert report.admitted_count == overload
        assert report.underrun_sessions() > 0

    def test_admission_protects_service(self, server):
        """The point of admission control: the same overload, admitted
        properly, keeps every served session clean."""
        capacity = server.capacity("feature")
        protected = server.serve(requests(capacity * 3),
                                 ServeOptions(enforce_admission=True))
        assert protected.underrun_sessions() == 0
        assert len(protected.rejected) == capacity * 2

    def test_empty_rejected(self, server):
        with pytest.raises(EngineError):
            server.serve([])

    def test_per_client_bandwidth(self, server):
        report = server.serve(requests(2))
        assert report.per_client_bandwidth == 1_000_000

    def test_whole_session_events_plan_each_title_once(self, movie,
                                                        monkeypatch):
        from repro.engine.player import Player
        from repro.obs import Observability

        plans = []
        plan = Player.plan_interpretation

        def counted(player, interpretation, *args, **kwargs):
            plans.append(interpretation)
            return plan(player, interpretation, *args, **kwargs)

        monkeypatch.setattr(Player, "plan_interpretation", counted)
        # Observability turns the replay memo off, so each of these
        # uniform-arrival sessions runs its own whole-session event.
        server = VodServer(bandwidth=2_000_000, obs=Observability())
        server.publish("feature", movie)
        options = ServeOptions(enforce_admission=False)
        server.serve(requests(3), options)
        server.serve(requests(2), options)
        assert plans == [movie]
