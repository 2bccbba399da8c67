"""Tests for VodServer checkpoint/restore/resume failover."""

import json

import pytest

from repro.blob.blob import MemoryBlob
from repro.cache import DerivationCache
from repro.codecs.jpeg_like import JpegLikeCodec
from repro.engine.recorder import Recorder
from repro.engine.vod import (
    CHECKPOINT_VERSION,
    ServeOptions,
    SessionRequest,
    VodServer,
)
from repro.errors import CheckpointError, SimulatedCrash
from repro.faults import CrashInjector, CrashSite, SimulatedMedium
from repro.media import frames
from repro.media.objects import video_object

BANDWIDTH = 50_000_000


def make_title(name, frame_count=6):
    video = video_object(frames.scene(16, 12, frame_count, "orbit"), name)
    return Recorder(MemoryBlob()).record(
        [video], encoders={name: JpegLikeCodec(quality=40).encode},
        interpretation_name=f"{name}-capture",
    )


@pytest.fixture(scope="module")
def movie():
    return make_title("feature")


def make_server(movie):
    server = VodServer(bandwidth=BANDWIDTH)
    server.publish("feature", movie)
    return server


class TestCheckpointPayload:
    def test_versioned_and_self_contained(self, movie):
        server = make_server(movie)
        payload = server.checkpoint()
        assert payload["version"] == CHECKPOINT_VERSION
        assert payload["config"]["bandwidth"] == BANDWIDTH
        assert list(payload["titles"]) == ["feature"]
        assert payload["batch"] is None  # not mid-serve

    def test_json_safe_and_deterministic(self, movie):
        server = make_server(movie)
        first = json.dumps(server.checkpoint(), sort_keys=True)
        second = json.dumps(server.checkpoint(), sort_keys=True)
        assert first == second

    def test_cache_manifest_rides_along(self, movie):
        cache = DerivationCache(budget_bytes=1 << 16)
        server = VodServer(bandwidth=BANDWIDTH, derivation_cache=cache)
        server.publish("feature", movie)
        manifest = server.checkpoint()["derivation_cache"]
        assert manifest is not None
        assert manifest["budget_bytes"] == 1 << 16


class TestRestoreFromDict:
    def test_roundtrip_catalog(self, movie):
        payload = make_server(movie).checkpoint()
        restored = VodServer.restore(payload)
        assert restored.titles() == ["feature"]
        assert restored.bandwidth == BANDWIDTH

    def test_restored_title_replays_identically(self, movie):
        payload = make_server(movie).checkpoint()
        restored = VodServer.restore(payload)
        report = restored.serve([SessionRequest(client="c", title="feature")])
        assert len(report.admitted) == 1
        assert report.admitted[0].report.underruns == 0

    def test_wrong_version_rejected(self, movie):
        payload = make_server(movie).checkpoint()
        payload["version"] = 99
        with pytest.raises(CheckpointError, match="version"):
            VodServer.restore(payload)

    def test_mangled_payload_is_typed_error(self, movie):
        payload = make_server(movie).checkpoint()
        del payload["config"]
        with pytest.raises(CheckpointError):
            VodServer.restore(payload)

    def test_resume_without_pending_batch_rejected(self, movie):
        restored = VodServer.restore(make_server(movie).checkpoint())
        with pytest.raises(CheckpointError, match="nothing to resume"):
            restored.resume()


class TestRestoreFromFile:
    def test_file_roundtrip(self, movie):
        fs = SimulatedMedium()
        fs.makedirs("/srv")
        server = make_server(movie)
        server.checkpoint_to("/srv/vod.ckpt", fs=fs)
        restored = VodServer.restore("/srv/vod.ckpt", fs=fs)
        assert restored.titles() == ["feature"]

    def test_missing_file_is_typed_error(self):
        fs = SimulatedMedium()
        with pytest.raises(CheckpointError):
            VodServer.restore("/srv/absent.ckpt", fs=fs)

    def test_corrupt_json_is_typed_error(self):
        fs = SimulatedMedium()
        with fs.open("/srv/vod.ckpt", "wb") as handle:
            handle.write(b"{not json")
        with pytest.raises(CheckpointError):
            VodServer.restore("/srv/vod.ckpt", fs=fs)


class TestFailover:
    def serve_until_crash(self, fs, movie, occurrence):
        """Serve three clients, dying at the given session boundary."""
        crash = CrashInjector(CrashSite("vod.serve.session", occurrence))
        server = VodServer(bandwidth=BANDWIDTH, crash=crash)
        server.publish("feature", movie)
        requests = [SessionRequest(client=f"client-{i}", title="feature")
                    for i in range(3)]
        with pytest.raises(SimulatedCrash):
            server.serve(requests, ServeOptions(
                checkpoint_to="/srv/vod.ckpt", checkpoint_fs=fs))
        fs.crash()

    def test_mid_batch_crash_resumes_remainder(self, movie):
        fs = SimulatedMedium()
        fs.makedirs("/srv")
        self.serve_until_crash(fs, movie, occurrence=2)
        restored = VodServer.restore("/srv/vod.ckpt", fs=fs)
        report = restored.resume()
        # Two sessions finished before the crash, one is re-served.
        assert report.recovered == 2
        assert len(report.admitted) == 1
        assert report.admitted[0].resumed
        assert report.recovered + len(report.admitted) == 3

    def test_resumed_sessions_count_as_degraded(self, movie):
        fs = SimulatedMedium()
        fs.makedirs("/srv")
        self.serve_until_crash(fs, movie, occurrence=1)
        restored = VodServer.restore("/srv/vod.ckpt", fs=fs)
        report = restored.resume()
        assert restored.health().degraded >= len(report.admitted)

    def test_checkpoint_written_after_every_session(self, movie):
        fs = SimulatedMedium()
        fs.makedirs("/srv")
        server = make_server(movie)
        report = server.serve(
            [SessionRequest(client=c, title="feature") for c in "ab"],
            ServeOptions(checkpoint_to="/srv/vod.ckpt", checkpoint_fs=fs),
        )
        assert len(report.admitted) == 2
        payload = json.loads(
            fs.durable_bytes("/srv/vod.ckpt").decode()
        )
        # The final checkpoint records the finished batch.
        assert payload["batch"]["remaining"] == []
        assert len(payload["batch"]["completed"]) == 2

    def test_unpublished_resume_title_rejected(self, movie):
        payload = make_server(movie).checkpoint()
        payload["batch"] = {
            "requests": [["c", "ghost"]],
            "rejected": [],
            "completed": [],
            "failed": [],
            "remaining": [["c", "ghost"]],
            "share": 1.0,
        }
        restored = VodServer.restore(payload)
        with pytest.raises(CheckpointError, match="unpublished"):
            restored.resume()
