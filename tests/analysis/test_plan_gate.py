"""The static checker gating Player, VodServer and MediaDatabase."""

import pytest

from repro.blob.blob import MemoryBlob
from repro.core.composition import MultimediaObject
from repro.engine.player import CostModel, Player
from repro.engine.recorder import Recorder
from repro.engine.vod import VodServer
from repro.errors import CatalogError, EngineError, PlanRejectedError
from repro.media import frames, signals
from repro.media.objects import audio_object, video_object
from repro.obs import Observability
from repro.query.database import MediaDatabase


def tiny_video(name="v1"):
    return video_object(frames.scene(32, 24, 6, "orbit"), name)


def tiny_audio(name="a1", tone=440):
    return audio_object(signals.sine(tone, 0.25, 8000) * 0.5, name,
                        sample_rate=8000, block_samples=80)


def cyclic_movie():
    outer = MultimediaObject("outer")
    inner = MultimediaObject("inner")
    outer.add_temporal(inner, at=0, label="inner")
    inner.add_temporal(outer, at=0, label="outer")
    return outer


def overcommitted_movie():
    movie = MultimediaObject("m")
    movie.add_temporal(tiny_audio("a1"), at=0, label="a1")
    movie.add_temporal(tiny_audio("a2", tone=330), at=0, label="a2")
    return movie


def broken_interpretation():
    interp = Recorder(MemoryBlob()).record([tiny_video()])
    interp.blob = MemoryBlob()  # placements now dangle
    return interp


class TestPlayerGate:
    def test_cycle_rejected_before_any_work(self):
        obs = Observability()
        player = Player(CostModel(bandwidth=40_000_000), obs=obs)
        with pytest.raises(PlanRejectedError) as exc:
            player.plan_multimedia(cyclic_movie())
        assert [d.rule for d in exc.value.diagnostics] == ["MG001"]
        assert obs.metrics.counter("engine.plan.rejections").total() == 1
        # No element was planned or read: the rejection was static.
        assert obs.metrics.counter("engine.play.runs").total() == 0

    def test_rejection_lands_in_flight_recorder(self):
        obs = Observability()
        player = Player(CostModel(bandwidth=40_000_000), obs=obs)
        with pytest.raises(PlanRejectedError):
            player.play(cyclic_movie())
        assert any(e.name == "plan.MG001" for e in obs.events.events())

    def test_check_policy_lets_infeasible_play_and_reports(self):
        player = Player(CostModel(bandwidth=20_000))
        report = player.play(overcommitted_movie())
        rules = [d.rule for d in report.plan_diagnostics]
        assert "MG009" in rules  # attached, not blocking

    def test_strict_policy_rejects_infeasible(self):
        player = Player(CostModel(bandwidth=20_000), plan_check="strict")
        with pytest.raises(PlanRejectedError) as exc:
            player.plan_multimedia(overcommitted_movie())
        assert [d.rule for d in exc.value.diagnostics] == ["MG009"]

    def test_off_policy_skips_the_check(self):
        player = Player(CostModel(bandwidth=20_000), plan_check="off")
        assert player.verify_plan(overcommitted_movie()) is None

    def test_clean_plan_passes_with_empty_diagnostics(self):
        movie = MultimediaObject("movie")
        movie.add_temporal(tiny_video(), at=0, label="picture")
        movie.add_temporal(tiny_audio(), at=0, label="music")
        player = Player(CostModel(bandwidth=40_000_000))
        report = player.play(movie)
        assert report.plan_diagnostics == []

    def test_invalid_policy_rejected_at_construction(self):
        with pytest.raises(EngineError):
            Player(plan_check="paranoid")


class TestVodGate:
    def test_broken_title_refused_at_publish(self):
        obs = Observability()
        server = VodServer(2_000_000, obs=obs)
        with pytest.raises(PlanRejectedError) as exc:
            server.publish("bad", broken_interpretation())
        assert any(d.rule == "MG002" for d in exc.value.diagnostics)
        assert obs.metrics.counter("vod.publish.rejections").total() == 1
        assert any(e.name == "publish.rejected" for e in obs.events.events())

    def test_off_policy_falls_back_to_plain_validation(self):
        from repro.errors import InterpretationError

        server = VodServer(2_000_000, plan_check="off")
        with pytest.raises(InterpretationError):  # no diagnostics attached
            server.publish("bad", broken_interpretation())

    def test_verify_title_reports_on_published_content(self):
        server = VodServer(2_000_000)
        server.publish("good", Recorder(MemoryBlob()).record([tiny_video()]))
        report = server.verify_title("good")
        assert report.ok
        with pytest.raises(EngineError):
            server.verify_title("absent")


class TestCatalogGate:
    def test_verified_multimedia_insert_rejects_cycles(self):
        db = MediaDatabase()
        with pytest.raises(PlanRejectedError):
            db.add_multimedia(cyclic_movie(), verify=True)
        assert db.multimedia() == []

    def test_unverified_insert_still_accepts(self):
        db = MediaDatabase()
        db.add_multimedia(cyclic_movie())
        assert db.multimedia() == ["outer"]

    def test_verified_interpretation_insert_rejects_dangling(self):
        db = MediaDatabase()
        with pytest.raises(PlanRejectedError):
            db.add_interpretation(broken_interpretation(), verify=True)

    def test_verified_object_insert_accepts_clean(self):
        db = MediaDatabase()
        db.add_object(tiny_video(), verify=True, title="The Timed Stream")
        assert db.attributes_of("v1") == {"title": "The Timed Stream"}

    def test_duplicate_still_caught_before_verification(self):
        db = MediaDatabase()
        db.add_object(tiny_video())
        with pytest.raises(CatalogError):
            db.add_object(tiny_video(), verify=True)
