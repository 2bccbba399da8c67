"""E12 — §1.1's motivating application: video-on-demand service.

Sweeps concurrent client count against a fixed server bandwidth, with
and without admission control. The crossover — clean service up to the
admission capacity, collapse beyond it without control — is the behaviour
that makes the data model's rate descriptors ("information that helps
allocate resources for playback", §4.1) operationally necessary.
"""

import pytest

from repro.blob.blob import MemoryBlob
from repro.codecs.jpeg_like import JpegLikeCodec
from repro.engine.recorder import Recorder
from repro.engine.vod import ServeOptions, SessionRequest, VodServer
from repro.media import frames
from repro.media.objects import video_object


def sessions(count):
    return [SessionRequest(client=f"c{i}", title="feature")
            for i in range(count)]


@pytest.fixture(scope="module")
def movie():
    video = video_object(frames.scene(64, 48, 25, "orbit"), "feature")
    return Recorder(MemoryBlob()).record(
        [video], encoders={"feature": JpegLikeCodec(quality=40).encode},
    )


def test_vod_capacity_sweep(report, benchmark, movie):
    server = VodServer(bandwidth=400_000, prefetch_depth=8)
    server.publish("feature", movie)
    capacity = server.capacity("feature")
    assert capacity >= 2

    rows = []
    sweep = sorted({1, capacity // 2 or 1, capacity, capacity * 2,
                    capacity * 4})
    for clients in sweep:
        requests = sessions(clients)
        uncontrolled = server.serve(requests,
                                    ServeOptions(enforce_admission=False))
        controlled = server.serve(requests,
                                  ServeOptions(enforce_admission=True))
        rows.append((
            clients,
            f"{uncontrolled.underrun_sessions()}/{clients}",
            f"{controlled.admitted_count} served, "
            f"{len(controlled.rejected)} rejected",
            controlled.underrun_sessions(),
        ))
    report.table(
        "vod",
        ("concurrent clients", "underruns w/o admission",
         "with admission control", "underruns w/ admission"),
        rows,
        title=f"§1.1 — VoD service at 400 KB/s "
              f"(admission capacity = {capacity})",
    )

    # Shape claims: beyond capacity, uncontrolled service degrades while
    # admission keeps every served session clean.
    over = sessions(capacity * 4)
    uncontrolled = server.serve(over, ServeOptions(enforce_admission=False))
    controlled = server.serve(over, ServeOptions(enforce_admission=True))
    assert uncontrolled.underrun_sessions() > 0
    assert controlled.underrun_sessions() == 0
    assert controlled.admitted_count == capacity

    benchmark(lambda: server.serve(sessions(capacity)))
