"""Faulted playback: graceful degradation across the storage stack.

The paper's scalable streams exist so "the number of elements per
second can be varied" when resources degrade (§4.1), and quality
factors exist to trade fidelity for feasibility. This example injects a
deterministic storm of storage faults — transient read errors, bad
pages, bit flips, degraded-bandwidth windows — and shows the stack
absorbing it at every layer: checksums detect corruption, the player
retries/skips/adapts (charging recovery as simulated time), and the
VOD server re-admits aborted sessions at degraded quality instead of
dropping them.

Run:  python examples/faulted_playback.py
"""

from repro.blob import MemoryPager, PagedBlob, PageStore
from repro.bench.reporting import print_table
from repro.codecs.scalable import ScalableVideoCodec
from repro.core.rational import Rational
from repro.engine import AdaptationPolicy, CostModel, Player, Recorder, RetryPolicy
from repro.engine.vod import ServeOptions, SessionRequest, VodServer
from repro.errors import BlobCorruptionError, TransientBlobError
from repro.faults import FaultPlan, FaultyPager
from repro.media import frames
from repro.media.objects import video_object

PAGE = 512


def main() -> None:
    # -- 1. Record a scalable title onto a checksummed, fault-prone disk --
    plan = FaultPlan(
        seed=2026, page_size=PAGE,
        transient_rate=0.08, bad_page_rate=0.04, corruption_rate=0.05,
        degraded_fraction=0.5, degradation_span=8,
        degraded_bandwidth_factor=Rational(1, 3),
        degraded_latency=Rational(1, 100),
    )
    print(plan.describe())

    codec = ScalableVideoCodec(levels=3, quality=50)
    pager = FaultyPager(MemoryPager(page_size=PAGE), plan)
    store = PageStore(pager, checksums=True)
    blob = PagedBlob(store)
    video = video_object(frames.scene(64, 48, 50, "orbit"), "movie")
    interpretation = Recorder(blob).record(
        [video], encoders={"movie": codec.encode},
    )
    sequence = interpretation.sequence("movie")
    print(f"recorded {len(sequence)} scalable elements, "
          f"{len(blob)} bytes over {len(blob.pages)} pages\n")

    # -- 2. The blob layer: typed faults, detected corruption -------------
    outcomes = {"ok": 0, "transient": 0, "corrupt": 0}
    for entry in sequence:
        try:
            blob.read(entry.blob_offset, entry.size)
            outcomes["ok"] += 1
        except TransientBlobError:
            outcomes["transient"] += 1
        except BlobCorruptionError:
            outcomes["corrupt"] += 1
    print(f"raw element reads: {outcomes['ok']} clean, "
          f"{outcomes['transient']} transient errors, "
          f"{outcomes['corrupt']} permanent (bad page or checksum) "
          f"(pager injected {dict(pager.fault_counts)})\n")

    # -- 3. Adaptation fractions measured from the encoding itself --------
    sample = codec.encode(video.stream()[0].element.payload)
    fractions = tuple(
        Rational(codec.bytes_at_level(sample, level), len(sample))
        for level in range(codec.levels - 1)
    ) + (Rational(1),)
    adaptation = AdaptationPolicy(levels=codec.levels, fractions=fractions)
    print("layer byte fractions:",
          ", ".join(f"L{i}={float(f):.0%}" for i, f in enumerate(fractions)))

    # -- 4. Resilient playback: recovery charged as simulated time --------
    cost = CostModel(bandwidth=120_000)
    clean = Player(cost).play(interpretation)
    print(f"\nclean playback : {clean.summary()}")
    faulted = Player(
        cost, fault_plan=plan,
        retry_policy=RetryPolicy(max_retries=3, backoff=Rational(1, 250)),
        adaptation=adaptation,
    ).play(interpretation)
    print(f"faulted playback: {faulted.summary()}")
    again = Player(
        cost, fault_plan=plan,
        retry_policy=RetryPolicy(max_retries=3, backoff=Rational(1, 250)),
        adaptation=adaptation,
    ).play(interpretation)
    print(f"reproducible   : same-seed rerun identical = {faulted == again}\n")

    # -- 5. VOD failover: degraded service, never dropped sessions --------
    server = VodServer(bandwidth=600_000, prefetch_depth=8)
    server.publish("movie", interpretation)
    requests = [SessionRequest(client=f"client-{i}", title="movie")
                for i in range(3)]
    report = server.serve(requests, ServeOptions(
        fault_plan=plan,
        retry_policy=RetryPolicy(max_retries=3, abort_skip_fraction=0.1),
        adaptation=adaptation,
    ))
    rows = [
        (s.client,
         s.report.retries,
         s.report.skipped_elements,
         s.report.glitches,
         f"{float(s.report.delivered_quality):.0%}",
         "degraded (re-admitted)" if s.degraded else "served")
        for s in report.admitted
    ] + [(client, "-", "-", "-", "-", f"failed: {reason[:30]}")
         for client, title, reason in report.failed]
    print_table(
        ("client", "retries", "skipped", "glitches", "quality", "outcome"),
        rows,
        title=f"VOD under faults: {report.clean_sessions()} clean, "
              f"{report.underrun_sessions()} underrun, "
              f"{report.degraded_sessions()} degraded, "
              f"{report.failed_sessions()} failed",
    )


if __name__ == "__main__":
    main()
