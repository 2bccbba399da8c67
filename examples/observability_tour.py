"""Observability tour: health, flight recorder, SLOs and Chrome traces.

A faulted VOD serve, inspected four ways. The stack's simulated clocks
make every observability artifact deterministic — run this twice and
the health report, the event log and the exported trace are identical
byte for byte.

1. ``VodServer.health()`` — one call answering "is serving OK?":
   status, per-objective SLO verdicts (burn-rate style), cache hit
   ratios, the pipeline stage responsible for the time, and the tail of
   severe flight-recorder events.
2. The flight recorder — the bounded ring of structured events (every
   fault, retry, skip, SLO violation) that explains *why*.
3. The stage profiler — where the simulated time went, per pipeline
   stage, with deterministic p50/p99.
4. A Chrome ``trace_event`` export — open the written JSON file in
   chrome://tracing or https://ui.perfetto.dev to see the sessions as
   nested spans with fault events pinned to their tracks.

Run:  python examples/observability_tour.py
"""

import os
import tempfile

from repro.engine import Recorder, RetryPolicy
from repro.engine.vod import ServeOptions, SessionRequest, VodServer
from repro.blob import MemoryBlob
from repro.faults import FaultPlan
from repro.media import frames
from repro.media.objects import video_object
from repro.obs import (
    Observability,
    Severity,
    events_to_table,
    profile_stages,
    to_chrome_trace,
)

def main() -> None:
    # -- 1. A faulted, bandwidth-starved serve, fully instrumented --------
    movie = Recorder(MemoryBlob()).record(
        [video_object(frames.scene(64, 48, 25, "orbit"), "feature")],
    )
    plan = FaultPlan(seed=7, transient_rate=0.5, bad_page_rate=0.3,
                     corruption_rate=0.1, degraded_fraction=1.0)
    requests = [SessionRequest(client=f"client-{i}", title="feature")
                for i in range(3)]
    obs = Observability()
    server = VodServer(bandwidth=15_000, prefetch_depth=8, obs=obs)
    server.publish("feature", movie)
    server.serve(
        requests,
        ServeOptions(
            enforce_admission=False, fault_plan=plan,
            retry_policy=RetryPolicy(max_retries=3, abort_skip_fraction=0.5),
        ),
    )

    # -- 2. One call: is serving healthy, and if not, why? ----------------
    health = server.health()
    print("server health")
    print("-------------")
    print(health.summary())

    # -- 3. The flight recorder: what happened, in order ------------------
    recorder = obs.events
    print(f"\nflight recorder: {len(recorder)} events retained "
          f"(capacity {recorder.capacity}, {recorder.dropped} dropped)")
    print(events_to_table(obs, title="last 12 WARNING+ events",
                          min_severity=Severity.WARNING, limit=12))

    # -- 4. The stage profiler: where the simulated time went -------------
    print()
    print(profile_stages(obs).table())

    # -- 5. Chrome trace: sessions as nested spans ------------------------
    trace = to_chrome_trace(obs)
    descriptor, trace_path = tempfile.mkstemp(
        prefix="observability_tour_", suffix=".json")
    with os.fdopen(descriptor, "w", encoding="utf-8") as handle:
        handle.write(trace)
    print(f"\nwrote {len(trace):,} bytes of trace_event JSON to "
          f"{trace_path} — load it in chrome://tracing or Perfetto")

    # -- 6. Determinism: the whole record replays byte-identically --------
    obs2 = Observability()
    server2 = VodServer(bandwidth=15_000, prefetch_depth=8, obs=obs2)
    server2.publish("feature", movie)
    server2.serve(
        requests,
        ServeOptions(
            enforce_admission=False, fault_plan=plan,
            retry_policy=RetryPolicy(max_retries=3, abort_skip_fraction=0.5),
        ),
    )
    identical = (to_chrome_trace(obs2) == trace
                 and obs2.events.export() == recorder.export())
    print(f"same-seed rerun reproduces trace and event log: {identical}")


if __name__ == "__main__":
    main()
