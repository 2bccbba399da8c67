"""Playback/recording engine: simulated real-time behaviour.

"The handling (retrieval, storage, and processing) of media elements is
subject to real-time constraints" (§2.2), and "playback 'jitter' can be
removed by the application just prior to presentation" (§5). The engine
makes these statements measurable without wall-clock dependence:

* :mod:`repro.engine.buffers` — prefetch buffering and underrun analysis;
* :mod:`repro.engine.player` — plays multimedia objects against a
  storage/decode cost model;
* :mod:`repro.engine.kernel` — the heap-scheduled discrete-event
  kernel: one shared simulated clock, sessions as event-emitting state
  machines;
* :mod:`repro.engine.fleet` — N VOD shards behind a rendezvous router
  with fleet-wide admission, failover and health rollup;
* :mod:`repro.engine.recorder` — capture: encode + interleave + build
  the interpretation as the BLOB is written;
* :mod:`repro.engine.sync` — inter-stream skew measurement.
"""

from repro.engine.buffers import PrefetchReport, simulate_prefetch
from repro.engine.player import (
    AdaptationPolicy,
    CostModel,
    PlaybackReport,
    Player,
    RetryPolicy,
)
from repro.engine.recorder import Recorder
from repro.engine.sync import SyncReport, measure_sync
from repro.engine.kernel import (
    BandwidthLedger,
    EventLoop,
    SessionMachine,
    SimulatedClock,
)
from repro.engine.vod import (
    ServeOptions,
    ServerHealth,
    ServerReport,
    Session,
    SessionRequest,
    VodServer,
)
from repro.engine.fleet import Fleet, FleetHealth, place
from repro.engine.activities import ActivityGraph, Consumer, Producer, Transform, pipeline

__all__ = [
    "PrefetchReport",
    "simulate_prefetch",
    "AdaptationPolicy",
    "CostModel",
    "PlaybackReport",
    "Player",
    "RetryPolicy",
    "Recorder",
    "SyncReport",
    "measure_sync",
    "BandwidthLedger",
    "EventLoop",
    "SessionMachine",
    "SimulatedClock",
    "ServeOptions",
    "ServerHealth",
    "ServerReport",
    "Session",
    "SessionRequest",
    "VodServer",
    "Fleet",
    "FleetHealth",
    "place",
    "ActivityGraph",
    "Consumer",
    "Producer",
    "Transform",
    "pipeline",
]
