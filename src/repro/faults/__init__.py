"""Deterministic fault injection for the storage/playback stack.

The paper's model promises that timed streams stay playable when
resources degrade — scalable streams exist "so that the number of
elements per second can be varied" (§4.1), and quality factors exist so
fidelity can be traded for feasibility. This package supplies the
adversary that makes those claims testable:

* :class:`~repro.faults.plan.FaultPlan` — a seeded schedule of transient
  read errors, permanently bad pages, silent bit flips and degraded
  bandwidth windows, every decision a pure hash of the seed so faulted
  runs are bit-reproducible;
* :class:`~repro.faults.pager.FaultyPager` — wraps a real pager and
  enforces the plan on the blob read path.

The playback engine consumes the same plan directly
(:class:`repro.engine.player.Player` with ``fault_plan=``) to charge
retries, skips and quality degradation as simulated time.

The write side (PR 6) adds the durability adversary:

* seeded write faults on the plan — short writes, torn unsynced writes,
  lying fsyncs;
* :class:`~repro.faults.crash.CrashInjector` — deterministic
  :class:`~repro.errors.SimulatedCrash` at named durability-critical
  instructions;
* :class:`~repro.faults.disk.SimulatedMedium` — a crashable filesystem
  with an explicit volatile/durable split, consumed by the crash matrix
  in ``tests/durability/crashtest.py``.
"""

from repro.faults.crash import NULL_CRASH, CrashInjector, CrashSite
from repro.faults.disk import SimulatedMedium
from repro.faults.pager import FaultyPager
from repro.faults.plan import FaultPlan

__all__ = [
    "NULL_CRASH",
    "CrashInjector",
    "CrashSite",
    "FaultPlan",
    "FaultyPager",
    "SimulatedMedium",
]
