"""Crash-safe durability: WAL, atomic commits, recovery.

The paper models media whose value lives in *permanently associated*
interpretations (§4.1); this package makes "permanent" literal under
crashes. Two mechanisms, one contract:

* :class:`~repro.durability.wal.WriteAheadLog` +
  :class:`~repro.durability.store.DurablePageStore` — no-steal
  buffering with redo recovery for page-granular storage: a commit is
  acknowledged at the WAL fsync, and
  :func:`~repro.durability.store.recover_page_store` replays committed
  full-page images after a crash;
* :func:`~repro.durability.atomic.atomic_write_bytes` — shadow write +
  fsync barrier + rename for whole-file commits (RMF containers,
  server checkpoints): readers see a complete old or new file, never a
  prefix.

Every durability-critical instruction is a named crash point
(:class:`~repro.faults.crash.CrashInjector`). The crash matrix that
proves the contract, killing the workload at each point, recovering
over the simulated medium and asserting that no acknowledged write was
lost and no torn state is visible, lives in the test suite
(``tests/durability/crashtest.py``).

The contract everywhere: **acknowledged ⇒ durable**; unacknowledged
work may vanish but never corrupts what came before.
"""

from repro.durability.atomic import (
    atomic_write_bytes,
    read_bytes,
    remove_stale_temp,
)
from repro.durability.fs import REAL_FS, OsFilesystem
from repro.durability.store import (
    DurablePageStore,
    RecoveryReport,
    recover_page_store,
)
from repro.durability.wal import WalRecord, WalScan, WriteAheadLog

__all__ = [
    "REAL_FS",
    "DurablePageStore",
    "OsFilesystem",
    "RecoveryReport",
    "WalRecord",
    "WalScan",
    "WriteAheadLog",
    "atomic_write_bytes",
    "read_bytes",
    "recover_page_store",
    "remove_stale_temp",
]
