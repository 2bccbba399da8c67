"""Crash recovery: the durability layer surviving a simulated power cut.

The paper's interpretations are "permanently associated" with their
BLOBs (§4.1) — this example makes "permanent" literal. It runs three
acts on a :class:`~repro.faults.SimulatedMedium` (an in-memory disk
with real crash semantics: unsynced writes die, renames roll back
without a directory fsync):

1. a WAL-backed page store is killed after its commit was acknowledged
   but before the data file was updated — redo recovery replays the
   committed full-page images and nothing acknowledged is lost;
2. an RMF container is killed mid-replacement — the atomic-commit
   protocol (shadow write + fsync barrier + rename) leaves a complete
   old version, never a torn hybrid;
3. a VOD server is killed mid-batch — a restored server resumes from
   its checkpoint, carrying finished sessions over as ``recovered`` and
   re-serving the rest marked ``resumed``.

Finally the crash matrix sweeps *every* crash point in the small
scenario set, proving the sequence above was not luck.

Run:  python examples/crash_recovery.py
"""

from repro.durability import (
    CrashMatrix,
    DurablePageStore,
    WriteAheadLog,
    default_scenarios,
    read_bytes,
    recover_page_store,
)
from repro.engine.vod import ServeOptions, SessionRequest, VodServer
from repro.errors import SimulatedCrash
from repro.faults import CrashInjector, CrashSite, SimulatedMedium

PAGE = 256


def act_one_page_store() -> None:
    print("=== 1. page store: acknowledged commit survives the crash ===")
    fs = SimulatedMedium()
    # Arm the injector one instruction after the WAL fsync: the commit
    # is acknowledged, the data file not yet touched.
    crash = CrashInjector(CrashSite("store.commit.acknowledged"))

    from repro.blob.pages import FilePager

    pager = FilePager("/data/store.pg", page_size=PAGE, fs=fs)
    wal = WriteAheadLog("/data/wal", fs=fs, crash=crash)
    store = DurablePageStore(pager, wal, checksums=True, crash=crash)
    page = store.allocate()
    store.write(page, b"precious frame bytes".ljust(PAGE, b"."))
    try:
        store.commit()
    except SimulatedCrash as exc:
        print(f"  power cut: {exc}")
    fs.crash()

    pager = FilePager("/data/store.pg", page_size=PAGE, fs=fs, repair=True)
    wal = WriteAheadLog("/data/wal", fs=fs)
    recovered, report = recover_page_store(pager, wal, checksums=True)
    print(f"  {report.summary()}")
    print(f"  page {page} after recovery: "
          f"{recovered.read(page)[:20].decode()!r}")
    assert recovered.verify_page(page)
    recovered.close()
    print()


def act_two_container() -> None:
    print("=== 2. container: atomic replacement, old or new, never torn ===")
    from repro.durability.atomic import atomic_write_bytes, remove_stale_temp

    fs = SimulatedMedium()
    fs.makedirs("/media")
    atomic_write_bytes("/media/title.rmf", b"version-1 (complete)", fs=fs)
    crash = CrashInjector(CrashSite("atomic.after_sync"))
    try:
        atomic_write_bytes("/media/title.rmf", b"version-2 (complete)",
                           fs=fs, crash=crash)
    except SimulatedCrash as exc:
        print(f"  power cut mid-replacement: {exc}")
    fs.crash()
    stale = remove_stale_temp("/media/title.rmf", fs=fs)
    survivor = read_bytes("/media/title.rmf", fs=fs)
    print(f"  after reboot: {survivor.decode()!r} "
          f"(stale temp removed: {stale})")
    assert survivor in (b"version-1 (complete)", b"version-2 (complete)")
    print()


def act_three_vod_failover() -> None:
    print("=== 3. VOD server: checkpoint, restore, resume ===")
    from repro.blob.blob import MemoryBlob
    from repro.codecs.jpeg_like import JpegLikeCodec
    from repro.engine.recorder import Recorder
    from repro.media import frames
    from repro.media.objects import video_object

    video = video_object(frames.scene(16, 12, 6, "orbit"), "feature")
    title = Recorder(MemoryBlob()).record(
        [video], encoders={"feature": JpegLikeCodec(quality=40).encode},
    )
    fs = SimulatedMedium()
    fs.makedirs("/srv")
    # Die at the start of the second session.
    crash = CrashInjector(CrashSite("vod.serve.session", 1))
    server = VodServer(bandwidth=50_000_000, crash=crash)
    server.publish("feature", title)
    requests = [SessionRequest(client=f"client-{i}", title="feature")
                for i in range(3)]
    try:
        server.serve(requests, ServeOptions(checkpoint_to="/srv/vod.ckpt",
                                            checkpoint_fs=fs))
    except SimulatedCrash as exc:
        print(f"  server died mid-batch: {exc}")
    fs.crash()

    restored = VodServer.restore("/srv/vod.ckpt", fs=fs)
    report = restored.resume()
    print(f"  after failover: {report.recovered} recovered from "
          f"checkpoint, {len(report.admitted)} re-served (resumed), "
          f"{len(report.failed)} failed")
    print(f"  health: {restored.health().status} "
          f"(failover counts as degraded service)")
    print()


def finale_crash_matrix() -> None:
    print("=== 4. the crash matrix: every site, recovered and verified ===")
    for scenario in default_scenarios(small=True):
        print(f"  {CrashMatrix(scenario).run().summary()}")


def main() -> None:
    act_one_page_store()
    act_two_container()
    act_three_vod_failover()
    finale_crash_matrix()


if __name__ == "__main__":
    main()
