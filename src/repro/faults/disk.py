"""A crashable, fault-injecting filesystem for durability testing.

:class:`SimulatedMedium` implements the small filesystem interface the
durability layer writes through (``open``/``fsync``/``replace``/
``fsync_dir``/…) over in-memory state with an explicit *volatile vs
durable* split, so a crash is a first-class, deterministic operation:

* every ``write`` lands in the volatile image immediately and joins the
  file's *pending* list;
* ``fsync`` promotes a file's pending writes to the durable image —
  unless the :class:`~repro.faults.plan.FaultPlan` schedules a *lying
  fsync*, which reports success and promotes nothing;
* file creation, deletion and ``replace`` (rename) are namespace edits
  that become durable only on ``fsync_dir`` of the parent directory —
  the POSIX rule real databases are bitten by;
* :meth:`SimulatedMedium.crash` settles every pending write by a seeded
  draw — kept intact, *torn* to a prefix, or lost — rolls the namespace
  back to its durable state, invalidates every open handle, and leaves
  the medium ready to "reboot" into recovery code.

All draws are pure functions of ``(plan seed, write index)``, so a
crash-matrix run is exactly as reproducible as a clean one.
"""

from __future__ import annotations

import os

from repro.errors import DurabilityError
from repro.faults.plan import FaultPlan
from repro.obs.events import Severity
from repro.obs.instrument import Instrumented, Observability


def _norm(path: str | os.PathLike) -> str:
    return os.path.normpath(os.fspath(path)).replace(os.sep, "/")


class _SimFile:
    """One file's volatile image, durable image, and pending writes."""

    __slots__ = ("volatile", "durable", "pending")

    def __init__(self, durable: bytes = b""):
        self.durable = bytes(durable)
        self.volatile = bytearray(durable)
        # Pending ops since the last honest fsync, in order:
        # ("write", index, offset, data) | ("truncate", index, 0, b"").
        self.pending: list[tuple[str, int, int, bytes]] = []


class _SimHandle:
    """File-object facade over a :class:`_SimFile` (binary only)."""

    def __init__(self, medium: "SimulatedMedium", path: str, sim: _SimFile,
                 readable: bool, writable: bool, append: bool):
        self._medium = medium
        self._path = path
        self._sim = sim
        self._readable = readable
        self._writable = writable
        self._append = append
        self._pos = len(sim.volatile) if append else 0
        self.closed = False

    @property
    def name(self) -> str:
        return self._path

    def _check_open(self) -> None:
        if self.closed:
            raise DurabilityError(f"I/O on closed simulated file {self._path}")

    def read(self, size: int = -1) -> bytes:
        self._check_open()
        if not self._readable:
            raise DurabilityError(f"{self._path} not open for reading")
        data = self._sim.volatile
        if size is None or size < 0:
            chunk = bytes(data[self._pos:])
        else:
            chunk = bytes(data[self._pos:self._pos + size])
        self._pos += len(chunk)
        return chunk

    def write(self, data: bytes) -> int:
        self._check_open()
        if not self._writable:
            raise DurabilityError(f"{self._path} not open for writing")
        if self._append:
            self._pos = len(self._sim.volatile)
        self._medium._record_write(self._path, self._sim, self._pos,
                                   bytes(data))
        self._pos += len(data)
        return len(data)

    def seek(self, pos: int, whence: int = os.SEEK_SET) -> int:
        self._check_open()
        if whence == os.SEEK_SET:
            self._pos = pos
        elif whence == os.SEEK_CUR:
            self._pos += pos
        elif whence == os.SEEK_END:
            self._pos = len(self._sim.volatile) + pos
        else:
            raise DurabilityError(f"bad whence {whence}")
        if self._pos < 0:
            raise DurabilityError("negative seek position")
        return self._pos

    def tell(self) -> int:
        self._check_open()
        return self._pos

    def flush(self) -> None:
        # Library-buffer flush only; durability is fsync's job.
        self._check_open()

    def sync(self) -> None:
        """fsync this handle through the medium (lying-fsync faults
        apply)."""
        self._medium.fsync(self)

    def close(self) -> None:
        self.closed = True

    def __enter__(self) -> "_SimHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class SimulatedMedium(Instrumented):
    """An in-memory filesystem with crash semantics.

    ``plan`` supplies the seeded write-fate / lying-fsync draws; with no
    plan the medium is maximally adversarial and deterministic: every
    unsynced write is lost at a crash, every fsync is honest.
    """

    def __init__(self, plan: FaultPlan | None = None,
                 obs: Observability | None = None):
        self.plan = plan
        self._files: dict[str, _SimFile] = {}
        self._durable_names: dict[str, _SimFile] = {}
        self._dirs: set[str] = set()
        self._handles: list[_SimHandle] = []
        self._write_index = 0
        self._fsync_index = 0
        self.crashes = 0
        self.fsyncs = 0
        self.lying_fsyncs = 0
        self.dir_fsyncs = 0
        self.writes_kept = 0
        self.writes_torn = 0
        self.writes_lost = 0
        if obs is not None:
            self.instrument(obs)

    # -- filesystem interface -----------------------------------------------------

    def open(self, path: str | os.PathLike, mode: str = "rb") -> _SimHandle:
        if "b" not in mode:
            raise DurabilityError(
                f"simulated medium is binary-only, got mode {mode!r}"
            )
        path = _norm(path)
        create = "w" in mode or "a" in mode or "x" in mode
        readable = "r" in mode or "+" in mode
        writable = ("w" in mode or "a" in mode or "x" in mode
                    or "+" in mode)
        sim = self._files.get(path)
        if sim is None:
            if not create:
                raise DurabilityError(f"no such simulated file: {path}")
            sim = _SimFile()
            self._files[path] = sim
        elif "x" in mode:
            raise DurabilityError(f"simulated file exists: {path}")
        elif "w" in mode:
            # O_TRUNC: the truncation itself is a pending op whose fate
            # is drawn at crash time like any unsynced write.
            self._write_index += 1
            sim.pending.append(("truncate", self._write_index, 0, b""))
            sim.volatile = bytearray()
        handle = _SimHandle(self, path, sim, readable, writable,
                            append="a" in mode)
        self._handles.append(handle)
        return handle

    def exists(self, path: str | os.PathLike) -> bool:
        path = _norm(path)
        if path in self._files or path in self._dirs:
            return True
        prefix = path + "/"
        return any(name.startswith(prefix) for name in self._files)

    def listdir(self, path: str | os.PathLike) -> list[str]:
        prefix = _norm(path) + "/"
        entries = {
            name[len(prefix):].split("/", 1)[0]
            for name in self._files if name.startswith(prefix)
        }
        return sorted(entries)

    def makedirs(self, path: str | os.PathLike,
                 exist_ok: bool = True) -> None:
        path = _norm(path)
        if not exist_ok and path in self._dirs:
            raise DurabilityError(f"simulated directory exists: {path}")
        self._dirs.add(path)

    def remove(self, path: str | os.PathLike) -> None:
        path = _norm(path)
        if path not in self._files:
            raise DurabilityError(f"no such simulated file: {path}")
        del self._files[path]

    def replace(self, src: str | os.PathLike,
                dst: str | os.PathLike) -> None:
        src, dst = _norm(src), _norm(dst)
        if src not in self._files:
            raise DurabilityError(f"no such simulated file: {src}")
        self._files[dst] = self._files.pop(src)

    def getsize(self, path: str | os.PathLike) -> int:
        path = _norm(path)
        if path not in self._files:
            raise DurabilityError(f"no such simulated file: {path}")
        return len(self._files[path].volatile)

    def fsync(self, handle: _SimHandle) -> None:
        """Promote ``handle``'s pending writes to durable — honestly or,
        per the plan, deceitfully."""
        index = self._fsync_index
        self._fsync_index += 1
        self.fsyncs += 1
        if self.plan is not None and self.plan.is_lying_fsync(index):
            self.lying_fsyncs += 1
            self._obs.metrics.counter("faults.injected").inc(
                kind="lying_fsync"
            )
            self._obs.events.record(
                Severity.WARNING, "faults.disk", "fault.lying_fsync",
                path=handle.name, fsync=index,
            )
            return
        sim = handle._sim
        sim.durable = bytes(sim.volatile)
        sim.pending.clear()

    def fsync_dir(self, path: str | os.PathLike) -> None:
        """Make the directory's *namespace* durable: creations, renames
        and deletions directly under ``path`` survive a crash."""
        prefix = _norm(path) + "/"
        self.dir_fsyncs += 1
        for name in [n for n in self._durable_names
                     if n.startswith(prefix) and n not in self._files]:
            del self._durable_names[name]
        for name, sim in self._files.items():
            if name.startswith(prefix):
                self._durable_names[name] = sim

    # -- crash semantics ----------------------------------------------------------

    def _record_write(self, path: str, sim: _SimFile, offset: int,
                      data: bytes) -> None:
        self._write_index += 1
        sim.pending.append(("write", self._write_index, offset, data))
        end = offset + len(data)
        if len(sim.volatile) < end:
            sim.volatile.extend(bytes(end - len(sim.volatile)))
        sim.volatile[offset:end] = data

    def _settle(self, sim: _SimFile) -> None:
        """Apply the crash fate of every pending op to the durable image."""
        image = bytearray(sim.durable)
        for kind, index, offset, data in sim.pending:
            fate = (self.plan.write_outcome(index)
                    if self.plan is not None else "lost")
            if kind == "truncate":
                if fate != "lost":
                    image = bytearray()
                continue
            if fate == "lost":
                self.writes_lost += 1
                continue
            if fate == "torn":
                self.writes_torn += 1
                data = data[:self.plan.torn_length(len(data), index)]
            else:
                self.writes_kept += 1
            end = offset + len(data)
            if len(image) < end:
                image.extend(bytes(end - len(image)))
            image[offset:end] = data
        sim.durable = bytes(image)
        sim.volatile = bytearray(image)
        sim.pending = []

    def crash(self) -> None:
        """Kill the machine: settle pending writes by their drawn fate,
        roll the namespace back to its durable state, and invalidate
        every open handle. The medium is immediately usable again — the
        caller's next opens model the post-reboot recovery process."""
        settled: set[int] = set()
        for sim in list(self._files.values()) \
                + list(self._durable_names.values()):
            if id(sim) not in settled:
                settled.add(id(sim))
                self._settle(sim)
        self._files = dict(self._durable_names)
        for handle in self._handles:
            handle.closed = True
        self._handles = []
        self.crashes += 1
        self._obs.metrics.counter("faults.disk.crashes").inc()
        self._obs.events.record(
            Severity.CRITICAL, "faults.disk", "crash",
            files_surviving=len(self._files),
        )

    # -- introspection ------------------------------------------------------------

    def paths(self) -> list[str]:
        return sorted(self._files)

    def durable_bytes(self, path: str | os.PathLike) -> bytes:
        """The bytes ``path`` would hold after a crash right now (content
        only — whether the *name* survives depends on fsync_dir)."""
        return bytes(self._files[_norm(path)].durable)

    def stats(self) -> dict:
        return {
            "files": len(self._files),
            "crashes": self.crashes,
            "fsyncs": self.fsyncs,
            "lying_fsyncs": self.lying_fsyncs,
            "dir_fsyncs": self.dir_fsyncs,
            "writes_kept": self.writes_kept,
            "writes_torn": self.writes_torn,
            "writes_lost": self.writes_lost,
        }

    def __repr__(self) -> str:
        return (
            f"SimulatedMedium({len(self._files)} files, "
            f"{self.crashes} crashes, {self.fsyncs} fsyncs)"
        )
