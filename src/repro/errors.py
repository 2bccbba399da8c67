"""Exception hierarchy for the repro library.

All library errors derive from :class:`MediaModelError` so applications can
catch any library failure with a single except clause while still being able
to discriminate the subsystem that raised it.
"""

from __future__ import annotations


class MediaModelError(Exception):
    """Base class for all errors raised by the repro library."""


#: Canonical alias for the taxonomy root. The static linter
#: (:mod:`repro.analysis.lint`, rule LN003) enforces that every ``raise``
#: in ``src/repro`` uses this taxonomy — builtin exceptions are reserved
#: for genuine interpreter-level failures.
ReproError = MediaModelError


class RationalConversionError(MediaModelError, TypeError):
    """A value cannot be converted to an exact :class:`Rational`.

    Doubles as a :class:`TypeError` because refusing a ``float`` where an
    exact number is required is a typing failure by Python convention;
    existing ``except TypeError`` call sites keep working.
    """


class TimeSystemError(MediaModelError):
    """Invalid discrete time system or time value (Definition 2)."""


class StreamError(MediaModelError):
    """A timed stream violates Definition 3 or a category constraint."""


class StreamConstraintError(StreamError):
    """A stream violates a constraint imposed by its media type."""


class DescriptorError(MediaModelError):
    """A media or element descriptor is malformed for its media type."""


class MediaTypeError(MediaModelError):
    """Unknown media type or a value outside the type's specification."""


class QualityError(MediaModelError):
    """Unknown quality factor or unsatisfiable quality request."""


class BlobError(MediaModelError):
    """BLOB storage failure (Definition 4)."""


class BlobBoundsError(BlobError):
    """A read or placement refers to bytes outside the BLOB."""


class TransientBlobError(BlobError):
    """A read failed for a transient reason; retrying may succeed."""


class BlobCorruptionError(BlobError):
    """Page data is unreadable or failed integrity verification.

    Unlike :class:`TransientBlobError` this is permanent: retrying the
    same read cannot recover the bytes.
    """


class InterpretationError(MediaModelError):
    """An interpretation is inconsistent with its BLOB (Definition 5)."""


class DerivationError(MediaModelError):
    """A derivation cannot be applied or expanded (Definition 6)."""


class CompositionError(MediaModelError):
    """Invalid temporal or spatial composition (Definition 7)."""


class CodecError(MediaModelError):
    """Encoding or decoding failure in a codec substrate."""


class StorageError(MediaModelError):
    """Storage layout, index, or container failure."""


class ContainerFormatError(StorageError):
    """A serialized container is malformed or has a bad magic/version."""


class EngineError(MediaModelError):
    """Playback/recording engine failure."""


class PlaybackAbortError(EngineError):
    """Playback gave up: faults exceeded the retry policy's tolerance."""


class ResourceError(EngineError):
    """A title lacks the data rate that admission control prices."""


class PlanRejectedError(EngineError):
    """Static plan verification rejected a playback plan.

    Raised by :meth:`~repro.engine.player.Player.plan_multimedia` (and the
    :class:`~repro.engine.vod.VodServer` catalog) before any page reads
    occur. ``diagnostics`` holds the
    :class:`~repro.analysis.diagnostics.Diagnostic` rows that justified
    the rejection.
    """

    def __init__(self, message: str, diagnostics: tuple = ()):
        super().__init__(message)
        self.diagnostics = tuple(diagnostics)


class DurabilityError(MediaModelError):
    """Failure in the durability layer (WAL, atomic commit, recovery)."""


class WalError(DurabilityError):
    """The write-ahead log cannot accept or replay a record."""


class WalCorruptionError(WalError):
    """A WAL segment is corrupt beyond the torn tail a crash explains.

    A crash can only tear the *end* of the newest segment; a bad record
    with valid records (or whole segments) after it means the log itself
    was damaged, and recovery refuses to guess.
    """


class CheckpointError(DurabilityError):
    """A server checkpoint cannot be written, parsed, or restored."""


class SimulatedCrash(MediaModelError):
    """An injected crash fired at a durability crash point.

    Raised by :class:`~repro.faults.crash.CrashInjector` when the armed
    crash site is reached. It deliberately models the process dying:
    recovery code must never catch and continue past it — the crash-test
    harness is the only sanctioned handler.
    """


class AnalysisError(MediaModelError):
    """Misuse of the static analysis layer (bad rule id, bad target)."""


class ObservabilityError(MediaModelError):
    """Misuse of the metrics/tracing layer (type clash, bad buckets)."""


class CacheError(MediaModelError):
    """Misuse of the caching layer (bad capacity, unbalanced pin)."""


class QueryError(MediaModelError):
    """Malformed query or unknown catalog entry."""


class CatalogError(QueryError):
    """A database catalog entry is missing or duplicated."""


class QueryIndexError(QueryError):
    """The relational temporal index is missing, stale, or unusable."""
