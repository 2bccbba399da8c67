"""Non-destructive editing: the Table 1 derivations, implemented.

"Editing systems for digital audio and digital video take great care to
perform non-destructive modifications: rather than reading and writing
vast amounts of data in order to accomplish a modification, references to
structures within the data are manipulated." (§1.2)

Importing this package registers the concrete derivations in
:data:`repro.core.derivation.derivation_registry`:

================== ================ ========== ====================
derivation          argument types   result     category
================== ================ ========== ====================
color-separation    image            image      change of content
audio-normalization audio            audio      change of content
video-edit          video...         video      change of timing
video-transition    video, video     video      change of content
temporal-translate  any time-based   same       change of timing
temporal-scale      any time-based   same       change of timing
================== ================ ========== ====================

(plus ``midi-synthesis`` and ``animation-render`` from
:mod:`repro.media`, completing Table 1.)
"""

from repro.edit.edl import EditDecision, EditDecisionList, VIDEO_EDIT
from repro.edit.transitions import (
    VIDEO_TRANSITION,
    chroma_key,
    dissolve_frames,
    fade_frames,
    wipe_frames,
)
from repro.edit.filters import AUDIO_NORMALIZATION, normalize_signal
from repro.edit.separation import COLOR_SEPARATION
from repro.edit.timing import TEMPORAL_SCALE, TEMPORAL_TRANSLATE, VIDEO_REVERSE
from repro.edit.editor import MediaEditor
from repro.edit.mixdown import mixdown

__all__ = [
    "EditDecision",
    "EditDecisionList",
    "VIDEO_EDIT",
    "VIDEO_TRANSITION",
    "chroma_key",
    "dissolve_frames",
    "fade_frames",
    "wipe_frames",
    "AUDIO_NORMALIZATION",
    "normalize_signal",
    "COLOR_SEPARATION",
    "TEMPORAL_SCALE",
    "TEMPORAL_TRANSLATE",
    "VIDEO_REVERSE",
    "MediaEditor",
    "mixdown",
]
