"""E8 — ablation: derived objects vs copy-and-materialize (§4.2).

The paper's claims, measured head to head:

* "to delete a video subsequence one could copy and reassemble the frame
  data, but it would be much more efficient to simply create a
  derivation representing the edit" — edit-creation time and stored
  bytes, derivation vs copy.
* "if expansion can be done in real time then the derived object is all
  that needs be stored" — the rule applied to this machine's expansion
  timings.
"""

import time

import pytest

from repro.bench.reporting import format_bytes
from repro.core import stream_ops
from repro.core.rational import as_rational
from repro.edit import MediaEditor
from repro.media import frames
from repro.media.objects import video_object


@pytest.fixture(scope="module")
def footage():
    return video_object(frames.scene(160, 120, 100, "orbit"), "footage")


def copy_and_reassemble(video, in_tick, out_tick):
    """The eager alternative: materialize the selected frames now."""
    stream = video.stream()
    selected = stream_ops.select_range(stream, in_tick, out_tick)
    # Deep-copy the payloads, as a copying editor would.
    copied = stream_ops.map_elements(
        selected, lambda e: type(e)(payload=e.payload.copy(), size=e.size),
    )
    return copied


def test_edit_creation_cost(report, benchmark, footage):
    editor = MediaEditor()

    def derive():
        return editor.cut(footage, 10, 90)

    derived = benchmark(derive)
    assert derived.is_derived


def test_copy_creation_cost(benchmark, footage):
    copied = benchmark(lambda: copy_and_reassemble(footage, 10, 90))
    assert len(copied) == 80


def test_derivation_vs_copy_table(report, benchmark, footage):
    editor = MediaEditor()
    benchmark(lambda: MediaEditor().cut(footage, 10, 90))
    begin = time.perf_counter()
    derived = editor.cut(footage, 10, 90, name="cut-derived")
    derive_seconds = time.perf_counter() - begin

    begin = time.perf_counter()
    copied = copy_and_reassemble(footage, 10, 90)
    copy_seconds = time.perf_counter() - begin

    derived_bytes = derived.derivation_object.storage_size()
    copied_bytes = copied.total_size()

    rows = [
        ("create edit", f"{derive_seconds * 1e6:.0f} us",
         f"{copy_seconds * 1e6:.0f} us",
         f"{copy_seconds / max(derive_seconds, 1e-9):.0f}x"),
        ("stored bytes", format_bytes(derived_bytes),
         format_bytes(copied_bytes),
         f"{copied_bytes / derived_bytes:,.0f}x"),
    ]
    report.table(
        "ablation-derivation",
        ("metric", "derivation object", "copy-and-reassemble", "advantage"),
        rows,
        title="§4.2 — edit as derivation vs copying frame data",
    )
    assert derived_bytes * 100 < copied_bytes


def test_chain_reuse(report, benchmark, footage):
    """'Sequences of derivations can be changed and reused': re-cutting
    only replaces one tiny derivation object."""
    editor = MediaEditor()
    first = editor.cut(footage, 10, 90, name="v-cut-a")
    revised = editor.cut(footage, 20, 80, name="v-cut-b")
    benchmark(lambda: first.derivation_object.storage_size()
              + revised.derivation_object.storage_size())
    total = (first.derivation_object.storage_size()
             + revised.derivation_object.storage_size())
    report.add(
        "ablation-reuse",
        "[ablation-reuse] two alternative edits of the same footage "
        f"cost {total} bytes total; the footage "
        f"({format_bytes(footage.stream().total_size())}) is never copied",
    )
    assert total < 200


#: Expansion must beat real time by this factor to store only the
#: derivation object.
SAFETY_MARGIN = 1.2


def time_expansion(derived) -> float:
    """Host seconds for one expansion of ``derived``."""
    begin = time.perf_counter()
    derived.expand()
    return time.perf_counter() - begin


def test_store_or_expand_decision(report, benchmark, footage):
    """The §4.2 rule applied to this machine's expansion timings: store
    only the derivation object when expansion, with a safety margin,
    fits within the presentation duration; otherwise materialize."""
    editor = MediaEditor()
    cheap = editor.cut(footage, 0, 100, name="cheap-cut")
    expensive = editor.transition(
        footage, video_object(frames.scene(160, 120, 100, "cut"), "b"),
        90, kind="iris", name="big-iris",
    )
    benchmark.pedantic(lambda: time_expansion(cheap),
                       iterations=1, rounds=1)
    rows = []
    for derived in (cheap, expensive):
        elapsed = time_expansion(derived)
        duration = float(as_rational(derived.descriptor.get("duration")))
        real_time = elapsed * SAFETY_MARGIN <= duration
        margin = duration / elapsed if elapsed > 0 else float("inf")
        rows.append((
            derived.name,
            f"{elapsed * 1000:.1f} ms",
            f"{duration * 1000:.0f} ms",
            f"{margin:.1f}x",
            "store derivation object" if real_time else "materialize",
        ))
    report.table(
        "ablation-store-or-expand",
        ("derived object", "expansion", "presentation", "margin",
         "decision"),
        rows,
        title="§4.2 — store the derivation, or materialize?",
    )
