"""E14 — JPEG-like encode and decode rates at three frame sizes.

Every video frame the system records or replays passes through the
JPEG-like pipeline of Figure 2 (RGB -> YUV 4:2:2 -> DCT -> quantization
-> coefficient tokens -> canonical Huffman). The sizes are the ones the
system runs at:

- 48x36, the titles the serve workloads publish (1,040 frames a set-up);
- 96x72, the takes ingest-replay records and replays;
- 640x480, Figure 2's own geometry, where PAL's 25 frames/s is the
  delivery rate a real-time system must sustain.

All three run at quality 40, where every coefficient varint of this
footage fits one byte and planes take the coders' array paths; 48x36
and 96x72 run again at quality 95, where none does and planes take the
multi-byte table encoder and the varint parse. Each row reports the
share of its planes that are one-byte.

The sizes and both directions are timed interleaved, ``RUNS`` times, so
that host drift reaches every reading alike; each is reported as the
median with its quartiles. Host times are not exact, so the only
assertions are exact facts: every run encodes every frame to the same
bytes and decodes it to the same pixels.
"""

import gc
import statistics
import struct
import subprocess
import time
from pathlib import Path

import numpy as np

from repro.codecs.base import read_part
from repro.codecs.huffman import huffman_decompress
from repro.codecs.jpeg_like import JpegLikeCodec
from repro.media import frames

#: (width, height, quality, frames timed per run).
CASES = ((48, 36, 40, 48), (96, 72, 40, 24), (640, 480, 40, 3),
         (48, 36, 95, 48), (96, 72, 95, 24))
RUNS = 9
#: A frame's header: magic, width, height, quality, scheme.
HEADER_BYTES = struct.calcsize(">4sHHBB")


def commit() -> str:
    """The checkout's commit, marked ``-dirty`` with uncommitted edits."""
    try:
        described = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=12"],
            cwd=Path(__file__).resolve().parent, capture_output=True,
            text=True, check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return described.stdout.strip()


def timed(work):
    """``(seconds, result)`` of one call, with the collector held off."""
    gc.collect()
    gc.disable()
    try:
        started = time.perf_counter()
        result = work()
        elapsed = time.perf_counter() - started
    finally:
        gc.enable()
    return elapsed, result


def one_byte_share(datas: list[bytes]) -> float:
    """The share of the frames' planes whose coefficient varints are all
    one byte: every byte at an even offset of the plane's coefficient
    stream is below 0x80."""
    one_byte = planes = 0
    for data in datas:
        offset = HEADER_BYTES
        for _ in range(3):  # Y, U, V
            part, offset = read_part(data, offset)
            one_byte += huffman_decompress(part)[0::2].isascii()
            planes += 1
    return one_byte / planes


def test_codec_rates(report):
    codecs = {quality: JpegLikeCodec(quality=quality)
              for quality in {case[2] for case in CASES}}
    shots = {(w, h, quality): frames.scene(w, h, n, "texture", seed=7)
             for w, h, quality, n in CASES}
    encoded = {case: [codecs[case[2]].encode(frame) for frame in shot]
               for case, shot in shots.items()}
    decoded = {case: [codecs[case[2]].decode(data) for data in datas]
               for case, datas in encoded.items()}
    rates = {(case, direction): []
             for case in shots for direction in ("encode", "decode")}
    for _ in range(RUNS):
        for case, shot in shots.items():
            codec = codecs[case[2]]
            seconds, datas = timed(lambda: [codec.encode(f) for f in shot])
            assert datas == encoded[case]
            rates[case, "encode"].append(len(shot) / seconds)
            seconds, pictures = timed(
                lambda: [codec.decode(d) for d in encoded[case]])
            assert all(np.array_equal(picture, expected) for picture, expected
                       in zip(pictures, decoded[case]))
            rates[case, "decode"].append(len(shot) / seconds)

    rows = []
    for ((w, h, quality), direction), readings in rates.items():
        p25, median, p75 = statistics.quantiles(readings, n=4)
        label = f"{w}x{h}_q{quality}"
        datas = encoded[w, h, quality]
        share = one_byte_share(datas)
        rows.append((f"{w}x{h}", quality, direction, f"{median:,.1f}",
                     f"{p25:,.1f}–{p75:,.1f}",
                     f"{sum(map(len, datas)) / len(datas):,.0f}",
                     f"{share:.0%}"))
        report.metric("codecs", f"{direction}_frames_per_second_{label}",
                      median)
        report.metric("codecs", f"{direction}_{label}_p25_fps", p25)
        report.metric("codecs", f"{direction}_{label}_p75_fps", p75)
        if direction == "encode":
            report.metric("codecs", f"one_byte_plane_share_{label}", share)
    report.metric("codecs", "runs", RUNS)
    report.metric("codecs", "commit", commit())
    report.table(
        "codecs",
        ("frame size", "quality", "direction", "frames/s (median)",
         "quartiles", "bytes/frame", "one-byte planes"),
        rows,
        title=f"E14 — JPEG-like, textured footage, 4:2:2; {RUNS} "
              f"interleaved runs",
    )
