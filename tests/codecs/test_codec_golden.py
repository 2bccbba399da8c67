"""Golden codec outputs: byte-for-byte oracles for every bitstream.

The encoded bytes are the interpretation's contract — Figure 2's
placement table is built from their sizes — so a rewrite of the entropy
or coefficient kernels must leave them unchanged. ``golden/codecs.txt``
holds one line per encoded frame: its length and SHA-256, and the shape
and CRC32 of what the decoder returns for it.

The cases:

* ``jpeg_like`` at quality 1, 40 and 100 with 4:2:2, 4:2:0 and 4:4:4, on
  96x72 and 48x36 textured frames, 50x38 orbit frames (odd chroma
  dimensions) and flat frames (a two-symbol alphabet at 48x36, the raw
  container mode at 8x8);
* ``scalable`` decoded at every level, ``dvi_like`` PLV and RTV, and
  ``mpeg_like`` ``IBBP`` and ``IPPP`` sequences;
* ``huffman_compress`` and a bare :class:`HuffmanCodec` on payloads of
  0, 1, 7 and 300 bytes, a single-symbol payload, and Fibonacci-weighted
  payloads whose code reaches ``MAX_CODE_LENGTH``, one of them only
  after flattening.

Regenerate with ``PYTHONPATH=src python tests/codecs/test_codec_golden.py``
only when a change is meant to alter a bitstream, and say so in that
change.
"""

import hashlib
import random
import zlib
from pathlib import Path

import numpy as np
import pytest

from repro.codecs.dvi_like import DviLikeCodec
from repro.codecs.huffman import (
    MAX_CODE_LENGTH,
    HuffmanCodec,
    code_lengths,
    huffman_compress,
    huffman_decompress,
)
from repro.codecs.jpeg_like import JpegLikeCodec
from repro.codecs.mpeg_like import MpegLikeCodec
from repro.codecs.scalable import ScalableVideoCodec
from repro.media import frames

GOLDEN = Path(__file__).parent / "golden" / "codecs.txt"

FRAMES = {
    "texture96x72": lambda: frames.scene(96, 72, 1, "texture", seed=5)[0],
    "texture48x36": lambda: frames.scene(48, 36, 1, "texture", seed=2)[0],
    "orbit50x38": lambda: frames.scene(50, 38, 1, "orbit")[0],
    "flat48x36": lambda: np.full((36, 48, 3), 128, dtype=np.uint8),
    "flat8x8": lambda: np.full((8, 8, 3), (200, 40, 90), dtype=np.uint8),
}


def fibonacci_payload(symbols: int) -> bytes:
    """Symbol ``i`` occurs Fibonacci(i) times: a code ``symbols - 1`` deep."""
    weights = [1, 1]
    while len(weights) < symbols:
        weights.append(weights[-1] + weights[-2])
    data = bytearray()
    for symbol, weight in enumerate(weights):
        data += bytes([symbol]) * weight
    random.Random(symbols).shuffle(data)
    return bytes(data)


def skewed_payload(size: int) -> bytes:
    rng = np.random.default_rng(size)
    return bytes(np.minimum(rng.geometric(0.3, size), 255).astype(np.uint8))


PAYLOADS = {
    "empty": lambda: b"",
    "one": lambda: b"\x2a",
    "seven": lambda: b"codecs!",
    "skewed300": lambda: skewed_payload(300),
    "single-symbol": lambda: b"\x07" * 500,
    "fibonacci16": lambda: fibonacci_payload(16),
    "fibonacci19": lambda: fibonacci_payload(19),
}


def intra(codec, frame: np.ndarray) -> list:
    encoded = codec.encode(frame)
    return [(encoded, codec.decode(encoded))]


def layered(codec: ScalableVideoCodec, frame: np.ndarray) -> list:
    encoded = codec.encode(frame)
    return [(encoded, codec.decode_at_level(encoded, level))
            for level in range(codec.levels)]


def sequence(codec: MpegLikeCodec, shot: list) -> list:
    encoded = codec.encode_sequence(shot)
    decoded = codec.decode_sequence(encoded)
    return [(frame.data, decoded[frame.display_index]) for frame in encoded]


def compressed(payload: bytes) -> list:
    container = huffman_compress(payload)
    codec = HuffmanCodec.for_data(payload)
    bare = codec.encode(payload)
    return [(container, huffman_decompress(container)),
            (bare, HuffmanCodec.from_header(codec.header()).decode(bare))]


CASES = {}
for _quality in (1, 40, 100):
    for _scheme in ("4:2:2", "4:2:0", "4:4:4"):
        for _frame in FRAMES:
            CASES[f"jpeg_like/q{_quality}/{_scheme}/{_frame}"] = (
                lambda q=_quality, s=_scheme, f=_frame: intra(
                    JpegLikeCodec(quality=q, subsampling=s), FRAMES[f]()))
for _frame in ("texture48x36", "orbit50x38"):
    CASES[f"scalable/l3q75/{_frame}"] = lambda f=_frame: layered(
        ScalableVideoCodec(levels=3, quality=75), FRAMES[f]())
CASES["scalable/l2q30/texture96x72"] = lambda: layered(
    ScalableVideoCodec(levels=2, quality=30), FRAMES["texture96x72"]())
for _format in ("PLV", "RTV"):
    for _frame in ("texture96x72", "orbit50x38"):
        CASES[f"dvi_like/{_format}/{_frame}"] = (
            lambda v=_format, f=_frame: intra(DviLikeCodec(v), FRAMES[f]()))
CASES["mpeg_like/q50/IBBP/texture48x36"] = lambda: sequence(
    MpegLikeCodec(quality=50, gop_pattern="IBBP"),
    frames.scene(48, 36, 6, "texture", seed=1))
CASES["mpeg_like/q30/IPPP/orbit50x38"] = lambda: sequence(
    MpegLikeCodec(quality=30, gop_pattern="IPPP"),
    frames.scene(50, 38, 5, "orbit"))
for _name in PAYLOADS:
    CASES[f"huffman/{_name}"] = lambda n=_name: compressed(PAYLOADS[n]())


def render(name: str) -> list[str]:
    lines = []
    for index, (encoded, decoded) in enumerate(CASES[name]()):
        if isinstance(decoded, np.ndarray):
            assert decoded.dtype == np.uint8
            shape = "x".join(map(str, decoded.shape))
            decoded = decoded.tobytes()
        else:
            shape = str(len(decoded))
        lines.append(f"{name}[{index}] {len(encoded)} "
                     f"{hashlib.sha256(encoded).hexdigest()} {shape} "
                     f"{zlib.crc32(decoded):08x}")
    return lines


def golden_lines() -> dict[str, list[str]]:
    expected: dict[str, list[str]] = {}
    for line in GOLDEN.read_text().splitlines():
        expected.setdefault(line.split("[", 1)[0], []).append(line)
    return expected


def test_golden_names_match_cases():
    assert sorted(golden_lines()) == sorted(CASES)


def test_fibonacci_payloads_reach_the_length_cap():
    assert max(code_lengths(PAYLOADS["fibonacci16"]())) == MAX_CODE_LENGTH
    # Nineteen Fibonacci weights want an 18-bit code; flattening caps it.
    assert max(code_lengths(PAYLOADS["fibonacci19"]())) == MAX_CODE_LENGTH


def test_flat_cases_cover_both_container_modes():
    # The luma plane's container starts after the 10-byte frame header
    # and its 4-byte length; its first byte is the mode.
    modes = [JpegLikeCodec(quality=40).encode(FRAMES[name]())[14]
             for name in ("flat48x36", "flat8x8")]
    assert modes == [1, 0]  # Huffman mode, then raw mode


@pytest.mark.parametrize("name", sorted(CASES))
def test_codec_matches_golden(name):
    assert render(name) == golden_lines()[name]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text("".join(f"{line}\n" for name in CASES
                              for line in render(name)))
    print(f"wrote {GOLDEN} ({len(CASES)} cases)")
