"""Seeded fuzz: a damaged video frame decodes or raises ``CodecError``.

``repro.errors`` promises that every library failure derives from
``MediaModelError``, and the event kernel and the VOD server catch exactly
that. A corrupt frame that escapes as ``struct.error``, ``OverflowError``
or ``ValueError`` would take a whole serve down instead of one element.

Each case damages one encoded 48x36 frame many times — a flipped bit, an
overwritten byte or a truncation — and decodes it.
"""

import dataclasses
import random

import numpy as np
import pytest

from repro.codecs.dvi_like import DviLikeCodec
from repro.codecs.jpeg_like import JpegLikeCodec
from repro.codecs.mpeg_like import MpegLikeCodec
from repro.codecs.scalable import ScalableVideoCodec
from repro.errors import CodecError
from repro.media import frames

SHOT = frames.scene(48, 36, 4, "texture", seed=3)


def damage(data: bytes, rng: random.Random) -> bytes:
    where = rng.randrange(len(data))
    kind = rng.choice(("flip", "overwrite", "truncate"))
    if kind == "truncate":
        return data[:where]
    value = (data[where] ^ (1 << rng.randrange(8)) if kind == "flip"
             else rng.randrange(256))
    return data[:where] + bytes([value]) + data[where + 1:]


def intra(codec):
    encoded = codec.encode(SHOT[0])
    return encoded, lambda data: [codec.decode(data)]


def inter():
    # I P B I: the B frame interpolates references of two I frames.
    codec = MpegLikeCodec(quality=40, gop_pattern="IPB")
    return codec.encode_sequence(SHOT), codec.decode_sequence


CASES = {
    "jpeg_like": (lambda: intra(JpegLikeCodec(quality=40)), 1500),
    "scalable": (lambda: intra(ScalableVideoCodec(levels=3, quality=60)), 600),
    "dvi_like-PLV": (lambda: intra(DviLikeCodec("PLV")), 600),
    "dvi_like-RTV": (lambda: intra(DviLikeCodec("RTV")), 600),
    "mpeg_like": (inter, 300),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_damaged_frames_decode_or_raise_codec_error(name):
    build, rounds = CASES[name]
    encoded, decode = build()
    rng = random.Random(name)
    leaks = []
    for _ in range(rounds):
        if isinstance(encoded, list):  # a sequence: damage one frame of it
            index = rng.randrange(len(encoded))
            damaged = list(encoded)
            damaged[index] = dataclasses.replace(
                encoded[index], data=damage(encoded[index].data, rng))
        else:
            damaged = damage(encoded, rng)
        try:
            decoded = decode(damaged)
        except CodecError:
            continue
        except Exception as error:  # the leak under test
            leaks.append(f"{type(error).__name__}: {error}")
            continue
        assert all(frame.dtype == np.uint8 for frame in decoded)
    assert leaks == []
