"""Tests for canonical Huffman coding."""

import numpy as np
import pytest

from repro.codecs.huffman import (
    HuffmanCodec,
    MAX_CODE_LENGTH,
    code_lengths,
    huffman_compress,
    huffman_decompress,
)
from repro.codecs.rle import rle_encode
from repro.errors import CodecError
from tests.codecs import reference


class TestCodeLengths:
    def test_empty(self):
        assert code_lengths(b"") == [0] * 256

    def test_single_symbol_gets_length_one(self):
        lengths = code_lengths(b"aaaa")
        assert lengths[ord("a")] == 1
        assert sum(1 for l in lengths if l) == 1

    def test_two_symbols(self):
        lengths = code_lengths(b"aab")
        assert lengths[ord("a")] == 1
        assert lengths[ord("b")] == 1

    def test_skewed_distribution_shorter_codes_for_frequent(self):
        data = b"a" * 1000 + b"b" * 10 + b"c" * 10 + b"d"
        lengths = code_lengths(data)
        assert lengths[ord("a")] < lengths[ord("d")]

    def test_kraft_inequality(self):
        rng = np.random.default_rng(3)
        data = bytes(rng.integers(0, 256, 4000, dtype=np.uint8))
        lengths = [l for l in code_lengths(data) if l]
        assert sum(2.0 ** -l for l in lengths) <= 1.0 + 1e-12

    def test_length_cap(self):
        # An exponential distribution would want very long codes.
        data = b"".join(bytes([i]) * (2 ** min(i, 20)) for i in range(24))
        lengths = code_lengths(data)
        assert max(lengths) <= MAX_CODE_LENGTH


def written_codes(lengths: list[int]) -> dict[int, tuple[int, int]]:
    """``symbol -> (code, length)`` as the codec writes each symbol alone."""
    codec = HuffmanCodec(lengths)
    codes = {}
    for symbol, length in enumerate(lengths):
        if length:
            payload = codec.encode(bytes([symbol]))[4:]
            bits = int.from_bytes(payload, "big")
            codes[symbol] = (bits >> (8 * len(payload) - length), length)
    return codes


class TestCanonicalCodes:
    def test_prefix_free(self):
        lengths = code_lengths(b"abracadabra")
        codes = written_codes(lengths)
        assert codes == reference.canonical_codes(lengths)
        items = list(codes.values())
        for i, (code_a, length_a) in enumerate(items):
            for code_b, length_b in items[i + 1:]:
                shorter, longer = sorted(
                    [(code_a, length_a), (code_b, length_b)],
                    key=lambda cl: cl[1],
                )
                prefix = longer[0] >> (longer[1] - shorter[1])
                assert prefix != shorter[0]

    def test_canonical_order(self):
        lengths = [0] * 256
        lengths[ord("a")] = 2
        lengths[ord("b")] = 1
        lengths[ord("c")] = 2
        codes = written_codes(lengths)
        assert codes[ord("b")] == (0, 1)
        assert codes[ord("a")] == (0b10, 2)
        assert codes[ord("c")] == (0b11, 2)


class TestCodec:
    def test_roundtrip_text(self):
        data = b"it was the best of times, it was the worst of times" * 20
        assert huffman_decompress(huffman_compress(data)) == data

    def test_roundtrip_random(self):
        rng = np.random.default_rng(9)
        data = bytes(rng.integers(0, 256, 10000, dtype=np.uint8))
        assert huffman_decompress(huffman_compress(data)) == data

    def test_roundtrip_empty(self):
        assert huffman_decompress(huffman_compress(b"")) == b""

    def test_roundtrip_single_symbol(self):
        data = b"\x07" * 500
        assert huffman_decompress(huffman_compress(data)) == data

    def test_compresses_skewed_data(self):
        data = b"\x00" * 9000 + bytes(range(256))
        compressed = huffman_compress(data)
        assert len(compressed) < len(data) / 4

    def test_decoder_rebuilt_from_header(self):
        data = b"the decoder only needs lengths" * 10
        codec = HuffmanCodec.for_data(data)
        encoded = codec.encode(data)
        rebuilt = HuffmanCodec.from_header(codec.header())
        assert rebuilt.decode(encoded) == data

    def test_unknown_symbol_rejected(self):
        codec = HuffmanCodec.for_data(b"aaabbb")
        with pytest.raises(CodecError, match="not in codebook"):
            codec.encode(b"xyz")

    def test_bad_header_size(self):
        with pytest.raises(CodecError):
            HuffmanCodec.from_header(b"short")
        with pytest.raises(CodecError):
            huffman_decompress(b"tiny")

    def test_truncated_frame(self):
        codec = HuffmanCodec.for_data(b"ab")
        with pytest.raises(CodecError):
            codec.decode(b"\x00")


def _framed(count: int, payload: bytes) -> bytes:
    return count.to_bytes(4, "big") + payload


class TestDecodeErrors:
    """How the decoder treats a frame its codebook cannot account for."""

    def test_count_beyond_payload_exhausts(self):
        data = b"abracadabra"
        codec = HuffmanCodec.for_data(data)
        payload = codec.encode(data)[4:]
        for count in (len(data) + 20, len(payload) * 8 + 1):
            with pytest.raises(CodecError, match="bit stream exhausted"):
                codec.decode(_framed(count, payload))

    def test_code_running_one_bit_past_the_end_exhausts(self):
        lengths = [0] * 256
        lengths[ord("a")], lengths[ord("b")], lengths[ord("c")] = 1, 2, 2
        codec = HuffmanCodec(lengths)  # a = 0, b = 10, c = 11
        assert codec.decode(_framed(7, b"\x01")) == b"aaaaaaa"
        # The eighth code starts with the last bit and needs one more.
        with pytest.raises(CodecError, match="bit stream exhausted"):
            codec.decode(_framed(8, b"\x01"))

    def test_empty_payload_exhausts(self):
        codec = HuffmanCodec.for_data(b"ab")
        with pytest.raises(CodecError, match="bit stream exhausted"):
            codec.decode(_framed(1, b""))

    def test_one_bit_against_single_symbol_code_is_invalid(self):
        codec = HuffmanCodec.for_data(b"xxxx")  # 'x' is the code 0
        assert codec.decode(_framed(2, b"\x00")) == b"xx"
        with pytest.raises(CodecError, match="invalid huffman bit stream"):
            codec.decode(_framed(1, b"\x80"))

    def test_empty_codebook_with_symbols_is_invalid(self):
        codec = HuffmanCodec([0] * 256)
        with pytest.raises(CodecError, match="invalid huffman bit stream"):
            codec.decode(_framed(1, b"\x00"))

    def test_zero_count_returns_nothing(self):
        codec = HuffmanCodec.for_data(b"ab")
        assert codec.decode(_framed(0, b"\xff\xff")) == b""
        assert HuffmanCodec([0] * 256).decode(_framed(0, b"\x12")) == b""

    def test_trailing_padding_bits_ignored(self):
        data = b"abracadabra"
        codec = HuffmanCodec.for_data(data)
        encoded = codec.encode(data)
        bits = sum(codec.lengths[symbol] for symbol in data)
        assert bits % 8  # the last byte carries padding
        ones = encoded[:-1] + bytes([encoded[-1] | (0xFF >> (bits % 8))])
        assert codec.decode(ones) == data
        assert codec.decode(encoded + b"\xff\x00 trailing") == data


class TestHeaderValidation:
    """A code-length header must describe a prefix code of at most 15 bits."""

    def test_length_beyond_the_cap_rejected(self):
        lengths = [0] * 256
        lengths[ord("a")] = 200
        with pytest.raises(CodecError, match="code lengths must be in 0..15"):
            HuffmanCodec(lengths)
        # The container path: a 200-bit code for 'a' once decoded quietly.
        header = rle_encode(bytes(lengths))
        container = (bytes([1]) + len(header).to_bytes(2, "big") + header
                     + _framed(1, bytes(25)))
        with pytest.raises(CodecError, match="code lengths must be in 0..15"):
            huffman_decompress(container)

    def test_oversubscribed_lengths_rejected(self):
        lengths = [0] * 256
        lengths[0] = lengths[1] = lengths[2] = 1  # three 1-bit codes
        with pytest.raises(CodecError, match="over-subscribe"):
            HuffmanCodec(lengths)
        with pytest.raises(CodecError, match="over-subscribe"):
            HuffmanCodec.from_header(bytes(lengths))

    def test_complete_and_partial_codes_accepted(self):
        # Lengths 1, 2, ..., 15, 15 have a Kraft sum of exactly 1.
        lengths = [*range(1, MAX_CODE_LENGTH + 1), MAX_CODE_LENGTH]
        for used in (len(lengths), len(lengths) - 1):
            codec = HuffmanCodec(lengths[:used] + [0] * (256 - used))
            data = bytes(range(used)) * 3
            assert codec.decode(codec.encode(data)) == data


#: a = 0, b = 10, c = 110, d = 1110; the windows 1111 start no code.
_LADDER = [0] * 256
_LADDER[ord("a")], _LADDER[ord("b")], _LADDER[ord("c")], _LADDER[ord("d")] = (
    1, 2, 3, 4)


def _outcome(decode, *args):
    try:
        return "ok", decode(*args)
    except CodecError as error:
        return "error", str(error)


class TestFourCodeHops:
    """The walk hops four codes at a time and fills in the three starts
    between hops, so every count modulo 4 ends differently."""

    @pytest.mark.parametrize("count", range(1, 10))
    def test_every_remainder_matches_the_oracle(self, count):
        codec = HuffmanCodec(_LADDER)
        data = b"dcbadcbaa"[:count]
        encoded = codec.encode(data)
        assert codec.decode(encoded) == data
        assert reference.huffman_decode(_LADDER, encoded) == data

    @pytest.mark.parametrize("count", range(1, 10))
    def test_every_cut_and_flip_fails_like_the_oracle(self, count):
        codec = HuffmanCodec(_LADDER)
        frame = codec.encode(b"dcbadcbaa"[:count])
        damaged = [frame[:cut] for cut in range(4, len(frame))]
        damaged += [frame[:4] + b"\xff" * (len(frame) - 4)]
        for bit in range(8 * (len(frame) - 4)):
            flipped = bytearray(frame)
            flipped[4 + bit // 8] ^= 0x80 >> (bit % 8)
            damaged.append(bytes(flipped))
        for damage in damaged:
            assert (_outcome(codec.decode, damage)
                    == _outcome(reference.huffman_decode, _LADDER,
                                damage))

    def test_truncation_inside_the_last_partial_hop(self):
        """Six 3-bit codes: one hop covers the first four, and the sixth
        code runs past a 16-bit payload."""
        lengths = [3] * 8 + [0] * 248
        codec = HuffmanCodec(lengths)
        data = bytes([7, 6, 5, 4, 3, 2])
        frame = codec.encode(data)
        assert len(frame) == 4 + 3
        assert codec.decode(frame) == data
        with pytest.raises(CodecError, match="bit stream exhausted"):
            codec.decode(frame[:6])
        with pytest.raises(CodecError, match="bit stream exhausted"):
            reference.huffman_decode(lengths, frame[:6])
        # Five codes fit the 16 bits: the walk stops inside the hop.
        shorter = (5).to_bytes(4, "big") + frame[4:6]
        assert codec.decode(shorter) == data[:5]
