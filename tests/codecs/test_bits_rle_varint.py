"""Tests for the RLE and varint primitives.

The signed varint coders, the sign fold and the unsigned varint reader
live in the test oracle, :mod:`tests.codecs.reference`; the library
writes the signed varints inline in the coefficient coders, which the
properties in ``tests/property/test_codec_kernels.py`` check against the
oracle.
"""

import pytest

from repro.codecs.rle import rle_decode, rle_encode
from repro.codecs.varint import write_uvarint
from repro.errors import CodecError
from tests.codecs.reference import (
    read_svarint,
    read_uvarint,
    unzigzag_int,
    write_svarint,
    zigzag_int,
)


class TestRle:
    def test_roundtrip(self):
        data = b"\x00" * 300 + b"abc" + b"\xff" * 5
        assert rle_decode(rle_encode(data)) == data

    def test_empty(self):
        assert rle_encode(b"") == b""
        assert rle_decode(b"") == b""

    def test_long_run_split_at_255(self):
        encoded = rle_encode(b"x" * 300)
        assert encoded == bytes([255, ord("x"), 45, ord("x")])

    def test_compresses_runs(self):
        assert len(rle_encode(b"\x00" * 1000)) * 100 < 1000

    def test_worst_case_2x(self):
        data = bytes(range(256))
        assert len(rle_encode(data)) == 2 * len(data)

    def test_odd_length_rejected(self):
        with pytest.raises(CodecError):
            rle_decode(b"\x01")

    def test_zero_run_rejected(self):
        with pytest.raises(CodecError):
            rle_decode(b"\x00a")


class TestZigzag:
    @pytest.mark.parametrize("value,expected", [
        (0, 0), (-1, 1), (1, 2), (-2, 3), (2, 4), (-100, 199), (100, 200),
    ])
    def test_mapping(self, value, expected):
        assert zigzag_int(value) == expected
        assert unzigzag_int(expected) == value

    def test_roundtrip_range(self):
        for value in range(-1000, 1000, 7):
            assert unzigzag_int(zigzag_int(value)) == value

    @pytest.mark.parametrize("value", [2**63 - 1, 2**63, -2**63, 2**70 + 3])
    def test_fold_beyond_63_bits(self, value):
        # ``(v << 1) ^ (v >> 63)`` folded 2**63 to a value that came back
        # as -(2**63 + 1).
        assert zigzag_int(value) >= 0
        assert unzigzag_int(zigzag_int(value)) == value


class TestVarint:
    def test_small_values_one_byte(self):
        out = bytearray()
        write_uvarint(out, 127)
        assert len(out) == 1

    def test_large_value(self):
        out = bytearray()
        write_uvarint(out, 2 ** 40)
        value, offset = read_uvarint(bytes(out), 0)
        assert value == 2 ** 40
        assert offset == len(out)

    def test_negative_rejected(self):
        with pytest.raises(CodecError):
            write_uvarint(bytearray(), -1)

    def test_signed_roundtrip(self):
        out = bytearray()
        values = [0, -1, 1, -12345, 12345]
        for value in values:
            write_svarint(out, value)
        offset = 0
        for expected in values:
            value, offset = read_svarint(bytes(out), offset)
            assert value == expected

    def test_stream_exhaustion(self):
        with pytest.raises(CodecError):
            read_uvarint(b"\x80", 0)  # continuation bit with no next byte

    def test_sequential_offsets(self):
        out = bytearray()
        write_uvarint(out, 5)
        write_uvarint(out, 300)
        value1, offset = read_uvarint(bytes(out), 0)
        value2, offset = read_uvarint(bytes(out), offset)
        assert (value1, value2) == (5, 300)
        assert offset == len(out)
