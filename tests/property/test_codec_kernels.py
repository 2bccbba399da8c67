"""The codec kernels against their slow oracles in ``tests/codecs/reference.py``.

The two-queue code lengths, the array Huffman encoder, the table-driven
Huffman decoder and the coefficient coders must produce the same
lengths, bytes and arrays as the heap, the string-joining and per-bit
Huffman coders and the per-call varint coders they replaced — and on
truncated or mutated input, raise :class:`CodecError` exactly when the
oracle does.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.codecs.huffman import (
    MAX_CODE_LENGTH,
    HuffmanCodec,
    code_lengths,
    huffman_compress,
    huffman_decompress,
)
from repro.codecs.jpeg_like import (
    decode_plane_coefficients,
    encode_plane_coefficients,
)
from repro.errors import CodecError
from tests.codecs import reference


@st.composite
def skewed_bytes(draw, min_size=2, max_size=20):
    """Fibonacci-weighted symbols: codes up to (and capped at) 15 bits."""
    symbols = draw(st.lists(st.integers(0, 255), min_size=min_size,
                            max_size=max_size, unique=True))
    weights = [1, 1]
    while len(weights) < len(symbols):
        weights.append(weights[-1] + weights[-2])
    data = bytearray()
    for symbol, weight in zip(symbols, weights):
        data += bytes([symbol]) * weight
    draw(st.randoms(use_true_random=False)).shuffle(data)
    return bytes(data)


payloads = st.one_of(
    st.binary(max_size=600),
    skewed_bytes(),
    st.builds(lambda byte, n: bytes([byte]) * n,
              st.integers(0, 255), st.integers(1, 300)),
    st.just(b""),
)

coefficient = st.one_of(
    st.just(0), st.just(0), st.integers(-40, 40),
    st.sampled_from([32767, -32767, -32768]), st.integers(-32768, 32767),
)


@st.composite
def block_stacks(draw, elements=coefficient):
    """Up to six int16 blocks, some of them all zero."""
    count = draw(st.integers(0, 6))
    blocks = draw(arrays(np.int16, (count, 8, 8), elements=elements))
    blocks[draw(arrays(np.bool_, count))] = 0
    return blocks


#: Block stacks for both coefficient decoders: coefficients within
#: -32..31 keep every level and DC delta a one-byte varint, which the
#: arrays decode; the others go to the varint parse.
stacks = st.one_of(block_stacks(),
                   block_stacks(st.one_of(st.just(0), st.integers(-32, 31))))


def outcome(decode, *args):
    """A decoder's result, or the marker that it raised CodecError."""
    try:
        result = decode(*args)
    except CodecError:
        return CodecError
    return result.tobytes() if isinstance(result, np.ndarray) else result


@st.composite
def damaged(draw, data: bytes) -> bytes:
    """``data`` truncated, or with one byte overwritten or one bit flipped."""
    if not data:
        return data
    where = draw(st.integers(0, len(data) - 1))
    kind = draw(st.sampled_from(["truncate", "overwrite", "flip"]))
    if kind == "truncate":
        return data[:where]
    value = (draw(st.integers(0, 255)) if kind == "overwrite"
             else data[where] ^ (1 << draw(st.integers(0, 7))))
    return data[:where] + bytes([value]) + data[where + 1:]


class TestHuffmanKernels:
    @settings(max_examples=200, deadline=None)
    @given(st.one_of(payloads, skewed_bytes(min_size=17, max_size=24)))
    def test_code_lengths_match_the_heap_oracle(self, data):
        """17 or more Fibonacci weights want codes past 15 bits, so the
        distribution is flattened, and every halving makes new ties."""
        assert code_lengths(data) == reference.code_lengths(data)

    @settings(max_examples=150, deadline=None)
    @given(payloads)
    def test_matches_the_bitwise_oracle(self, data):
        codec = HuffmanCodec.for_data(data)
        assert max(codec.lengths) <= MAX_CODE_LENGTH
        encoded = codec.encode(data)
        assert encoded == reference.huffman_encode(codec.lengths, data)
        assert encoded == reference.join_encode(codec.lengths, data)
        rebuilt = HuffmanCodec.from_header(codec.header())
        assert rebuilt.decode(encoded) == data
        assert reference.huffman_decode(codec.lengths, encoded) == data
        assert huffman_decompress(huffman_compress(data)) == data

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_damaged_frames_fail_like_the_oracle(self, draw):
        data = draw.draw(payloads)
        codec = HuffmanCodec.for_data(data)
        frame = draw.draw(damaged(codec.encode(data)))
        assert (outcome(codec.decode, frame)
                == outcome(reference.huffman_decode, codec.lengths, frame))


class TestCoefficientKernels:
    @settings(max_examples=150, deadline=None)
    @given(stacks)
    def test_matches_the_varint_oracle(self, quantized):
        encoded = encode_plane_coefficients(quantized)
        assert encoded == reference.encode_plane_coefficients(quantized)
        decoded = decode_plane_coefficients(encoded, len(quantized))
        assert decoded.dtype == np.int16
        assert np.array_equal(decoded, quantized)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_damaged_streams_fail_like_the_oracle(self, draw):
        quantized = draw.draw(stacks)
        stream = draw.draw(damaged(encode_plane_coefficients(quantized)))
        blocks = max(len(quantized) + draw.draw(st.integers(-1, 1)), 0)
        assert (outcome(decode_plane_coefficients, stream, blocks)
                == outcome(reference.decode_plane_coefficients, stream, blocks))
