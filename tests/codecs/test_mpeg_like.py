"""Tests for the MPEG-like inter-frame codec (out-of-order elements)."""

import numpy as np
import pytest

from repro.codecs.jpeg_like import psnr
from repro.codecs.mpeg_like import MpegLikeCodec, decode_order
from repro.errors import CodecError
from repro.media import frames


@pytest.fixture
def shot():
    return frames.scene(64, 48, 8, "orbit")


class TestDecodeOrder:
    def test_paper_example(self):
        """§2.2: 'with a sequence of four elements where the first and
        last are keys, the placement order could be 1, 4, 2, 3.'"""
        assert decode_order(["I", "B", "B", "P"]) == [0, 3, 1, 2]

    def test_ipp_is_identity(self):
        assert decode_order(["I", "P", "P", "P"]) == [0, 1, 2, 3]

    def test_two_gops(self):
        assert decode_order(list("IBBP" * 2)) == [0, 3, 1, 2, 4, 7, 5, 6]

    def test_trailing_b_frames(self):
        assert decode_order(["I", "P", "B", "B"]) == [0, 1, 2, 3]

    def test_unknown_kind(self):
        with pytest.raises(CodecError):
            decode_order(["I", "X"])


class TestCodecStructure:
    def test_gop_must_start_with_i(self):
        with pytest.raises(CodecError):
            MpegLikeCodec(gop_pattern="PBB")
        with pytest.raises(CodecError):
            MpegLikeCodec(gop_pattern="IQ")

    def test_kinds_follow_pattern(self, shot):
        codec = MpegLikeCodec(quality=50, gop_pattern="IBBP")
        encoded = codec.encode_sequence(shot)
        by_display = sorted(encoded, key=lambda f: f.display_index)
        assert [f.kind for f in by_display] == list("IBBP" * 2)

    def test_storage_order_differs_from_display(self, shot):
        codec = MpegLikeCodec(quality=50, gop_pattern="IBBP")
        encoded = codec.encode_sequence(shot)
        display_in_decode_order = [f.display_index for f in encoded]
        assert display_in_decode_order == [0, 3, 1, 2, 4, 7, 5, 6]
        assert display_in_decode_order != sorted(display_in_decode_order)

    def test_decode_indices_sequential(self, shot):
        codec = MpegLikeCodec(quality=50)
        encoded = codec.encode_sequence(shot)
        assert [f.decode_index for f in encoded] == list(range(len(shot)))

    def test_placement_order_helper(self):
        codec = MpegLikeCodec(gop_pattern="IBBP")
        assert codec.placement_order(4) == [0, 3, 1, 2]

    def test_empty_sequence(self):
        assert MpegLikeCodec().encode_sequence([]) == []

    def test_is_key_flag(self, shot):
        codec = MpegLikeCodec(gop_pattern="IBBP")
        encoded = codec.encode_sequence(shot)
        keys = [f for f in encoded if f.is_key]
        assert all(f.kind == "I" for f in keys)
        assert len(keys) == 2


class TestFidelity:
    def _intra_floor(self, shot, quality):
        """Per-frame intra-codec PSNR: the fidelity ceiling inter coding
        can reach with the same quantization and 4:2:0 chroma."""
        from repro.codecs.jpeg_like import JpegLikeCodec

        intra = JpegLikeCodec(quality=quality, subsampling="4:2:0")
        return [psnr(f, intra.decode(intra.encode(f))) for f in shot]

    def test_roundtrip_all_frames(self, shot):
        codec = MpegLikeCodec(quality=60, gop_pattern="IBBP")
        decoded = codec.decode_sequence(codec.encode_sequence(shot))
        assert len(decoded) == len(shot)
        floors = self._intra_floor(shot, 60)
        for original, restored, floor in zip(shot, decoded, floors):
            assert psnr(original, restored) > min(floor - 2.0, 28.0)

    def test_ippp_roundtrip(self, shot):
        codec = MpegLikeCodec(quality=60, gop_pattern="IPPP")
        decoded = codec.decode_sequence(codec.encode_sequence(shot))
        floors = self._intra_floor(shot, 60)
        for original, restored, floor in zip(shot, decoded, floors):
            assert psnr(original, restored) > min(floor - 2.0, 28.0)

    def test_inter_coding_beats_intra_on_coherent_content(self, shot):
        """The point of exploiting 'similarities between consecutive
        elements': P/B residuals are smaller than I frames."""
        codec = MpegLikeCodec(quality=60, gop_pattern="IPPP")
        encoded = codec.encode_sequence(shot)
        i_sizes = [f.size for f in encoded if f.kind == "I"]
        p_sizes = [f.size for f in encoded if f.kind == "P"]
        assert sum(p_sizes) / len(p_sizes) < sum(i_sizes) / len(i_sizes)

    def test_static_scene_p_frames_tiny(self):
        frame = frames.gradient_frame(64, 48)
        codec = MpegLikeCodec(quality=60, gop_pattern="IPPP")
        encoded = codec.encode_sequence([frame] * 4)
        i_size = encoded[0].size
        for p in encoded[1:]:
            assert p.size < i_size / 3


def test_b_frame_between_references_of_different_sizes_rejected():
    # I P B I: the B frame interpolates P1 and I3.
    codec = MpegLikeCodec(quality=50, gop_pattern="IPB")
    frames_ = codec.encode_sequence(frames.scene(48, 36, 4, "orbit"))
    smaller = codec.encode_sequence(frames.scene(32, 24, 4, "orbit"))
    assert [f.display_index for f in frames_] == [0, 1, 3, 2]
    frames_[2] = smaller[2]  # the second I frame, at another size
    with pytest.raises(CodecError, match="differ in shape"):
        codec.decode_sequence(frames_)
