"""Extra coverage: nested mixdown, edit-view descriptor preservation."""

import numpy as np

from repro.blob.blob import MemoryBlob
from repro.codecs.adpcm import AdpcmCodec
from repro.core.composition import MultimediaObject
from repro.core.rational import Rational
from repro.edit.mixdown import mixdown
from repro.media import signals
from repro.media.objects import audio_object


class TestNestedMixdown:
    def test_audio_inside_nested_composition(self):
        music = audio_object(signals.sine(330, 1.0, 8000) * 0.4, "music",
                             sample_rate=8000, block_samples=320)
        inner = MultimediaObject("inner")
        inner.add_temporal(music, at=Rational(1, 2), label="music")
        outer = MultimediaObject("outer")
        outer.add_temporal(inner, at=1, label="scene")
        mix = mixdown(outer, sample_rate=8000)
        # Music starts at 1 + 0.5 = 1.5 s on the outer timeline.
        assert np.abs(mix[:11_000]).max() < 1e-9
        assert np.abs(mix[12_500:13_500]).max() > 0.1


class TestEditViewDescriptors:
    def test_element_descriptors_survive_view(self):
        """Editing a heterogeneous (ADPCM) sequence keeps per-element
        state attached to the surviving rows."""
        from repro.core.interpretation import Interpretation, PlacementEntry
        from repro.core.media_types import media_type_registry

        adpcm_type = media_type_registry.get("adpcm-audio")
        codec = AdpcmCodec(block_samples=64)
        signal = (signals.sine(300, 0.08, 8000) * 8000)
        blocks = codec.encode_blocks(signal.astype(np.int16))

        blob = MemoryBlob()
        rows = []
        tick = 0
        for i, block in enumerate(blocks):
            data = block.to_bytes()
            offset = blob.append(data)
            descriptor = adpcm_type.make_element_descriptor(
                predictor=block.predictor, step_index=block.step_index,
            )
            rows.append(PlacementEntry(i, tick, block.count, len(data),
                                       offset, descriptor))
            tick += block.count
        interpretation = Interpretation(blob, "adpcm")
        media_descriptor = adpcm_type.make_media_descriptor(
            sample_rate=8000, channels=1, encoding="IMA-ADPCM",
            block_samples=64,
        )
        interpretation.add("a", adpcm_type, media_descriptor, rows)

        view = interpretation.edit_view("a", keep=[3, 1])
        surviving = view.sequence("a").entries
        assert surviving[0].element_descriptor == rows[3].element_descriptor
        assert surviving[1].element_descriptor == rows[1].element_descriptor
        # Decoding through the preserved state reproduces the block.
        raw = view.read_element("a", 0)
        from repro.codecs.adpcm import AdpcmBlock

        decoded = AdpcmBlock.from_bytes(raw).decode()
        assert len(decoded) == rows[3].duration
