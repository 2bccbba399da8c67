"""Property-based tests (hypothesis) on core data structures and codecs."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codecs.adpcm import AdpcmCodec
from repro.codecs.huffman import huffman_compress, huffman_decompress
from repro.codecs.midi import MidiEvent, encode_events
from repro.codecs.pcm import PcmCodec
from repro.codecs.rle import rle_decode, rle_encode
from repro.codecs.varint import write_uvarint
from repro.core import stream_ops
from repro.core.elements import MediaElement
from repro.core.intervals import Interval, IntervalRelation, relate
from repro.core.media_types import media_type_registry
from repro.core.rational import Rational
from repro.core.streams import StreamCategory, TimedStream, TimedTuple
from repro.core.time_system import DiscreteTimeSystem
from repro.storage.indexes import SampleSizeTable, TimeToSampleTable
from tests.codecs.reference import (
    decode_events,
    read_svarint,
    read_uvarint,
    write_svarint,
)


# -- strategies ----------------------------------------------------------------

rationals = st.builds(
    Rational,
    st.integers(min_value=-10**6, max_value=10**6),
    st.integers(min_value=1, max_value=10**4),
)

positive_rationals = st.builds(
    Rational,
    st.integers(min_value=1, max_value=10**6),
    st.integers(min_value=1, max_value=10**4),
)


@st.composite
def timed_tuples(draw, max_elements=20):
    """A valid Definition 3 tuple sequence: non-decreasing starts."""
    count = draw(st.integers(min_value=0, max_value=max_elements))
    tuples = []
    start = 0
    for _ in range(count):
        start += draw(st.integers(min_value=0, max_value=10))
        duration = draw(st.integers(min_value=0, max_value=10))
        size = draw(st.integers(min_value=0, max_value=1000))
        tuples.append(TimedTuple(MediaElement(size=size), start, duration))
    return tuples


def make_stream(tuples):
    video = media_type_registry.get("pal-video")
    return TimedStream(video, tuples, validate_constraints=False)


# -- rational / time systems ----------------------------------------------------


class TestRationalProperties:
    @given(rationals, rationals)
    def test_addition_commutes_and_stays_rational(self, a, b):
        assert a + b == b + a
        assert isinstance(a + b, Rational)

    @given(rationals)
    def test_negation_involution(self, a):
        assert -(-a) == a

    @given(positive_rationals, st.integers(-10**6, 10**6))
    def test_time_system_roundtrip(self, frequency, ticks):
        system = DiscreteTimeSystem(frequency)
        assert system.to_discrete(system.to_continuous(ticks)) == ticks

    @given(positive_rationals, rationals)
    def test_floor_ceil_bracket(self, frequency, seconds):
        system = DiscreteTimeSystem(frequency)
        low, high = system.floor(seconds), system.ceil(seconds)
        assert low <= high <= low + 1
        assert system.to_continuous(low) <= seconds <= system.to_continuous(high)


# -- intervals -------------------------------------------------------------------


class TestIntervalProperties:
    @given(rationals, rationals, rationals, rationals)
    def test_exactly_one_allen_relation(self, a, b, c, d):
        first = Interval(min(a, b), max(a, b))
        second = Interval(min(c, d), max(c, d))
        relation = relate(first, second)
        assert relate(second, first) is relation.inverse

    @given(rationals, rationals, rationals)
    def test_translation_preserves_relation(self, a, b, offset):
        first = Interval(min(a, b), max(a, b))
        second = Interval(min(a, b) + 1, max(a, b) + 2)
        before = relate(first, second)
        after = relate(first.translate(offset), second.translate(offset))
        assert before is after


# -- streams ----------------------------------------------------------------------


class TestStreamProperties:
    @given(timed_tuples())
    def test_category_partition(self, tuples):
        """Homogeneous/heterogeneous and continuous/non-continuous are
        exact partitions; uniform implies cbr implies continuous."""
        stream = make_stream(tuples)
        categories = stream.categories()
        assert (StreamCategory.HOMOGENEOUS in categories) != (
            StreamCategory.HETEROGENEOUS in categories
        )
        assert (StreamCategory.CONTINUOUS in categories) != (
            StreamCategory.NON_CONTINUOUS in categories
        )
        if StreamCategory.UNIFORM in categories:
            assert StreamCategory.CONSTANT_DATA_RATE in categories
        if StreamCategory.CONSTANT_DATA_RATE in categories:
            assert StreamCategory.CONTINUOUS in categories
        if StreamCategory.EVENT_BASED in categories and len(stream) > 1:
            # events at distinct ticks are non-continuous
            starts = {t.start for t in stream}
            if len(starts) > 1:
                assert StreamCategory.NON_CONTINUOUS in categories

    @given(timed_tuples(), st.integers(-100, 100))
    def test_translate_preserves_structure(self, tuples, offset):
        stream = make_stream(tuples)
        moved = stream_ops.translate(stream, offset)
        assert len(moved) == len(stream)
        assert moved.span_ticks == stream.span_ticks
        assert moved.categories() == stream.categories()

    @given(timed_tuples(), st.integers(1, 4))
    def test_scale_preserves_categories(self, tuples, factor):
        stream = make_stream(tuples)
        scaled = stream_ops.scale(stream, factor)
        assert scaled.span_ticks == stream.span_ticks * factor
        # Size-based and descriptor-based categories survive scaling;
        # only the data-rate value changes, not its constancy.
        assert stream.is_continuous() == scaled.is_continuous()
        assert stream.is_homogeneous() == scaled.is_homogeneous()

    @given(timed_tuples(), timed_tuples())
    def test_concat_length_additive(self, tuples_a, tuples_b):
        a, b = make_stream(tuples_a), make_stream(tuples_b)
        joined = stream_ops.concat(a, b)
        assert len(joined) == len(a) + len(b)
        assert joined.span_ticks == a.span_ticks + b.span_ticks

    @given(timed_tuples())
    def test_at_tick_consistent_with_gaps(self, tuples):
        """No positive-duration element covers any tick inside a gap.

        Zero-duration events may still *occur* at such ticks — they
        cover no time, so they don't close gaps.
        """
        stream = make_stream(tuples)
        for begin, end in stream_ops.gaps(stream):
            for tick in (begin, end - 1):
                assert all(
                    t.duration == 0 for t in stream.at_tick(tick)
                )


# -- codecs ------------------------------------------------------------------------


class TestCodecProperties:
    @given(st.binary(max_size=2000))
    def test_rle_roundtrip(self, data):
        assert rle_decode(rle_encode(data)) == data

    @given(st.binary(max_size=2000))
    def test_huffman_roundtrip(self, data):
        assert huffman_decompress(huffman_compress(data)) == data

    @given(st.lists(st.integers(0, 2**40), max_size=50))
    def test_uvarint_stream_roundtrip(self, values):
        out = bytearray()
        for value in values:
            write_uvarint(out, value)
        offset = 0
        recovered = []
        for _ in values:
            value, offset = read_uvarint(bytes(out), offset)
            recovered.append(value)
        assert recovered == values
        assert offset == len(out)

    @given(st.lists(st.integers(-2**30, 2**30), max_size=50))
    def test_svarint_stream_roundtrip(self, values):
        out = bytearray()
        for value in values:
            write_svarint(out, value)
        offset = 0
        for expected in values:
            value, offset = read_svarint(bytes(out), offset)
            assert value == expected

    @given(st.lists(st.integers(-32768, 32767), min_size=0, max_size=600))
    def test_pcm_roundtrip_exact(self, values):
        codec = PcmCodec(16, 1)
        samples = np.array(values, dtype=np.int16)
        decoded = codec.decode(codec.encode(samples))
        assert np.array_equal(decoded[:, 0], samples)

    @settings(max_examples=25)
    @given(st.lists(st.integers(-32768, 32767), min_size=1, max_size=400),
           st.integers(16, 128))
    def test_adpcm_structure_roundtrip(self, values, block):
        """ADPCM is lossy but must preserve count and bounded error
        relative to the adaptive step size."""
        codec = AdpcmCodec(block_samples=block)
        samples = np.array(values, dtype=np.int16)
        decoded = codec.decode(codec.encode(samples))
        assert len(decoded) == len(samples)
        assert decoded.dtype == np.int16

    @given(st.lists(
        st.tuples(st.integers(0, 10), st.integers(0, 127), st.integers(1, 127)),
        max_size=30,
    ))
    def test_midi_roundtrip(self, triples):
        tick = 0
        events = []
        for delta, pitch, velocity in triples:
            tick += delta
            events.append(MidiEvent.note_on(tick, pitch, velocity))
        assert decode_events(encode_events(events)) == events


# -- index structures ----------------------------------------------------------------


class TestIndexProperties:
    @given(st.lists(st.integers(1, 20), min_size=1, max_size=60))
    def test_stts_inverse(self, durations):
        table = TimeToSampleTable.from_durations(durations)
        for sample in range(table.sample_count):
            assert table.sample_at(table.time_of(sample)) == sample
            assert table.duration_of(sample) == durations[sample]

    @given(st.lists(st.integers(0, 5000), min_size=1, max_size=60))
    def test_stsz_total(self, sizes):
        table = SampleSizeTable.from_sizes(sizes)
        assert table.total_bytes() == sum(sizes)
        assert [table.size_of(i) for i in range(len(sizes))] == sizes
