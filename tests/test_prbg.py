import dataclasses
import gc
import tracemalloc

import numpy as np
import pytest

from rctm import core, prbg
from rctm.core import _CHUNK, iterate, make_key
from rctm.nist import monobit
from rctm.prbg import (
    BitStream,
    generate_bits,
    generate_quantized,
    orbit_stream,
    pack_bytes,
    quantize_values,
    segmented_streams,
    stream_chunks,
    threshold_values,
    unpack_bits,
)


class TestGenerateBits:
    def test_thresholds_trajectory(self):
        key = make_key(2.75, 0.23)
        # trajectory [0.23, 0.6325, 0.0283...] thresholded at 0.5
        assert generate_bits(key, 3).bits.tolist() == [0, 1, 0]

    def test_seed_itself_is_emitted(self):
        key = make_key(61.81, 0.5)
        assert generate_bits(key, 1).bits.tolist() == [1]

    def test_deterministic(self):
        key = make_key(61.81, 0.23)
        a = generate_bits(key, 20000)
        b = generate_bits(key, 20000)
        assert np.array_equal(a.bits, b.bits)
        assert a.key_fingerprint == b.key_fingerprint

    def test_matches_iterate_threshold(self):
        key = make_key(61.81, 0.23)
        traj = iterate(key, 5000, burn_in=7)
        bits = generate_bits(key, 5000, burn_in=7)
        assert np.array_equal(bits.bits, (traj.values >= 0.5).astype(np.uint8))

    def test_length_property(self):
        assert len(generate_bits(make_key(61.81, 0.23), 123)) == 123

    def test_ones_fraction_balanced(self):
        bits = generate_bits(make_key(61.81, 0.23), 1_000_000)
        ones = bits.bits.mean()
        assert abs(ones - 0.5) <= 0.002


class TestSegmentedStreams:
    def test_segments_are_disjoint_pieces_of_one_run(self):
        key = make_key(61.81, 0.23)
        whole = generate_bits(key, 3000, burn_in=10)
        segs = segmented_streams(key, 3, 1000, burn_in=10)
        assert len(segs) == 3
        joined = np.concatenate([s.bits for s in segs])
        assert np.array_equal(joined, whole.bits)

    # segments that start and end inside a byte (7, 100, 1001 bits), from
    # the default chunks and from 37-sample ones, whose ends fall inside bytes too
    @pytest.mark.parametrize("chunk", [None, 37])
    @pytest.mark.parametrize("bits_per_stream", [7, 100, 1001])
    def test_segments_are_slices_of_generate_bits(self, monkeypatch, chunk, bits_per_stream):
        key, streams = make_key(61.81, 0.23), 5
        if chunk:
            monkeypatch.setattr(core, "_CHUNK", chunk)
        whole = generate_bits(key, streams * bits_per_stream, 13).bits
        segs = segmented_streams(key, streams, bits_per_stream, burn_in=13)
        for i, seg in enumerate(segs):
            assert len(seg) == bits_per_stream
            assert np.array_equal(seg.bits, whole[i * bits_per_stream:(i + 1) * bits_per_stream])
            # each segment owns its bytes, with a zero pad
            assert np.array_equal(seg.packed, np.packbits(seg.bits))

    def test_segments_hold_an_eighth_of_their_bits(self):
        # 20 x 10^6 bits are 2.5 MB packed; at one byte per bit they held 20 MB
        tracemalloc.start()
        try:
            streams = segmented_streams(make_key(61.81, 0.23), 20, 10**6)
            gc.collect()  # the orbit kernel's ctypes calls leave cycles for the collector
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(streams) == 20
        assert held < 2.6e6, held

    def test_fingerprints_carry_segment_index(self):
        segs = segmented_streams(make_key(61.81, 0.23), 2, 100)
        assert segs[0].key_fingerprint.endswith(":0")
        assert segs[1].key_fingerprint.endswith(":1")

    @pytest.mark.parametrize("streams, bits_per_stream", [(3, -2), (2, 0)])
    def test_bits_per_stream_below_one_refused_under_its_name(self, monkeypatch, streams,
                                                              bits_per_stream):
        # the value given, not its product with streams; refused before any bit is made
        monkeypatch.setattr(prbg, "generate_bits", None)
        with pytest.raises(ValueError,
                           match=f"^bits_per_stream must be >= 1, got {bits_per_stream}$"):
            segmented_streams(make_key(61.81, 0.23), streams, bits_per_stream)


class TestPackBytes:
    def test_msb_first(self):
        assert pack_bytes(np.array([1, 0, 0, 0, 0, 0, 0, 0], dtype=np.uint8)) == (b"\x80", 0)

    def test_lsb_position(self):
        assert pack_bytes(np.array([0, 0, 0, 0, 0, 0, 0, 1], dtype=np.uint8)) == (b"\x01", 0)

    def test_two_bytes(self):
        bits = np.array([1] * 8 + [0] * 8, dtype=np.uint8)
        assert pack_bytes(bits) == (b"\xff\x00", 0)

    def test_padding_reported(self):
        data, pad = pack_bytes(np.array([1] * 9, dtype=np.uint8))
        assert pad == 7
        assert data == b"\xff\x80"

    def test_matches_manual_shift_packing(self):
        rng = np.random.default_rng(41)
        bits = rng.integers(0, 2, size=64, dtype=np.uint8)
        data, pad = pack_bytes(bits)
        assert pad == 0
        manual = bytearray()
        for i in range(0, 64, 8):
            byte = 0
            for b in bits[i:i + 8]:
                byte = (byte << 1) | int(b)
            manual.append(byte)
        assert data == bytes(manual)

    @pytest.mark.parametrize("n", [8, 64, 4096])
    def test_round_trip(self, n):
        rng = np.random.default_rng(n)
        bits = rng.integers(0, 2, size=n, dtype=np.uint8)
        data, pad = pack_bytes(bits)
        assert pad == 0
        assert np.array_equal(unpack_bits(data), bits)

    def test_round_trip_with_padding(self):
        bits = np.array([1, 0, 1], dtype=np.uint8)
        data, pad = pack_bytes(bits)
        assert pad == 5
        assert np.array_equal(unpack_bits(data, 3), bits)

    def test_accepts_bitstream(self):
        stream = generate_bits(make_key(61.81, 0.23), 64)
        data, _ = pack_bytes(stream)
        assert np.array_equal(unpack_bits(data), stream.bits)

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 1001])
    def test_bitstream_gives_its_stored_bytes(self, monkeypatch, n):
        stream = generate_bits(make_key(61.81, 0.23), n)
        expected = (np.packbits(stream.bits).tobytes(), (-n) % 8)

        def refused(*args, **kwargs):
            raise AssertionError("a BitStream is neither unpacked nor repacked")

        monkeypatch.setattr(np, "packbits", refused)
        monkeypatch.setattr(np, "unpackbits", refused)
        assert pack_bytes(stream) == expected
        assert pack_bytes(stream)[0] == stream.packed.tobytes()

    def test_bitstream_bytes_are_read_only_and_bits_a_copy(self):
        stream = generate_bits(make_key(61.81, 0.23), 1001)
        assert not stream.packed.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            stream.packed[0] = 0
        before = stream.bits
        copy = stream.bits
        copy[:] = 1 - copy
        assert np.array_equal(stream.bits, before)
        assert not np.array_equal(copy, before)

    def test_bits_given_to_replace_are_checked_and_packed(self):
        stream = generate_bits(make_key(61.81, 0.5), 200)
        flipped = 1 - stream.bits
        changed = dataclasses.replace(stream, bits=flipped)
        assert np.array_equal(changed.bits, flipped)
        assert (len(changed), changed.key_fingerprint, changed.degenerate) == \
            (200, stream.key_fingerprint, stream.degenerate)
        assert not changed.packed.flags.writeable
        with pytest.raises(ValueError, match="^bit input must hold only 0 and 1, got 2$"):
            dataclasses.replace(stream, bits=2 * flipped)

    def test_rejects_values_other_than_0_and_1(self):
        # [0, 2, 1, 3] would pack to the byte of [0, 1, 1, 1]
        with pytest.raises(ValueError, match="^bit input must hold only 0 and 1, got 3$"):
            pack_bytes([0, 2, 1, 3])

    # each is refused before a cast to uint8 could make it look like bits
    @pytest.mark.parametrize("bits, message", [
        (np.array([0.7, 1.9] * 64), "must be of bool or integer dtype, got float64"),
        (np.array([256, 1, 0] * 43, dtype=np.int64), "must hold only 0 and 1, got 256"),
        (np.array([0, 1, -1] * 43, dtype=np.int16), "must hold only 0 and 1, got -1"),
    ])
    @pytest.mark.parametrize("run", [pack_bytes, monobit])
    def test_rejects_input_that_would_cast_to_bits(self, run, bits, message):
        with pytest.raises(ValueError, match=f"^bit input {message}$"):
            run(bits)

    @pytest.mark.parametrize("dtype", [bool, np.int8, np.int64, np.uint16])
    def test_bool_and_integer_bits_pack_as_uint8(self, dtype):
        bits = np.random.default_rng(5).integers(0, 2, size=27, dtype=np.uint8)
        assert pack_bytes(bits.astype(dtype)) == pack_bytes(bits)

    def test_rejects_non_1d_input(self):
        with pytest.raises(ValueError, match="^bit input must be one-dimensional$"):
            pack_bytes(np.zeros((2, 8), dtype=np.uint8))

    @pytest.mark.parametrize("n_bits", [-3, 17, 100])
    def test_unpack_rejects_lengths_outside_the_data(self, n_bits):
        with pytest.raises(ValueError, match=r"^n_bits must lie in \[0, 16\], got"):
            unpack_bits(b"\xff\x00", n_bits)

    @pytest.mark.parametrize("n_bits", [0, 16])
    def test_unpack_accepts_the_bounds(self, n_bits):
        assert unpack_bits(b"\xff\x00", n_bits).size == n_bits


class TestBitStream:
    # each refused when made, as every test reads the packed bytes unchecked
    @pytest.mark.parametrize("kwargs, message", [
        ({}, "packed must be a 1-D uint8 array"),
        ({"packed": np.zeros(2), "n_bits": 16}, "packed must be a 1-D uint8 array"),
        ({"packed": np.zeros((1, 2), dtype=np.uint8), "n_bits": 16},
         "packed must be a 1-D uint8 array"),
        ({"packed": b"\x00\x00", "n_bits": 16}, "packed must be a 1-D uint8 array"),
        ({"packed": np.zeros(2, dtype=np.uint8), "n_bits": 16.0},
         "n_bits must be an integer >= 0 that packs into the 2 bytes given, got 16.0"),
        ({"packed": np.zeros(0, dtype=np.uint8), "n_bits": -1},
         "n_bits must be an integer >= 0 that packs into the 0 bytes given, got -1"),
        ({"packed": np.zeros(1, dtype=np.uint8), "n_bits": 100},
         "n_bits must be an integer >= 0 that packs into the 1 bytes given, got 100"),
        ({"packed": np.zeros(3, dtype=np.uint8), "n_bits": 16},
         "n_bits must be an integer >= 0 that packs into the 3 bytes given, got 16"),
        # monobit read 11.854 for these 124 bits, 11.136 for the same bits unpacked
        ({"packed": np.full(16, 0xFF, dtype=np.uint8), "n_bits": 124},
         "the pad bits after the last bit must be zero"),
        ({"packed": np.array([1], dtype=np.uint8), "n_bits": 7},
         "the pad bits after the last bit must be zero"),
    ])
    def test_refuses_bytes_that_do_not_hold_its_bits(self, kwargs, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            BitStream(**kwargs)

    @pytest.mark.parametrize("packed, n_bits", [
        (np.zeros(0, dtype=np.uint8), 0),
        (np.array([0xFF, 0xF0], dtype=np.uint8), 12),
        (np.array([0xFF, 0xFF], dtype=np.uint8), np.int64(16)),
    ])
    def test_accepts_bytes_that_hold_its_bits(self, packed, n_bits):
        stream = BitStream(packed=packed, n_bits=n_bits)
        assert len(stream) == n_bits
        assert np.array_equal(stream.bits, np.unpackbits(packed)[:n_bits])


class TestQuantize:
    def test_zero(self):
        assert quantize_values(np.array([0.0])).tolist() == [0]

    def test_one_is_clamped(self):
        assert quantize_values(np.array([1.0])).tolist() == [255]

    def test_interior_value(self):
        assert quantize_values(np.array([0.6325])).tolist() == [161]

    def test_monotone_non_decreasing(self):
        rng = np.random.default_rng(9)
        xs = np.sort(rng.uniform(0.0, 1.0, size=4000))
        q = quantize_values(xs).astype(np.int64)
        assert np.all(np.diff(q) >= 0)

    def test_generate_quantized_matches_trajectory(self):
        key = make_key(61.81, 0.23)
        traj = iterate(key, 2000, burn_in=3)
        assert np.array_equal(generate_quantized(key, 2000, burn_in=3),
                              quantize_values(traj.values))


class TestStreamHealth:
    # x0 = 0.5 maps to 1.0 and then to the fixed point 0: 0.5, 1, 0, 0, ...
    COLLAPSED = make_key(61.81, 0.5)

    @pytest.mark.parametrize("n,flagged", [
        (99, False),           # shorter than the 100-sample tail
        (101, False),          # the tail still holds the 1.0
        (102, True),           # the last 100 samples are all 0
        (_CHUNK + 50, True),   # the tail spans a chunk boundary
    ])
    def test_collapsed_orbit_flag(self, n, flagged):
        assert generate_bits(self.COLLAPSED, n).degenerate is flagged
        assert orbit_stream(self.COLLAPSED, n, 0, quantize_values)[1] is flagged

    def test_chaotic_orbit_is_not_flagged(self):
        key = make_key(61.81, 0.23)
        assert generate_bits(key, _CHUNK + 50).degenerate is False
        data, degenerate = orbit_stream(key, 5000, 0, quantize_values)
        assert degenerate is False
        assert np.array_equal(data, generate_quantized(key, 5000))

    @pytest.mark.parametrize("x0,flagged", [(0.5, True), (0.23, False)])
    def test_every_segment_carries_the_run_flag(self, x0, flagged):
        # segment 0 starts 0.5, 1.0 and has no tail of its own; it still carries the flag
        streams = segmented_streams(make_key(61.81, x0), 4, 1000)
        assert [s.degenerate for s in streams] == [flagged] * 4

    @pytest.mark.parametrize("x0,flagged", [(0.5, True), (0.23, False)])
    def test_chunks_carry_the_flag_on_the_last_pair_only(self, monkeypatch, x0, flagged):
        # 37-sample chunks: 250 samples come as six whole chunks and 28 more
        key = make_key(61.81, x0)
        expected = generate_bits(key, 250, 3).bits
        monkeypatch.setattr(core, "_CHUNK", 37)
        chunks, flags = zip(*stream_chunks(key, 250, 3, threshold_values))
        assert [chunk.size for chunk in chunks] == [37] * 6 + [28]
        assert flags == (None,) * 6 + (flagged,)
        assert np.array_equal(np.concatenate(chunks), expected)

    @pytest.mark.parametrize("n, burn_in, message", [
        (0, 0, "n must be >= 1, got 0"), (-3, 0, "n must be >= 1, got -3"),
        (10, -1, "burn_in must be >= 0, got -1"),
    ])
    def test_bad_counts_raise_at_the_first_chunk(self, n, burn_in, message):
        chunks = stream_chunks(make_key(61.81, 0.23), n, burn_in, threshold_values)
        with pytest.raises(ValueError, match=f"^{message}$"):
            next(chunks)
