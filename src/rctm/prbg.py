"""Bitstream extraction and byte packing for the map generator.

Bits come from thresholding orbit samples at tau = 0.5 (sample >= tau maps
to 1), starting with the seed itself when burn_in == 0.  Packing is
MSB-first within each byte so exported streams are stable across tools.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .core import MapKey, _check_counts, orbit_chunks

THRESHOLD = 0.5
DEGENERATE_TAIL = 100


@dataclass(frozen=True, eq=False)
class BitStream:
    """Thresholded binary sequence tagged with its generating key."""

    bits: np.ndarray
    key_fingerprint: str
    degenerate: bool = False  # the generating run's flag, see orbit_stream

    def __post_init__(self):
        self.bits.flags.writeable = False

    def __len__(self) -> int:
        return self.bits.size


def _as_bits(bits: BitStream | np.ndarray) -> np.ndarray:
    """The bits of a BitStream or a 0/1 array of bool or integer dtype, as a 1-D uint8 array.

    The values are checked before any cast, so no float is truncated and no
    wider integer wraps into 0..1.
    """
    arr = bits.bits if isinstance(bits, BitStream) else np.asarray(bits)
    if arr.dtype.kind not in "biu":
        raise ValueError(f"bit input must be of bool or integer dtype, got {arr.dtype}")
    if arr.ndim != 1:
        raise ValueError("bit input must be one-dimensional")
    if arr.size:
        # only signed input can hold a negative value; uint8 pays the one max()
        low, high = arr.min() if arr.dtype.kind == "i" else 0, arr.max()
        if low < 0 or high > 1:
            raise ValueError(f"bit input must hold only 0 and 1, got {int(low if low < 0 else high)}")
    return arr.astype(np.uint8, copy=False)


def threshold_values(values: np.ndarray) -> np.ndarray:
    """Bits of orbit samples as uint8: 1 where the sample is >= THRESHOLD."""
    return (values >= THRESHOLD).view(np.uint8)


def stream_chunks(key: MapKey, n: int, burn_in: int,
                  convert: Callable[[np.ndarray], np.ndarray]
                  ) -> Iterator[tuple[np.ndarray, bool | None]]:
    """n orbit samples, each mapped to a uint8 by ``convert``, one chunk of
    ``orbit_chunks`` at a time, so any length runs in flat memory.

    Yields (chunk, flag) pairs.  The flag is None until the last pair, which
    carries the run's degenerate flag: its last DEGENERATE_TAIL samples are
    identical (runs shorter than that never are).  As a generator it checks
    n and burn_in only when the first chunk is drawn.
    """
    tail = np.empty(0)
    done = 0
    for block in orbit_chunks(key, n, burn_in):
        done += block.size
        tail = np.concatenate([tail, block[-DEGENERATE_TAIL:]])[-DEGENERATE_TAIL:]
        degenerate = None
        if done == n:
            degenerate = tail.size == DEGENERATE_TAIL and bool(np.all(tail == tail[0]))
        yield convert(block), degenerate


def orbit_stream(key: MapKey, n: int, burn_in: int,
                 convert: Callable[[np.ndarray], np.ndarray]) -> tuple[np.ndarray, bool]:
    """The chunks of :func:`stream_chunks` filled into one uint8 array of n
    values, plus the run's degenerate flag."""
    _check_counts(n, burn_in)  # before allocating: a negative n must name itself
    out = np.empty(n, dtype=np.uint8)
    pos = 0
    for chunk, degenerate in stream_chunks(key, n, burn_in, convert):
        out[pos:pos + chunk.size] = chunk
        pos += chunk.size
    return out, degenerate


def generate_bits(key: MapKey, n: int, burn_in: int = 0) -> BitStream:
    """Generate n bits from the orbit of ``key``; deterministic per key."""
    bits, degenerate = orbit_stream(key, n, burn_in, threshold_values)
    return BitStream(bits=bits, key_fingerprint=key.fingerprint(), degenerate=degenerate)


def segmented_streams(key: MapKey, streams: int, bits_per_stream: int,
                      burn_in: int = 0) -> list[BitStream]:
    """Split one long orbit into disjoint consecutive bit segments.

    Segment i covers orbit positions [i*bits_per_stream, (i+1)*bits_per_stream)
    after burn_in; fingerprints carry the segment index, and every segment
    carries the whole run's degenerate flag.
    """
    if streams < 1:
        raise ValueError(f"streams must be >= 1, got {streams}")
    if bits_per_stream < 1:
        raise ValueError(f"bits_per_stream must be >= 1, got {bits_per_stream}")
    whole = generate_bits(key, streams * bits_per_stream, burn_in)
    fp = key.fingerprint()
    return [
        BitStream(bits=whole.bits[i * bits_per_stream:(i + 1) * bits_per_stream],
                  key_fingerprint=f"{fp}:{i}", degenerate=whole.degenerate)
        for i in range(streams)
    ]


def pack_bytes(bits: BitStream | np.ndarray) -> tuple[bytes, int]:
    """Pack bits MSB-first into bytes.

    The first bit becomes the most significant bit of byte 0.  Returns
    (payload, pad_bits) where pad_bits zero bits were appended to fill the
    final byte; lengths divisible by 8 pad nothing.
    """
    arr = _as_bits(bits)
    pad = (-arr.size) % 8
    return np.packbits(arr).tobytes(), pad


def unpack_bits(data: bytes, n_bits: int | None = None) -> np.ndarray:
    """Inverse of :func:`pack_bytes`; n_bits trims the zero padding."""
    arr = np.unpackbits(np.frombuffer(data, dtype=np.uint8))
    if n_bits is None:
        return arr
    if not 0 <= n_bits <= arr.size:
        raise ValueError(f"n_bits must lie in [0, {arr.size}], got {n_bits}")
    return arr[:n_bits]


def quantize_values(values: np.ndarray) -> np.ndarray:
    """8-bit quantization floor(x * 256) with 1.0 clamped to 255."""
    v = np.array(values, dtype=np.float64)  # the one float temporary, then in place
    v *= 256.0
    np.floor(v, out=v)
    np.minimum(v, 255.0, out=v)
    return v.astype(np.uint8)


def generate_quantized(key: MapKey, n: int, burn_in: int = 0) -> np.ndarray:
    """n quantized orbit bytes, streamed so long runs stay memory-flat."""
    return orbit_stream(key, n, burn_in, quantize_values)[0]
