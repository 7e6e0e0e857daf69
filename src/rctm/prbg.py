"""Bitstream extraction and byte packing for the map generator.

Bits come from thresholding orbit samples at tau = 0.5 (sample >= tau maps
to 1), starting with the seed itself when burn_in == 0.  Packing is
MSB-first within each byte so exported streams are stable across tools.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass
from typing import Callable, Iterator

import numpy as np

from .core import MapKey, _check_counts, orbit_chunks

THRESHOLD = 0.5
DEGENERATE_TAIL = 100


@dataclass(frozen=True, eq=False)
class BitStream:
    """Thresholded binary sequence tagged with its generating key.

    The bits are held packed MSB-first in ``packed``: read-only uint8 bytes
    holding ``n_bits`` bits, then zero pad bits.  ``bits`` unpacks a fresh
    0/1 copy on each access.  A 0/1 array given as ``bits=`` (to the
    constructor or to ``dataclasses.replace``) is checked and packed in
    place of ``packed`` and ``n_bits``; bytes that do not hold exactly
    ``n_bits`` bits with zero pad bits are refused.
    """

    packed: np.ndarray | None = None
    n_bits: int = 0
    key_fingerprint: str = ""
    degenerate: bool = False  # the generating run's flag, see stream_chunks
    bits: InitVar[np.ndarray | None] = None

    def __post_init__(self, bits):
        if bits is not None:
            arr = np.asarray(bits)
            _check_bit_array(arr)
            object.__setattr__(self, "packed", np.packbits(arr))
            object.__setattr__(self, "n_bits", arr.size)
        packed, n = self.packed, self.n_bits
        if not (isinstance(packed, np.ndarray) and packed.dtype == np.uint8 and packed.ndim == 1):
            raise ValueError("packed must be a 1-D uint8 array")
        if not (isinstance(n, (int, np.integer)) and n >= 0 and packed.size == (n + 7) // 8):
            raise ValueError(f"n_bits must be an integer >= 0 that packs into the {packed.size} "
                             f"bytes given, got {n!r}")
        if n % 8 and packed[-1] & (0xFF >> n % 8):
            raise ValueError("the pad bits after the last bit must be zero")
        packed.flags.writeable = False

    def __len__(self) -> int:
        return self.n_bits


# set once the dataclass is made, whose bits= argument has the same name
BitStream.bits = property(lambda self: np.unpackbits(self.packed, count=self.n_bits),
                          doc="A fresh 0/1 uint8 copy of the bits.")


def _check_bit_array(arr: np.ndarray) -> None:
    """Refuse anything but a 1-D array of 0s and 1s of bool or integer dtype.

    The values are checked before any cast, so no float is truncated and no
    wider integer wraps into 0..1.
    """
    if arr.dtype.kind not in "biu":
        raise ValueError(f"bit input must be of bool or integer dtype, got {arr.dtype}")
    if arr.ndim != 1:
        raise ValueError("bit input must be one-dimensional")
    if arr.size:
        # only signed input can hold a negative value; uint8 pays the one max()
        low, high = arr.min() if arr.dtype.kind == "i" else 0, arr.max()
        if low < 0 or high > 1:
            raise ValueError(f"bit input must hold only 0 and 1, got {int(low if low < 0 else high)}")


def _as_stream(bits: BitStream | np.ndarray) -> BitStream:
    """A BitStream as it is (valid by construction), or one made from a 0/1 array."""
    return bits if isinstance(bits, BitStream) else BitStream(bits=bits)


def _bits_at(packed: np.ndarray, start: int, count: int) -> np.ndarray:
    """Bits start .. start + count - 1 of packed MSB-first bytes, unpacked as 0/1 uint8."""
    head = start % 8
    return np.unpackbits(packed[start // 8:(start + count + 7) // 8], count=head + count)[head:]


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


def orbit_stream(key: MapKey, n: int, burn_in: int) -> tuple[np.ndarray, bool]:
    """The quantized chunks of :func:`stream_chunks` filled into one uint8
    array of n bytes, plus the run's degenerate flag."""
    _check_counts(n, burn_in)  # before allocating: a negative n must name itself
    out = np.empty(n, dtype=np.uint8)
    pos = 0
    for chunk, degenerate in stream_chunks(key, n, burn_in, quantize_values):
        out[pos:pos + chunk.size] = chunk
        pos += chunk.size
    return out, degenerate


def packed_chunks(key: MapKey, segments: int, n: int, burn_in: int
                  ) -> Iterator[tuple[np.ndarray, bool | None]]:
    """The bits of :func:`stream_chunks` as ``segments`` consecutive n-bit
    segments, packed MSB-first a chunk at a time: (bytes, flag) pairs, the
    flag None until the last pair.  Each piece is non-empty and in one
    segment, whose pieces join into its zero-padded (n + 7) // 8 bytes; the
    1-7 bits at a piece's end that fill no byte carry into the next piece."""
    _check_counts(segments * n, burn_in)  # at the first draw: with n = 0 no chunk is drawn
    chunks = stream_chunks(key, segments * n, burn_in, threshold_values)
    chunk = carry = np.empty(0, dtype=np.uint8)  # a segment's last piece leaves no carry
    for _ in range(segments):
        left = n
        while left:
            if not chunk.size:
                chunk, degenerate = next(chunks)
            piece, chunk = chunk[:left], chunk[left:]
            left -= piece.size
            if carry.size:
                piece = np.concatenate([carry, piece])
            whole = piece.size - piece.size % 8 if left else piece.size
            piece, carry = piece[:whole], piece[whole:]
            if whole:
                yield np.packbits(piece), None if chunk.size else degenerate


def _bit_streams(key: MapKey, n: int, burn_in: int, fingerprints: list[str]) -> list[BitStream]:
    """One n-bit segment of :func:`packed_chunks` per fingerprint, each filled
    in place into its own bytes as its pieces arrive."""
    out, size, at = [], (n + 7) // 8, 0
    for piece, degenerate in packed_chunks(key, len(fingerprints), n, burn_in):
        if not at:
            out.append(np.empty(size, dtype=np.uint8))
        out[-1][at:at + piece.size] = piece
        at = (at + piece.size) % size
        del piece  # copied: free it before packed_chunks packs the next
    return [BitStream(packed=packed, n_bits=n, key_fingerprint=fp, degenerate=degenerate)
            for packed, fp in zip(out, fingerprints)]


def generate_bits(key: MapKey, n: int, burn_in: int = 0) -> BitStream:
    """Generate n bits from the orbit of ``key``; deterministic per key."""
    return _bit_streams(key, n, burn_in, [key.fingerprint()])[0]


def segmented_streams(key: MapKey, streams: int, bits_per_stream: int,
                      burn_in: int = 0) -> list[BitStream]:
    """Split one long orbit into disjoint consecutive bit segments.

    Segment i covers orbit positions [i*bits_per_stream, (i+1)*bits_per_stream)
    after burn_in and holds its own packed bytes; fingerprints carry the
    segment index, and every segment carries the whole run's degenerate flag.
    """
    if streams < 1:
        raise ValueError(f"streams must be >= 1, got {streams}")
    if bits_per_stream < 1:
        raise ValueError(f"bits_per_stream must be >= 1, got {bits_per_stream}")
    fp = key.fingerprint()
    return _bit_streams(key, bits_per_stream, burn_in, [f"{fp}:{i}" for i in range(streams)])


def pack_bytes(bits: BitStream | np.ndarray) -> tuple[bytes, int]:
    """Pack bits MSB-first into bytes.

    The first bit becomes the most significant bit of byte 0.  Returns
    (payload, pad_bits) where pad_bits zero bits were appended to fill the
    final byte; lengths divisible by 8 pad nothing.
    """
    stream = _as_stream(bits)
    return stream.packed.tobytes(), (-len(stream)) % 8


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
    return orbit_stream(key, n, burn_in)[0]
