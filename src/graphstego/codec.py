"""Hide p message bits per n-bit cover block with at most rho flips.

One block: the carrier t stays unchanged when the message m already
equals the check of t (syndrome s = m XOR H(t) is zero); otherwise the
coset leader of s is XORed in, flipping at most rho positions.  The
receiver recovers m as H(v) with no table at all.

A payload is framed before embedding: a 32-bit big-endian bit count,
the payload bits MSB-first within each byte, then zero padding up to a
multiple of p.  Both directions carry the frame packed, eight bits to a
byte: the header's 4 bytes, then the payload bytes.  The image level
takes and returns those bytes; the stream level unpacks them to one
array entry per bit.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, replace

import numpy as np

from .decoder import CosetTable
from .gf2 import (
    SyndromeTables,
    _bits_view,
    as_bits,
    stream_syndromes,
    syndrome_index,
    syndrome_tables,
)
from .graphs import GraphicalCode
from .images import CoverImage

HEADER_BITS = 32
HEADER_BYTES = HEADER_BITS // 8
#: Blocks per pass of the stream codec; bounds its working memory.
#: Both directions round it up to a multiple of 8 blocks, so that every
#: chunk starts on a whole frame byte.
CHUNK_BLOCKS = 1 << 16


class CapacityError(ValueError):
    """Raised when the cover has too few bits for the framed payload."""


class FrameError(ValueError):
    """Raised when a recovered stream does not parse as a framed payload."""


@dataclass(frozen=True)
class EmbedReport:
    """What one embedding run did to the cover.

    ``empirical_efficiency`` counts all conveyed frame bits (header and
    padding included): p * blocks_used / total_flips, inf if nothing
    flipped.
    """

    blocks_used: int
    total_flips: int
    max_flips_per_block: int
    embedding_rate: float
    theoretical_efficiency: float
    empirical_efficiency: float


def embed_block(t, m, table: CosetTable) -> tuple[np.ndarray, int]:
    """Embed p message bits into one n-bit block.

    Returns:
        (modified block v with H(v) = m, number of bits flipped).
    """
    code = table.code
    t = as_bits(t)
    m = as_bits(m)
    p = code.n_len - code.k
    if t.size != code.n_len:
        raise ValueError(f"block must have {code.n_len} bits, got {t.size}")
    if m.size != p:
        raise ValueError(f"message must have {p} bits, got {m.size}")
    leader = table.leaders[syndrome_index(extract_block(t, code) ^ m)]
    return t ^ leader, int(leader.sum())


def extract_block(v, code: GraphicalCode) -> np.ndarray:
    """Recover the p message bits of one block: m = H(v)."""
    v = as_bits(v)
    if v.size != code.n_len:
        raise ValueError(f"block must have {code.n_len} bits, got {v.size}")
    return np.unpackbits(_message_bytes(v[None], _code_tables(code)), count=code.n_len - code.k)


def bytes_to_bits(data: bytes) -> np.ndarray:
    """Bytes -> bit vector, MSB first within each byte."""
    return np.unpackbits(np.frombuffer(data, dtype=np.uint8))


def bits_to_bytes(bits) -> bytes:
    """Inverse of :func:`bytes_to_bits`; length must be a multiple of 8."""
    bits = _bits_view(bits)
    if bits.size % 8:
        raise ValueError(f"bit length {bits.size} is not a multiple of 8")
    return np.packbits(bits).tobytes()


def frame_payload(data_bits, p: int) -> np.ndarray:
    """Prefix a 32-bit length header and zero-pad to a multiple of p.

    The unpacked view of the frame that embedding carries packed.
    """
    if p < 1:
        raise ValueError(f"block message size must be positive, got {p}")
    data_bits = _bits_view(data_bits)
    frame = _packed_frame(np.packbits(data_bits), data_bits.size)
    bits = HEADER_BITS + data_bits.size
    return np.unpackbits(frame, count=bits + -bits % p)


def _packed_frame(packed: np.ndarray, bits: int) -> np.ndarray:
    """The header declaring ``bits`` payload bits, then ``packed``: the frame MSB first.

    ``packed`` holds the payload bits packed, their last byte filled
    with zeros, which are the frame's padding; bits read past the end
    are zero as well.
    """
    if bits >= 1 << HEADER_BITS:
        raise ValueError("payload too long for a 32-bit length header")
    header = np.frombuffer(struct.pack(">I", bits), dtype=np.uint8)
    return np.concatenate([header, packed])


def embed_stream(cover_bits, data_bits, table: CosetTable) -> tuple[np.ndarray, EmbedReport]:
    """Frame ``data_bits`` and embed them across leading cover blocks.

    Blocks are processed :data:`CHUNK_BLOCKS` at a time, so working
    memory beyond the output stays bounded.  Trailing cover bits that
    no block reaches pass through unchanged; the inputs are never
    modified.

    Raises:
        CapacityError: if the framed payload needs more blocks than the
            cover holds.
    """
    cover_bits = _bits_view(cover_bits)
    data_bits = _bits_view(data_bits)
    stego = np.empty_like(cover_bits)
    return stego, _embed_lsbs(cover_bits, stego, np.packbits(data_bits), data_bits.size, table)


def embed_image(
    cover: CoverImage, payload: bytes, table: CosetTable
) -> tuple[CoverImage, EmbedReport]:
    """Embed the ``payload`` bytes in the cover's LSB plane, written into new pixels.

    Gives the same stego pixels and report as
    ``lsb_inject(cover, embed_stream(lsb_extract(cover), bytes_to_bits(payload), table))``
    without building the bit plane or the payload bits.  The cover is
    never modified; the returned image's pixels are a read-only array
    of their own.

    Raises:
        TypeError: if ``payload`` is an ndarray (such as one entry per
            bit) rather than bytes, a bytearray or a memoryview.
        CapacityError: if the framed payload needs more blocks than the
            cover has pixels.
    """
    if isinstance(payload, np.ndarray):
        raise TypeError("payload must be bytes-like, not an ndarray")
    packed = np.frombuffer(payload, dtype=np.uint8)
    src = cover.pixels.reshape(-1)
    pixels = np.empty_like(src)
    report = _embed_lsbs(src, pixels, packed, 8 * packed.size, table)
    pixels.setflags(write=False)
    return replace(cover, pixels=pixels.reshape(cover.pixels.shape)), report


def check_capacity(code: GraphicalCode, bits: int, cover_bits: int) -> int:
    """Blocks that a framed payload of ``bits`` bits needs in a cover of ``cover_bits`` LSBs.

    Raises:
        CapacityError: if the cover has fewer bits than those blocks.
    """
    p = code.n_len - code.k
    blocks = -(-(HEADER_BITS + bits) // p)
    if blocks * code.n_len > cover_bits:
        raise CapacityError(
            f"framed payload needs {blocks * code.n_len} cover bits, only {cover_bits} available"
        )
    return blocks


def _embed_lsbs(
    src: np.ndarray, dst: np.ndarray, packed: np.ndarray, bits: int, table: CosetTable
) -> EmbedReport:
    """Write ``src`` with the framed payload embedded in its LSBs to ``dst``.

    ``packed`` holds the ``bits`` payload bits, packed MSB first.
    ``src`` and ``dst`` are flat integer arrays of one size, of 0/1
    bits or of pixels: each chunk's syndromes are read from
    ``part & 1``, and XOR-ing a 0/1 leader into ``part`` flips exactly
    those LSBs.  Bits past the last block are copied unchanged.
    """
    code = table.code
    n = code.n_len
    p = n - code.k
    blocks_used = check_capacity(code, bits, src.size)
    needed = blocks_used * n
    blocks = src[:needed].reshape(-1, n)
    out = dst[:needed].reshape(-1, n)
    frame = _packed_frame(packed, bits)
    tables = _code_tables(code)
    # leader index H(t) XOR m, packed; each p-bit group read as a big-endian word
    # through a right-aligned identity
    word = np.min_scalar_type((1 << p) - 1).itemsize
    identity = syndrome_tables(np.eye(8 * word, p, p - 8 * word, dtype=np.uint8))
    weights = table.leaders.sum(axis=1, dtype=np.int64)
    total = most = 0
    for start, stop in _chunks(blocks_used):
        part = blocks[start:stop]
        syn = _message_bytes(part, tables)
        message = frame[start * p // 8 : start * p // 8 + len(syn)]
        syn[: len(message)] ^= message
        idx = stream_syndromes(syn, stop - start, identity).view(f">u{word}")
        leaders = np.take(table.leaders, idx, axis=0)
        np.bitwise_xor(part, leaders, out=out[start:stop])
        total += int(np.count_nonzero(leaders))
        most = max(most, int(np.take(weights, idx).max()))
    dst[needed:] = src[needed:]
    return EmbedReport(
        blocks_used=blocks_used,
        total_flips=total,
        max_flips_per_block=most,
        embedding_rate=p / n,
        theoretical_efficiency=p / table.rho,
        empirical_efficiency=(p * blocks_used / total) if total else float("inf"),
    )


def extract_stream(stego_bits, code: GraphicalCode) -> np.ndarray:
    """Recover the framed payload bits from the leading stego blocks.

    Reads just enough blocks for the header, then exactly as many as
    the declared length requires, :data:`CHUNK_BLOCKS` at a time.

    Raises:
        FrameError: if the stream is too short for the header or for
            the length the header declares.
    """
    frame, declared = _extract_lsbs(_bits_view(stego_bits), code)
    return np.unpackbits(frame[HEADER_BYTES:], count=declared)


def extract_image(img: CoverImage, code: GraphicalCode) -> bytes:
    """Recover the payload bytes from the image's LSB plane, read straight from its pixels.

    Equal to ``bits_to_bytes(extract_stream(lsb_extract(img), code))``
    without building the bit plane or the payload bits.

    Raises:
        FrameError: as :func:`extract_stream`, or if the declared length
            is not a whole number of bytes.
    """
    frame, declared = _extract_lsbs(img.pixels.reshape(-1), code)
    if declared % 8:
        raise FrameError(f"recovered {declared} bits, not a whole number of bytes")
    return frame[HEADER_BYTES : HEADER_BYTES + declared // 8].tobytes()


def _extract_lsbs(carrier: np.ndarray, code: GraphicalCode) -> tuple[np.ndarray, int]:
    """Packed frame from the LSBs of a flat array of bits or pixels.

    Returns:
        (frame, declared): the frame's bytes, header first, and the
        payload length in bits that the header declares.
    """
    n = code.n_len
    p = n - code.k
    header_blocks = -(-HEADER_BITS // p)
    if carrier.size < header_blocks * n:
        raise FrameError(
            f"stego stream has {carrier.size} bits, header needs {header_blocks * n}"
        )
    blocks = carrier[: carrier.size // n * n].reshape(-1, n)
    tables = _code_tables(code)
    header = _message_bytes(blocks[:header_blocks], tables)
    declared = int.from_bytes(header[:HEADER_BYTES].tobytes(), "big")
    total_blocks = -(-(HEADER_BITS + declared) // p)
    if total_blocks > len(blocks):
        raise FrameError(
            f"header declares {declared} payload bits needing {total_blocks * n} "
            f"stego bits, only {carrier.size} present"
        )
    frame = np.empty(-(-total_blocks * p // 8), dtype=np.uint8)
    for start, stop in _chunks(total_blocks):
        part = _message_bytes(blocks[start:stop], tables)
        frame[start * p // 8 : start * p // 8 + len(part)] = part
    return frame, declared


def _chunks(blocks: int):
    """(start, stop) of each chunk: :data:`CHUNK_BLOCKS` rounded up to a multiple of 8.

    So ``start * p`` is a whole number of bytes of the packed frame.
    """
    step = -(-CHUNK_BLOCKS // 8) * 8
    return ((start, min(start + step, blocks)) for start in range(0, blocks, step))


def _code_tables(code: GraphicalCode) -> SyndromeTables:
    """The code's packed syndrome tables: one form for both directions, built once per call."""
    return syndrome_tables(code.parity_check)


def _message_bytes(blocks: np.ndarray, tables: SyndromeTables) -> np.ndarray:
    """The message bits H(v) of each block, packed MSB first with no gaps."""
    return stream_syndromes(np.packbits(blocks & 1), len(blocks), tables)
