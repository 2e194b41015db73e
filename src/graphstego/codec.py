"""Hide p message bits per n-bit cover block with at most rho flips.

One block: the carrier t stays unchanged when the message m already
equals the check of t (syndrome s = m XOR H(t) is zero); otherwise the
coset leader of s is XORed in, flipping at most rho positions.  The
receiver recovers m as H(v) with no table at all.

A byte stream is framed before embedding: a 32-bit big-endian bit
count, the payload bits MSB-first within each byte, then zero padding
up to a multiple of p.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, replace

import numpy as np

from .decoder import CosetTable
from .gf2 import as_bits, block_syndromes, column_syndromes, syndrome_bits
from .graphs import GraphicalCode
from .images import CoverImage

HEADER_BITS = 32
#: Blocks per pass of the stream codec; bounds its working memory.
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
    s = block_syndromes(np.concatenate([t, m])[None, :], _embed_columns(code), p)
    leader = table.leaders[int(s[0])]
    return t ^ leader, int(leader.sum())


def extract_block(v, code: GraphicalCode) -> np.ndarray:
    """Recover the p message bits of one block: m = H(v)."""
    v = as_bits(v)
    if v.size != code.n_len:
        raise ValueError(f"block must have {code.n_len} bits, got {v.size}")
    return _extract_blocks(v[None, :], code)[0]


def _embed_columns(code: GraphicalCode) -> list[int]:
    """Parity-check columns followed by identity columns for the message.

    The syndrome of a block with its p message bits appended is then
    H(t) XOR m: the index of the leader that embeds m into t.
    """
    p = code.n_len - code.k
    return column_syndromes(code.parity_check) + [1 << (p - 1 - i) for i in range(p)]


def _extract_blocks(blocks: np.ndarray, code: GraphicalCode) -> np.ndarray:
    """Message bits H(v) of each row of an (N, n) block matrix, as (N, p)."""
    p = code.n_len - code.k
    return syndrome_bits(block_syndromes(blocks, column_syndromes(code.parity_check), p), p)


def bytes_to_bits(data: bytes) -> np.ndarray:
    """Bytes -> bit vector, MSB first within each byte."""
    return np.unpackbits(np.frombuffer(data, dtype=np.uint8))


def bits_to_bytes(bits) -> bytes:
    """Inverse of :func:`bytes_to_bits`; length must be a multiple of 8."""
    bits = as_bits(bits)
    if bits.size % 8:
        raise ValueError(f"bit length {bits.size} is not a multiple of 8")
    return np.packbits(bits).tobytes()


def frame_payload(data_bits, p: int) -> np.ndarray:
    """Prefix a 32-bit length header and zero-pad to a multiple of p."""
    data_bits = as_bits(data_bits)
    if p < 1:
        raise ValueError(f"block message size must be positive, got {p}")
    if data_bits.size >= 1 << HEADER_BITS:
        raise ValueError("payload too long for a 32-bit length header")
    header = np.unpackbits(
        np.frombuffer(struct.pack(">I", data_bits.size), dtype=np.uint8)
    )
    pad = -(HEADER_BITS + data_bits.size) % p
    return np.concatenate([header, data_bits, np.zeros(pad, dtype=np.uint8)])


def unframe_payload(framed) -> np.ndarray:
    """Strip header and padding; validates the declared length.

    Raises:
        FrameError: if the stream is shorter than the header, or the
            header claims more bits than are present.
    """
    framed = as_bits(framed)
    if framed.size < HEADER_BITS:
        raise FrameError(f"frame has {framed.size} bits, header needs {HEADER_BITS}")
    declared = _declared_bits(framed)
    if declared > framed.size - HEADER_BITS:
        raise FrameError(
            f"header declares {declared} payload bits, only "
            f"{framed.size - HEADER_BITS} present"
        )
    return framed[HEADER_BITS : HEADER_BITS + declared].copy()


def _declared_bits(framed: np.ndarray) -> int:
    return int.from_bytes(np.packbits(framed[:HEADER_BITS]).tobytes(), "big")


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
    stego = as_bits(cover_bits)  # a fresh copy: the output array
    return stego, _embed_lsbs(stego, data_bits, table)


def embed_image(cover: CoverImage, data_bits, table: CosetTable) -> tuple[CoverImage, EmbedReport]:
    """:func:`embed_stream` on the cover's LSB plane, in one copy of its pixels.

    Gives the same stego pixels and report as
    ``lsb_inject(cover, embed_stream(lsb_extract(cover), data_bits, table))``
    without building the bit plane.  The cover is never modified; the
    returned image's pixels are a read-only array of their own.

    Raises:
        CapacityError: if the framed payload needs more blocks than the
            cover has pixels.
    """
    pixels = cover.pixels.copy()
    report = _embed_lsbs(pixels.reshape(-1), data_bits, table)
    pixels.setflags(write=False)
    return replace(cover, pixels=pixels), report


def _embed_lsbs(carrier: np.ndarray, data_bits, table: CosetTable) -> EmbedReport:
    """Embed the framed ``data_bits`` in the LSBs of ``carrier``, in place.

    ``carrier`` is a writable flat integer array of 0/1 bits or of
    pixels: each chunk's syndromes are read from ``part & 1``, and
    XOR-ing a 0/1 leader into ``part`` flips exactly those LSBs.
    """
    code = table.code
    n = code.n_len
    p = n - code.k
    messages = frame_payload(data_bits, p).reshape(-1, p)
    blocks_used = len(messages)
    needed = blocks_used * n
    if needed > carrier.size:
        raise CapacityError(
            f"framed payload needs {needed} cover bits, only {carrier.size} available"
        )
    blocks = carrier[:needed].reshape(-1, n)
    columns = _embed_columns(code)
    counts = np.zeros(len(table.leaders), dtype=np.int64)
    for start in range(0, blocks_used, CHUNK_BLOCKS):
        part = blocks[start : start + CHUNK_BLOCKS]
        idx = block_syndromes(
            np.hstack([part & 1, messages[start : start + CHUNK_BLOCKS]]), columns, p
        )
        part ^= np.take(table.leaders, idx, axis=0)
        counts += np.bincount(idx, minlength=len(counts))
    weights = table.leaders.sum(axis=1, dtype=np.int64)
    total = int(counts @ weights)
    return EmbedReport(
        blocks_used=blocks_used,
        total_flips=total,
        max_flips_per_block=int(weights[counts > 0].max()),
        embedding_rate=p / n,
        theoretical_efficiency=p / table.rho,
        empirical_efficiency=(p * blocks_used / total) if total else float("inf"),
    )


def extract_stream(stego_bits, code: GraphicalCode) -> np.ndarray:
    """Recover the framed payload from the leading stego blocks.

    Reads just enough blocks for the header, then exactly as many as
    the declared length requires, :data:`CHUNK_BLOCKS` at a time.

    Raises:
        FrameError: if the stream is too short for the header or for
            the length the header declares.
    """
    return _extract_lsbs(as_bits(stego_bits), code)


def extract_image(img: CoverImage, code: GraphicalCode) -> np.ndarray:
    """:func:`extract_stream` on the image's LSB plane, read straight from its pixels.

    Equal to ``extract_stream(lsb_extract(img), code)`` without building
    the bit plane.

    Raises:
        FrameError: as :func:`extract_stream`.
    """
    return _extract_lsbs(img.pixels.reshape(-1), code)


def _extract_lsbs(carrier: np.ndarray, code: GraphicalCode) -> np.ndarray:
    """Framed payload from the LSBs of a flat array of bits or pixels."""
    n = code.n_len
    p = n - code.k
    header_blocks = -(-HEADER_BITS // p)
    if carrier.size < header_blocks * n:
        raise FrameError(
            f"stego stream has {carrier.size} bits, header needs {header_blocks * n}"
        )
    blocks = carrier[: carrier.size // n * n].reshape(-1, n)
    declared = _declared_bits(_extract_blocks(blocks[:header_blocks] & 1, code).reshape(-1))
    total_blocks = -(-(HEADER_BITS + declared) // p)
    if total_blocks > len(blocks):
        raise FrameError(
            f"header declares {declared} payload bits needing {total_blocks * n} "
            f"stego bits, only {carrier.size} present"
        )
    framed = np.empty((total_blocks, p), dtype=np.uint8)
    for start in range(0, total_blocks, CHUNK_BLOCKS):
        stop = min(start + CHUNK_BLOCKS, total_blocks)
        framed[start:stop] = _extract_blocks(blocks[start:stop] & 1, code)
    return framed.reshape(-1)[HEADER_BITS : HEADER_BITS + declared]


def compute_metrics(n_len: int, p: int, rho: int) -> tuple[float, float]:
    """(embedding rate p/n, embedding efficiency p/rho), as exact floats.

    Raises:
        ValueError: unless all three arguments are positive (a covering
            radius of 0 leaves efficiency undefined).
    """
    if n_len < 1 or p < 1 or rho < 1:
        raise ValueError(
            f"n={n_len}, p={p}, rho={rho}: all must be positive"
        )
    return p / n_len, p / rho
