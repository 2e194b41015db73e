"""Hide p message bits per n-bit cover block with at most rho flips.

One block: the carrier t stays unchanged when the message m already
equals the check of t (syndrome s = m XOR H(t) is zero); otherwise the
coset leader of s is XORed in, flipping at most rho positions.  The
receiver recovers m as H(v) with no table at all.

A payload is framed before embedding: a 32-bit big-endian bit count,
the payload bits MSB-first within each byte, then zero padding up to a
multiple of p.  Both directions carry the frame packed, eight bits to a
byte: the header's 4 bytes, then the payload bytes.

The stream level embeds in a copy of an array of 0/1 bits and takes
and returns the payload one array entry per bit.  The file level takes
and returns payload bytes.  Both run one chunk loop,
:func:`_run_chunks`, which reads each chunk and passes it to one
function: embed and write it, or copy its syndromes into the frame.
On a file, :meth:`RasterFile.read <graphstego.images.RasterFile.read>`,
the one pixel reader, fills a buffer of each thread with a chunk of
pixels, which is embedded there and written where
:func:`~graphstego.images.save_image` would put it, so where a file
keeps its pixels is known to the ``images`` module alone.

Every header is decoded in plain Python.  :func:`extract_file` reads a
frame of at most :data:`PLAIN_FRAME_PIXELS` pixels into a bytearray,
through the same reader, and decodes it in plain Python too, so it
never reads numpy's handle, :data:`graphstego.gf2.np`, which imports
numpy on its first attribute read; every other function here that
handles bits or pixels, and the chunk loop of a larger frame, does.
"""

from __future__ import annotations

import errno
import os
import stat
import struct
import threading
from contextlib import nullcontext
from functools import partial
from typing import TYPE_CHECKING

from .decoder import CosetTable, _row_weights
from .gf2 import (
    SyndromeTables,
    _bits_view,
    _ValueRecord,
    as_bits,
    lane_syndromes,
    stream_syndromes,
    syndrome_index,
    syndrome_words,
)
from .graphs import GraphicalCode
from .images import RasterFile

if TYPE_CHECKING:
    import numpy as np
else:
    from .gf2 import np

HEADER_BITS = 32
HEADER_BYTES = HEADER_BITS // 8
#: Blocks per pass of the stream codec; bounds its working memory.
#: Both directions round it up to a multiple of 8 blocks, so that every
#: chunk starts on a whole frame byte.
CHUNK_BLOCKS = 1 << 16
#: Most pixels of a frame that :func:`extract_file` decodes in plain
#: Python (:func:`_plain_frame`), which loads no numpy; a larger frame
#: goes through the numpy chunk loop.  On a 2-core host plain Python
#: took 3.8 (K5) to about 6 (18-vertex ring) ns a frame pixel, the chunk
#: loop about 0.5 ns, but loading numpy and the code's tables costs the
#: loop about 65 ms.  Spawn to reap, the two paths broke even at frames
#: of about 8.5 Mpx (the ring) to 15 Mpx (K5); 2^22 (4.2 Mpx) stays
#: below both.
PLAIN_FRAME_PIXELS = 1 << 22
#: Most threads one call runs its chunks on: the caller and one helper.
#: More would not pay on a two-core host, and each adds a chunk's
#: working memory.
MAX_THREADS = 2


class CapacityError(ValueError):
    """Raised when the cover has too few bits for the framed payload."""


class FrameError(ValueError):
    """Raised when a recovered stream does not parse as a framed payload."""


class EmbedReport(_ValueRecord):
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
    return np.unpackbits(_message_bytes(v[None], code.check_tables), count=code.n_len - code.k)


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

    The stego bits are a fresh copy of the cover bits, and the blocks
    are embedded in it :data:`CHUNK_BLOCKS` at a time, so working
    memory beyond the output stays bounded.  Trailing cover bits that
    no block reaches pass through unchanged; the inputs are never
    modified.

    Raises:
        CapacityError: if the framed payload needs more blocks than the
            cover holds.
    """
    stego = as_bits(cover_bits)
    data_bits = _bits_view(data_bits)
    report = _embed_lsbs(_Arrays(stego), None, np.packbits(data_bits), data_bits.size, table)
    return stego, report


def embed_file(cover_path, payload, table: CosetTable, out_path) -> EmbedReport:
    """Embed the ``payload`` bytes in a cover file and write the stego file.

    With ``cover = load_image(cover_path)``, writes what
    ``save_image`` writes for the stego image
    ``lsb_inject(cover, embed_stream(lsb_extract(cover), bytes_to_bits(payload), table)[0])``
    and returns the same report, but a chunk at a time, each embedded
    in the buffer it is read into: no array holds the whole image.
    ``cover_path`` may also be a :class:`RasterFile` the caller opened,
    and then closes.  A cover that is not a regular file is read into
    memory first, up to the raster's end.  The chunks
    are written into a new ``graphstego-<16 hex>.tmp`` file beside
    ``out_path``'s target (a fixed-length name, whatever ``out_path``'s
    length), renamed onto it with an existing file's permission bits
    once the last chunk is written.  So a failed embedding leaves
    ``out_path`` as it was, ``out_path`` may name the cover, hard links
    to an old ``out_path`` keep the old bytes, and ``out_path``'s
    directory must be writable.

    Raises:
        TypeError: if ``payload`` is an ndarray (such as one entry per
            bit) rather than bytes, a bytearray or a memoryview.
        OSError: if ``out_path`` exists but is not a regular file, or
            cannot be read or written.
        ImageFormatError: if the cover does not parse.
        CapacityError: if the framed payload needs more blocks than the
            cover has pixels.
    """
    packed = _payload_bytes(payload)
    existing = _check_seekable(out_path)
    opened = isinstance(cover_path, RasterFile)
    with nullcontext(cover_path) if opened else RasterFile(cover_path) as cover:
        check_capacity(table.code, 8 * packed.size, cover.size)
        target = os.path.realpath(out_path)
        tmp = os.path.join(os.path.dirname(target), f"graphstego-{os.urandom(8).hex()}.tmp")
        with open(tmp, "xb") as fh:
            try:
                if existing is not None:
                    os.fchmod(fh.fileno(), stat.S_IMODE(existing.st_mode))
                write = partial(cover.layout.write, fh.fileno())
                report = _embed_lsbs(cover, write, packed, 8 * packed.size, table)
                os.replace(tmp, target)
            except BaseException:
                os.unlink(tmp)
                raise
    return report


def _check_seekable(out_path) -> os.stat_result | None:
    """``out_path``'s own status, or None if it does not exist.

    Raises:
        OSError: if it is there but is not a regular file, such as a
            pipe, a device or a directory, which the stego file would replace.
    """
    try:
        st = os.stat(out_path)
    except FileNotFoundError:
        return None
    if not stat.S_ISREG(st.st_mode):
        raise OSError(errno.EINVAL, "stego output must be a seekable regular file", str(out_path))
    return st


def _payload_bytes(payload) -> np.ndarray:
    if isinstance(payload, np.ndarray):
        raise TypeError("payload must be bytes-like, not an ndarray")
    return np.frombuffer(payload, dtype=np.uint8)


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


def _embed_lsbs(io, write, packed: np.ndarray, bits: int, table: CosetTable) -> EmbedReport:
    """Embed the framed payload in the LSBs of ``io``'s chunks, in place.

    ``io`` is an :class:`_Arrays` (``write`` None) or a ``RasterFile``,
    whose chunks ``write(lo, hi, scratch)`` stores once embedded.
    ``packed`` holds the ``bits`` payload bits, packed MSB first.
    :func:`_run_chunks` passes each chunk to one function, which embeds
    its used blocks and writes it.  The chunks are of 0/1 bits or of
    pixels: each chunk's syndromes are read from ``part & 1``, and
    XOR-ing a 0/1 leader into ``part`` flips exactly those LSBs.  Bits
    past the last block go through the same loop unchanged.
    """
    code = table.code
    n = code.n_len
    p = n - code.k
    blocks_used = check_capacity(code, bits, io.size)
    needed = blocks_used * n
    frame = _packed_frame(packed, bits)
    tables = code.check_tables
    weights = np.frombuffer(_row_weights(table.rows, n), dtype=np.uint8)  # at most rho <= p flips

    def embed(start: int, lo: int, hi: int, part: np.ndarray, scratch) -> tuple[int, int]:
        """Embed the chunk's used blocks and write it; returns its flips and most in a block."""
        used = max(min(hi, needed) - lo, 0)
        total = most = 0
        if used:
            blocks = part[:used].reshape(-1, n)
            syn = _message_bytes(blocks, tables)
            message = frame[start * p // 8 : start * p // 8 + len(syn)]
            syn[: len(message)] ^= message  # the leader indices H(t) XOR m, packed
            idx = syndrome_words(syn, len(blocks), p).astype(np.intp)  # cast once for both takes
            blocks ^= np.take(table.leaders, idx, axis=0)
            flips = np.take(weights, idx)
            total, most = int(flips.sum()), int(flips.max())
        if write is not None:
            write(lo, hi, scratch)
        return total, most

    results = _run_chunks(io, n, io.size, embed)  # every pixel
    total = sum(t for t, _ in results)
    return EmbedReport(
        blocks_used=blocks_used,
        total_flips=total,
        max_flips_per_block=max(m for _, m in results),
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
    stego = _Arrays(_bits_view(stego_bits))
    declared, blocks = _frame_length(stego, code)
    frame = _extract_lsbs(stego, code, blocks)
    return np.unpackbits(frame[HEADER_BYTES:], count=declared)


def extract_file(stego_path, code: GraphicalCode) -> bytes:
    """Recover the payload bytes from a stego image file.

    Equal to ``bits_to_bytes(extract_stream(lsb_extract(load_image(stego_path)), code))``
    without holding the whole image.  The header's blocks come from one
    positional read.  A frame of at most :data:`PLAIN_FRAME_PIXELS`
    pixels is then read in one more and decoded in plain Python
    (:func:`_plain_frame`), so that no numpy loads; a larger one goes
    through the numpy chunk loop, one read for each chunk of blocks.
    A file that is not regular, such as a pipe, is read into memory
    first, up to the raster's end.

    Raises:
        ImageFormatError: if the file does not parse.
        FrameError: as :func:`extract_stream`, or if the declared length
            is not a whole number of bytes, which is refused before the
            frame's blocks are read.
    """
    with RasterFile(stego_path) as stego:
        declared, blocks = _frame_length(stego, code)
        if declared % 8:
            raise FrameError(f"recovered {declared} bits, not a whole number of bytes")
        if blocks * code.n_len <= PLAIN_FRAME_PIXELS:
            frame = _plain_frame(stego, code, blocks)
        else:
            frame = _extract_lsbs(stego, code, blocks)
    return bytes(frame[HEADER_BYTES : HEADER_BYTES + declared // 8])


def _frame_length(io, code: GraphicalCode) -> tuple[int, int]:
    """The payload bits that the header of ``io``'s LSBs declares, and the frame's blocks.

    The header's blocks are decoded by :func:`_plain_frame`.

    Raises:
        FrameError: if ``io`` is too short for the header or for the
            blocks that the declared length needs.
    """
    n = code.n_len
    p = n - code.k
    header_blocks = -(-HEADER_BITS // p)
    if io.size < header_blocks * n:
        raise FrameError(
            f"stego stream has {io.size} bits, header needs {header_blocks * n}"
        )
    header = _plain_frame(io, code, header_blocks)
    declared = int.from_bytes(header[:HEADER_BYTES], "big")
    total_blocks = -(-(HEADER_BITS + declared) // p)
    if total_blocks > io.size // n:
        raise FrameError(
            f"header declares {declared} payload bits needing {total_blocks * n} "
            f"stego bits, only {io.size} present"
        )
    return declared, total_blocks


def _plain_frame(io, code: GraphicalCode, blocks: int) -> bytes:
    """The message bits H(v) of ``io``'s first ``blocks`` blocks, packed MSB first, in plain Python.

    ``io.read`` fills a bytearray with one byte per bit or pixel, of
    which only the LSB is read.  Column j's byte of every block is the
    strided lane ``lsbs[j::n]``, and :func:`~graphstego.gf2.lane_syndromes`
    turns the lanes into one 0/1 byte lane per syndrome bit: column j's
    word has byte i set when check row i holds column j.  The syndrome
    lanes are interleaved into one byte per frame bit, and eight
    strided lanes of those bytes are packed into each frame byte.  The
    pixels are let go once their lanes are read.
    """
    n = code.n_len
    p = n - code.k
    lsbs = bytearray(blocks * n)
    io.read(0, len(lsbs), lsbs)
    words = [sum(1 << 8 * i for i, row in enumerate(code.check_rows) if row >> j & 1)
             for j in range(n)]
    lanes = lane_syndromes(((lsbs[j::n], words[j : j + 1]) for j in range(n)), p)
    del lsbs
    bits = bytearray(-(-blocks * p // 8) * 8)  # one byte per frame bit, zero-padded
    for i in range(p):
        bits[i : blocks * p : p] = lanes[i].to_bytes(blocks, "little")
        lanes[i] = None
    # each lane's bytes are 0 or 1, so a shift by at most 7 stays inside its byte
    packed = sum(int.from_bytes(bits[k::8], "little") << 7 - k for k in range(8))
    return packed.to_bytes(len(bits) // 8, "little")


def _extract_lsbs(io, code: GraphicalCode, total_blocks: int) -> np.ndarray:
    """Packed frame from the LSBs of ``io``'s first ``total_blocks`` blocks, a chunk at a time.

    The chunks are of bits or of pixels: :func:`_run_chunks` reads
    each, and its syndromes go through the numpy engine into the frame.
    """
    n = code.n_len
    p = n - code.k
    tables = code.check_tables
    frame = np.empty(-(-total_blocks * p // 8), dtype=np.uint8)

    def copy(start: int, lo: int, hi: int, part: np.ndarray, scratch) -> None:
        syn = _message_bytes(part.reshape(-1, n), tables)
        frame[start * p // 8 : start * p // 8 + len(syn)] = syn

    _run_chunks(io, n, total_blocks * n, copy)
    return frame


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _run_chunks(io, n: int, end: int, visit) -> list:
    """Call ``visit`` on each chunk of ``io``'s entries ``0 .. end``, on the caller and its helper.

    A chunk is :data:`CHUNK_BLOCKS` blocks of ``n`` entries, rounded up
    to a multiple of 8 so that its first block starts a whole byte of
    the packed frame; the last chunk ends at ``end``.  At most
    MAX_THREADS threads in all, the caller included, and no more than
    there are usable CPUs or chunks.  Each thread takes one
    ``io.scratch`` buffer, claims one chunk start at a time, reads the
    chunk with ``io.read`` and calls ``visit(start, lo, hi, part,
    scratch)``: ``start`` is its first block, ``lo .. hi`` its entries
    and ``part`` an array of them.  The visits' results are returned,
    in no set order.  An exception in any thread stops the others
    before their next chunk; every helper is joined before this
    returns or raises, and the first exception is raised here.
    """
    step = -(-CHUNK_BLOCKS // 8) * 8
    starts = range(0, -(-end // n), step)
    todo = iter(starts)
    lock = threading.Lock()
    failed, results = [], []

    def run() -> None:
        try:
            scratch = io.scratch(step * n)
            while not failed:
                with lock:
                    start = next(todo, None)
                if start is None:
                    return
                lo, hi = start * n, min((start + step) * n, end)
                part = np.asarray(io.read(lo, hi, scratch))
                results.append(visit(start, lo, hi, part, scratch))
        except BaseException as exc:  # raised by the caller once every helper is joined
            failed.append(exc)

    workers = min(MAX_THREADS, _usable_cpus(), len(starts))
    helpers = [threading.Thread(target=run) for _ in range(workers - 1)]
    for thread in helpers:
        thread.start()
    run()
    for thread in helpers:
        thread.join()
    if failed:
        raise failed[0]
    return results


class _Arrays:
    """A flat array read a chunk at a time, as ``RasterFile`` reads pixels.

    Its scratch is None: the chunk loop embeds in a view of the array.
    """

    def __init__(self, bits: np.ndarray):
        self.bits, self.size = bits, bits.size

    def scratch(self, size: int) -> None:
        return None

    def read(self, lo: int, hi: int, buf) -> np.ndarray:
        """A view of entries ``lo .. hi``, copied into ``buf`` too unless it is None."""
        part = self.bits[lo:hi]
        if buf is not None:
            memoryview(buf)[: hi - lo] = part
        return part


def _message_bytes(blocks: np.ndarray, tables: SyndromeTables) -> np.ndarray:
    """The message bits H(v) of each block, packed MSB first with no gaps."""
    return stream_syndromes(np.packbits(blocks & 1), len(blocks), tables)
