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

The file level runs the same chunk loop on a cover file: each chunk
of pixels is read through :class:`~graphstego.images.RasterFile` and
written where :func:`~graphstego.images.save_image` would put it, so
where a file keeps its pixels is known to the ``images`` module alone.
"""

from __future__ import annotations

import errno
import os
import stat
import struct
import threading
from contextlib import nullcontext
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from .decoder import CosetTable
from .gf2 import (
    SyndromeTables,
    _bits_view,
    as_bits,
    stream_syndromes,
    syndrome_index,
    syndrome_words,
)
from .graphs import GraphicalCode
from .images import CoverImage, RasterFile

if TYPE_CHECKING:
    import numpy as np

HEADER_BITS = 32
HEADER_BYTES = HEADER_BITS // 8
#: Blocks per pass of the stream codec; bounds its working memory.
#: Both directions round it up to a multiple of 8 blocks, so that every
#: chunk starts on a whole frame byte.
CHUNK_BLOCKS = 1 << 16
#: Most threads one call runs its chunks on: the caller and one helper.
#: More would not pay on a two-core host, and each adds a chunk's
#: working memory.
MAX_THREADS = 2


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
    import numpy as np

    v = as_bits(v)
    if v.size != code.n_len:
        raise ValueError(f"block must have {code.n_len} bits, got {v.size}")
    return np.unpackbits(_message_bytes(v[None], code.check_tables), count=code.n_len - code.k)


def bytes_to_bits(data: bytes) -> np.ndarray:
    """Bytes -> bit vector, MSB first within each byte."""
    import numpy as np

    return np.unpackbits(np.frombuffer(data, dtype=np.uint8))


def bits_to_bytes(bits) -> bytes:
    """Inverse of :func:`bytes_to_bits`; length must be a multiple of 8."""
    import numpy as np

    bits = _bits_view(bits)
    if bits.size % 8:
        raise ValueError(f"bit length {bits.size} is not a multiple of 8")
    return np.packbits(bits).tobytes()


def frame_payload(data_bits, p: int) -> np.ndarray:
    """Prefix a 32-bit length header and zero-pad to a multiple of p.

    The unpacked view of the frame that embedding carries packed.
    """
    import numpy as np

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
    import numpy as np

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
    import numpy as np

    cover_bits = _bits_view(cover_bits)
    data_bits = _bits_view(data_bits)
    stego = np.empty_like(cover_bits)
    report = _embed_lsbs(_Arrays(cover_bits, stego), np.packbits(data_bits), data_bits.size, table)
    return stego, report


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
    import numpy as np

    packed = _payload_bytes(payload)
    src = cover.pixels.reshape(-1)
    pixels = np.empty_like(src)
    report = _embed_lsbs(_Arrays(src, pixels), packed, 8 * packed.size, table)
    pixels.setflags(write=False)
    return replace(cover, pixels=pixels.reshape(cover.pixels.shape)), report


def embed_file(cover_path, payload, table: CosetTable, out_path) -> EmbedReport:
    """Embed the ``payload`` bytes in a cover file and write the stego file.

    Writes the same bytes as
    ``save_image(embed_image(load_image(cover_path), payload, table)[0], out_path)``
    and returns the same report, but a chunk at a time: no array holds
    the whole image.  ``cover_path`` may also be a :class:`RasterFile`
    the caller opened, and then closes.  A cover that is not a regular
    file is read into memory first.  The chunks are written into a new
    ``graphstego-<16 hex>.tmp`` file beside ``out_path``'s target (a
    fixed-length name, whatever ``out_path``'s length), renamed onto it
    with an existing file's permission bits once the last chunk is
    written.  So a failed embedding leaves ``out_path`` as it was,
    ``out_path`` may name the cover, hard links to an old ``out_path``
    keep the old bytes, and ``out_path``'s directory must be writable.

    Raises:
        TypeError: as :func:`embed_image`.
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
        check_capacity(table.code, 8 * packed.size, cover.layout.capacity)
        target = os.path.realpath(out_path)
        tmp = os.path.join(os.path.dirname(target), f"graphstego-{os.urandom(8).hex()}.tmp")
        with open(tmp, "xb") as fh:
            try:
                if existing is not None:
                    os.fchmod(fh.fileno(), stat.S_IMODE(existing.st_mode))
                report = _embed_lsbs(_Raster(cover, fh.fileno()), packed, 8 * packed.size, table)
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
    import numpy as np

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


def _embed_lsbs(io, packed: np.ndarray, bits: int, table: CosetTable) -> EmbedReport:
    """Embed the framed payload in the LSBs of ``io``'s chunks.

    ``packed`` holds the ``bits`` payload bits, packed MSB first.  The
    chunks are of 0/1 bits or of pixels: each chunk's syndromes are
    read from ``part & 1``, and XOR-ing a 0/1 leader into ``part``
    flips exactly those LSBs.  Bits past the last block go through the
    same loop unchanged.
    """
    import numpy as np

    code = table.code
    n = code.n_len
    p = n - code.k
    blocks_used = check_capacity(code, bits, io.size)
    needed = blocks_used * n
    frame = _packed_frame(packed, bits)
    tables = code.check_tables
    weights = table.leaders.sum(axis=1, dtype=np.uint8)  # at most rho <= p flips
    step = _step()

    def embed(start: int, blocks: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Write ``blocks ^ leaders`` to ``out``; returns each block's flip count."""
        syn = _message_bytes(blocks, tables)
        message = frame[start * p // 8 : start * p // 8 + len(syn)]
        syn[: len(message)] ^= message  # the leader indices H(t) XOR m, packed
        idx = syndrome_words(syn, len(blocks), p).astype(np.intp)  # cast once for both takes
        np.bitwise_xor(blocks, np.take(table.leaders, idx, axis=0), out=out)
        return np.take(weights, idx)

    def run(claims) -> tuple[int, int]:
        scratch = io.scratch(step * n)
        total = most = 0
        for start in claims:
            lo, hi = start * n, min((start + step) * n, io.size)
            part, out = io.read(lo, hi, scratch)
            used = max(min(hi, needed) - lo, 0)
            if used:
                flips = embed(start, part[:used].reshape(-1, n), out[:used].reshape(-1, n))
                total += int(flips.sum())
                most = max(most, int(flips.max()))
            if out is not part:
                out[used:] = part[used:]
            io.write(lo, hi, scratch)
        return total, most

    results = _run_chunks(range(0, -(-io.size // n), step), run)  # every pixel
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
    import numpy as np

    frame, declared = _extract_lsbs(_Arrays(_bits_view(stego_bits)), code)
    return np.unpackbits(frame[HEADER_BYTES:], count=declared)


def extract_image(img: CoverImage, code: GraphicalCode) -> bytes:
    """Recover the payload bytes from the image's LSB plane, read straight from its pixels.

    Equal to ``bits_to_bytes(extract_stream(lsb_extract(img), code))``
    without building the bit plane or the payload bits.

    Raises:
        FrameError: as :func:`extract_stream`, or if the declared length
            is not a whole number of bytes.
    """
    return _payload_of(*_extract_lsbs(_Arrays(img.pixels.reshape(-1)), code))


def extract_file(stego_path, code: GraphicalCode) -> bytes:
    """Recover the payload bytes from a stego image file, a chunk at a time.

    Equal to ``extract_image(load_image(stego_path), code)`` without
    holding the whole image: each chunk of blocks is one positional
    read.  A file that is not regular, such as a pipe, is read into
    memory first.

    Raises:
        ImageFormatError: if the file does not parse.
        FrameError: as :func:`extract_image`.
    """
    with RasterFile(stego_path) as stego:
        return _payload_of(*_extract_lsbs(_Raster(stego), code))


def _payload_of(frame: np.ndarray, declared: int) -> bytes:
    if declared % 8:
        raise FrameError(f"recovered {declared} bits, not a whole number of bytes")
    return frame[HEADER_BYTES : HEADER_BYTES + declared // 8].tobytes()


def _extract_lsbs(io, code: GraphicalCode) -> tuple[np.ndarray, int]:
    """Packed frame from the LSBs of ``io``'s chunks, of bits or of pixels.

    Returns:
        (frame, declared): the frame's bytes, header first, and the
        payload length in bits that the header declares.
    """
    import numpy as np

    n = code.n_len
    p = n - code.k
    header_blocks = -(-HEADER_BITS // p)
    if io.size < header_blocks * n:
        raise FrameError(
            f"stego stream has {io.size} bits, header needs {header_blocks * n}"
        )
    tables = code.check_tables
    part, _ = io.read(0, header_blocks * n, io.scratch(header_blocks * n))
    header = _message_bytes(part.reshape(-1, n), tables)
    declared = int.from_bytes(header[:HEADER_BYTES].tobytes(), "big")
    total_blocks = -(-(HEADER_BITS + declared) // p)
    if total_blocks > io.size // n:
        raise FrameError(
            f"header declares {declared} payload bits needing {total_blocks * n} "
            f"stego bits, only {io.size} present"
        )
    frame = np.empty(-(-total_blocks * p // 8), dtype=np.uint8)
    step = _step()

    def run(starts) -> None:
        scratch = io.scratch(step * n)
        for start in starts:
            stop = min(start + step, total_blocks)
            part, _ = io.read(start * n, stop * n, scratch)
            syn = _message_bytes(part.reshape(-1, n), tables)
            frame[start * p // 8 : start * p // 8 + len(syn)] = syn

    _run_chunks(range(0, total_blocks, step), run)
    return frame, declared


def _step() -> int:
    """Blocks per chunk: :data:`CHUNK_BLOCKS` rounded up to a multiple of 8.

    So a chunk's first block starts a whole byte of the packed frame.
    """
    return -(-CHUNK_BLOCKS // 8) * 8


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _run_chunks(starts: range, run) -> list:
    """Share the chunks beginning at ``starts`` between the caller and its helper threads.

    At most MAX_THREADS threads in all, the caller included, and no
    more than there are usable CPUs or chunks.  Each thread calls
    ``run(claims)`` once, with an iterator that hands it one unclaimed
    chunk start at a time, and the results of these calls are
    returned.  An exception in any thread stops the others before
    their next chunk; every helper is joined before this returns or
    raises, and a helper's exception is raised here.
    """
    todo = iter(starts)
    lock = threading.Lock()
    failed, results = [], []

    def claims():
        while not failed:
            with lock:
                start = next(todo, None)
            if start is None:
                return
            yield start

    def helper():
        try:
            results.append(run(claims()))
        except BaseException as exc:  # handed to the caller below
            failed.append(exc)

    workers = min(MAX_THREADS, _usable_cpus(), len(starts))
    helpers = [threading.Thread(target=helper) for _ in range(workers - 1)]
    for thread in helpers:
        thread.start()
    try:
        results.append(run(claims()))
    except BaseException as exc:
        failed.append(exc)
        raise
    finally:
        for thread in helpers:
            thread.join()
    if failed:
        raise failed[0]
    return results


class _Arrays:
    """Chunks of a flat array, embedded into the same range of ``dst``."""

    def __init__(self, src: np.ndarray, dst: np.ndarray | None = None):
        self.src, self.dst, self.size = src, dst, src.size

    def scratch(self, size: int) -> None:
        return None

    def read(self, lo: int, hi: int, scratch):
        """(the chunk's bits or pixels, where their embedded values go)."""
        return self.src[lo:hi], None if self.dst is None else self.dst[lo:hi]

    def write(self, lo: int, hi: int, scratch) -> None:
        pass


class _Raster:
    """Chunks of an image file's pixels, each read into a buffer of its thread.

    Embedded chunks are written to the file ``out_fd`` where
    :func:`~graphstego.images.save_image` puts them.
    """

    def __init__(self, raster: RasterFile, out_fd: int | None = None):
        self.raster, self.out_fd, self.layout = raster, out_fd, raster.layout
        self.size = self.layout.capacity

    def scratch(self, size: int) -> tuple[np.ndarray, np.ndarray]:
        return self.layout.scratch(size)

    def read(self, lo: int, hi: int, scratch) -> tuple[np.ndarray, np.ndarray]:
        part = self.raster.read(lo, hi, scratch)
        return part, part

    def write(self, lo: int, hi: int, scratch) -> None:
        self.layout.write(self.out_fd, lo, hi, scratch)


def _message_bytes(blocks: np.ndarray, tables: SyndromeTables) -> np.ndarray:
    """The message bits H(v) of each block, packed MSB first with no gaps."""
    import numpy as np

    return stream_syndromes(np.packbits(blocks & 1), len(blocks), tables)
