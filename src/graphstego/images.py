"""Cover images: binary PGM and uncompressed 24-bit BMP, plus the LSB plane.

Pixels are kept exactly as stored in the file — one flat uint8 array
in file order (BMP rows therefore bottom-up, padding stripped) — so a
load/save roundtrip keeps every pixel and LSB positions are stable.
Saving writes a canonical header: PGM comments, trailing bytes and
non-default BMP header fields are not kept.

:class:`RasterFile` reads a file's header in one bounded read, and
:meth:`RasterFile.read`, the one pixel reader, fills any buffer with a
range of pixels without loading numpy.  :class:`RasterLayout` alone
knows where the pixels sit and what the canonical header is: its
:meth:`~RasterLayout.restride` moves a range's rows between a buffer
and the file in either direction, for that reader and for the writes
of :func:`save_image` and the file codec.  Every positional read or
write goes on after a short one (:func:`_transfer`).
"""

from __future__ import annotations

import math
import os
import stat
import struct
from functools import partial
from typing import TYPE_CHECKING

from .gf2 import _Record, as_bits

if TYPE_CHECKING:
    import numpy as np


#: Pixels per partial sum in PSNR: 2**15 squared 8-bit differences fit int32.
_PSNR_CHUNK = 1 << 15


class ImageFormatError(ValueError):
    """Raised for files this loader cannot parse or does not support."""


class CoverImage(_Record):
    """An 8-bit-per-channel raster with its pixels in file order."""

    width: int
    height: int
    channels: int
    depth: int
    pixels: np.ndarray
    format_tag: str

    @property
    def capacity(self) -> int:
        """Number of LSBs available for embedding."""
        return int(self.pixels.size)


#: Bytes that end a PGM header token: whitespace, and the "#" that starts a comment.
_PGM_BREAKS = frozenset(b" \t\n\r\v\f#")

#: Longest PGM header token; the numeric fields are a few digits long.
_PGM_TOKEN_MAX = 20

#: Most bytes a PGM header may take, comments and whitespace included: the one header read.
_PGM_HEADER_MAX = 1 << 16


class RasterLayout:
    """Where an image file keeps its pixels.

    ``height`` rows of ``row_bytes`` pixel bytes each start ``stride``
    bytes apart from byte ``offset``; the bytes between rows are
    padding, since BMP pads its rows to a multiple of 4 bytes.
    """

    def __init__(self, format_tag: str, width: int, height: int, offset: int):
        self.format_tag, self.width, self.height, self.offset = format_tag, width, height, offset
        self.channels = 3 if format_tag == "bmp" else 1
        self.row_bytes = self.channels * width
        self.stride = (self.row_bytes + 3) // 4 * 4 if format_tag == "bmp" else self.row_bytes
        self.capacity = self.row_bytes * height

    def pos(self, i: int) -> int:
        """The file byte of pixel i, counted in file order with the padding left out."""
        return self.offset + i // self.row_bytes * self.stride + i % self.row_bytes

    def header(self) -> bytes:
        """The canonical header that :meth:`write` puts before the raster."""
        if self.format_tag == "pgm":
            return b"P5\n%d %d\n255\n" % (self.width, self.height)
        size = self.stride * self.height
        return struct.pack("<2sIHHI", b"BM", 54 + size, 0, 0, 54) + struct.pack(
            "<IiiHHIIiiII", 40, self.width, self.height, 1, 24, 0, size, 2835, 2835, 0, 0
        )

    def restride(self, lo: int, hi: int, buf, move, to_file: bool) -> None:
        """Move pixels ``lo .. hi`` between ``buf`` and the file's bytes that hold them.

        Those are the file's bytes from pixel lo up to pixel hi.  ``buf``
        is any flat buffer of bytes and holds the pixels alone, from its
        byte 0.  ``move(buffers)`` fills ``buffers`` in turn with the
        file's bytes or, ``to_file``, writes them there.  The rows go
        straight between ``buf`` and the file, and the padding after them
        through bytes of its own (zeros, when written): no copy is made,
        and a range is one positional read or write of ``SC_IOV_MAX``
        buffers at a time.  A range with more rows than a row has bytes
        goes through one buffer instead and is copied a column at a time,
        which takes fewer slices; a column is a strided slice of a
        bytearray, which copies bytes several times faster than a
        memoryview does.
        """
        width, col, count = self.row_bytes, lo % self.row_bytes, hi - lo
        gap = self.stride - width
        if gap and col + count > width * width:
            raw = bytearray(self.pos(hi) - self.pos(lo))
            end = count + (col + count - 1) // width * gap  # past the last pixel's byte
            pixels = buf if isinstance(buf, bytearray) else memoryview(buf)
            # pixel k starts its column, in row 0 or 1
            cuts = [(slice(k, count, width), slice(k + (col + k) // width * gap, end, self.stride))
                    for k in range(width)]
            if to_file:
                for p, f in cuts:
                    raw[f] = pixels[p]
            move([raw])
            if not to_file:
                for p, f in cuts:
                    pixels[p] = raw[f]
            return
        pixels = memoryview(buf)[:count]
        if not gap:
            move([pixels])
            return
        bounds = [0, *range(width - col, count, width), count]  # where each row's pixels start
        views = [bytes(gap) if to_file else bytearray(gap)] * (2 * len(bounds) - 2)
        views[::2] = [pixels[a:b] for a, b in zip(bounds, bounds[1:])]
        if (col + count) % width or not count:
            del views[-1]  # the range ends before the last row's padding
        move(views)

    def write(self, fd: int, lo: int, hi: int, buf) -> None:
        """Write pixels ``lo .. hi``, the start of ``buf``, where :func:`save_image` puts them.

        ``buf`` is any flat buffer of bytes, such as :meth:`RasterFile.read`
        fills, and its first ``hi - lo`` bytes go out with their padding
        in one positional write (:meth:`restride`); the range that starts
        at pixel 0 writes the canonical header in it too.
        """
        header = self.header()
        head, pos = ([header], 0) if lo == 0 else ([], self.pos(lo) - self.offset + len(header))
        self.restride(lo, hi, buf, lambda views: _transfer(os.pwritev, fd, head + views, pos),
                      to_file=True)


def _transfer(call, fd: int, buffers: list, pos: int) -> None:
    """Fill ``buffers`` in turn from byte ``pos`` of ``fd`` on (``call`` os.preadv), or write them.

    A call may move fewer bytes than asked for (Linux moves at most
    0x7ffff000 a call) and take at most ``SC_IOV_MAX`` buffers, so calls
    go on until every buffer is done; only a read that returns nothing
    is the file's end.

    Raises:
        ImageFormatError: if the file ends first.
    """
    size = left = sum(map(len, buffers))
    start, most, i = pos, os.sysconf("SC_IOV_MAX"), 0
    while left:
        done = call(fd, buffers[i : i + most], pos)
        if not done:
            got = pos - start
            raise ImageFormatError(f"image file ends early: {got} of {size} bytes at {start}")
        pos, left = pos + done, left - done
        if left:  # step past the buffers done, and into the one cut short
            while done >= len(buffers[i]):
                done -= len(buffers[i])
                i += 1
            buffers[i] = memoryview(buffers[i])[done:]


def _pgm_stopped(pos: int) -> None:
    """Raise if a header scan reached the cap; one that stops short of it found the file's end."""
    if pos >= _PGM_HEADER_MAX:
        raise ImageFormatError(f"PGM header longer than {_PGM_HEADER_MAX} bytes")


def _pgm_comment_end(data, pos: int) -> int:
    """The position of the newline that ends the '#' comment at ``pos``."""
    while pos < len(data) and data[pos] != ord("\n"):
        pos += 1
    _pgm_stopped(pos)
    return pos


def _next_pgm_token(data, pos: int) -> tuple[bytes, int]:
    # whitespace and '#'-to-end-of-line comments may precede any token, and
    # a comment may follow one directly, as in Netpbm
    while pos < len(data) and data[pos] in _PGM_BREAKS:
        pos = _pgm_comment_end(data, pos) if data[pos] == ord("#") else pos + 1
    start = pos
    while pos < min(len(data), start + _PGM_TOKEN_MAX + 1) and data[pos] not in _PGM_BREAKS:
        pos += 1
    if pos - start > _PGM_TOKEN_MAX:
        raise ImageFormatError(f"PGM header token longer than {_PGM_TOKEN_MAX} bytes: "
                               f"{bytes(data[start : start + 8])!r}...")
    _pgm_stopped(pos)
    if start == pos:
        raise ImageFormatError("truncated PGM header")
    return bytes(data[start:pos]), pos


def _parse_pgm(data, size: int) -> RasterLayout:
    data = data[:_PGM_HEADER_MAX]  # a scan that reaches the cap raises
    pos = 2  # past "P5"
    fields = []
    for _ in range(3):
        token, pos = _next_pgm_token(data, pos)
        try:
            if not token.isdigit():  # ASCII decimal only: int() also takes "+4" and "4_0"
                raise ValueError
            fields.append(int(token))
        except ValueError:  # or too many digits to convert
            raise ImageFormatError(f"bad PGM header token {token!r}") from None
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise ImageFormatError(f"bad PGM dimensions {width}x{height}")
    if maxval != 255:
        raise ImageFormatError(f"only maxval 255 PGM supported, got {maxval}")
    # exactly one whitespace byte, or a comment up to its newline, separates header from raster
    if pos < len(data) and data[pos] == ord("#"):
        pos = _pgm_comment_end(data, pos)
    lay = RasterLayout("pgm", width, height, pos + 1)
    if size < lay.pos(lay.capacity):
        raise ImageFormatError(
            f"PGM raster truncated: {max(size - lay.offset, 0)} of {lay.capacity} bytes"
        )
    return lay


def _parse_bmp(data, size: int) -> RasterLayout:
    if size < 54:
        raise ImageFormatError("BMP too short for its headers")
    _magic, _size, _r1, _r2, offset = struct.unpack("<2sIHHI", data[:14])
    header_size, width, height, _planes, bitcount, compression = struct.unpack(
        "<IiiHHI20x", data[14:54]
    )
    if header_size != 40:
        raise ImageFormatError(f"unsupported BMP header size {header_size}")
    if offset < 54:
        raise ImageFormatError(f"BMP pixel offset {offset} lies inside its headers")
    if bitcount != 24:
        raise ImageFormatError(f"only 24-bit BMP supported, got {bitcount}-bit")
    if compression != 0:
        raise ImageFormatError(f"only uncompressed BMP supported, got type {compression}")
    if width < 1:
        raise ImageFormatError(f"bad BMP width {width}")
    if height < 1:
        # negative height would mean top-down rows
        raise ImageFormatError(f"unsupported BMP height {height}")
    lay = RasterLayout("bmp", width, height, offset)
    if size < lay.pos(lay.capacity):
        raise ImageFormatError(f"BMP raster truncated: {size} of {lay.pos(lay.capacity)} bytes")
    return lay


def _parse_layout(data, size: int) -> RasterLayout:
    """The raster layout of a file of ``size`` bytes whose first bytes, up to the cap, are ``data``.

    Raises:
        ImageFormatError: for any format but binary PGM and 24-bit BMP,
            or a malformed or truncated file.
    """
    data = memoryview(data)  # indexing gives ints, not numpy scalars
    magic = bytes(data[:2])
    if magic == b"P5":
        return _parse_pgm(data, size)
    if magic == b"BM":
        return _parse_bmp(data, size)
    raise ImageFormatError(f"unsupported image format (magic {magic!r})")


def load_image(path) -> CoverImage:
    """Load a binary PGM (P5, maxval 255) or uncompressed 24-bit BMP.

    The file is opened as a :class:`RasterFile` and its pixels read in
    one range into a read-only buffer of their own, with the padding
    stripped: it holds no header, padding or trailing bytes.

    Raises:
        ImageFormatError: for any other format or a malformed file.
    """
    import numpy as np

    with RasterFile(path) as raster:
        pixels = np.empty(raster.size, dtype=np.uint8)
        raster.read(0, raster.size, pixels)
        lay = raster.layout
    pixels.setflags(write=False)
    pixels = pixels[:]  # a view of a read-only buffer cannot be made writeable again
    return CoverImage(
        width=lay.width, height=lay.height, channels=lay.channels, depth=8, pixels=pixels,
        format_tag=lay.format_tag,
    )


def _read_stream(fh) -> tuple[RasterLayout, bytearray]:
    """The layout and bytes of an image file read from ``fh`` in order, up to its raster's end.

    The header is parsed from one read of :data:`_PGM_HEADER_MAX`
    bytes; then the rest of the raster, a MiB at a time, so memory
    grows only with what arrives.  Nothing past the raster and that
    first read is asked for.
    """
    head = fh.read(_PGM_HEADER_MAX)
    lay = _parse_layout(head, math.inf if len(head) == _PGM_HEADER_MAX else len(head))
    data, end = bytearray(head), lay.pos(lay.capacity)
    while len(data) < end and (chunk := fh.read(min(end - len(data), 1 << 20))):
        data.extend(chunk)
    if len(data) < end:
        _parse_layout(data, len(data))  # raises the truncation error a regular file gets
    del data[end:]
    return lay, data


class RasterFile:
    """An image file opened for reading its pixels a range at a time.

    A regular file is parsed from its first :data:`_PGM_HEADER_MAX`
    bytes, and :meth:`read` fills a buffer with a range of its pixels;
    every read of the file goes through :func:`_transfer`.  Anything
    else, such as a pipe, is read into memory up to its raster's end
    when opened.  ``size`` is the pixel count.  No method loads numpy.
    Close it, or use it in a ``with`` block.

    Raises:
        ImageFormatError: as :func:`load_image`.
    """

    def __init__(self, path):
        self._data = None
        self._file = open(path, "rb")
        try:
            fd = self._file.fileno()
            st = os.fstat(fd)
            if stat.S_ISREG(st.st_mode):
                head = bytearray(min(_PGM_HEADER_MAX, st.st_size))
                _transfer(os.preadv, fd, [head], 0)
                self.layout = _parse_layout(head, st.st_size)
            else:
                self.layout, self._data = _read_stream(self._file)
                self.close()
        except BaseException:
            self.close()
            raise
        self.size = self.layout.capacity

    def scratch(self, size: int) -> bytearray:
        """A buffer for :meth:`read` of any range of up to ``size`` pixels."""
        return bytearray(min(size, self.size))

    def read(self, lo: int, hi: int, buf) -> memoryview:
        """Fill the start of ``buf`` with pixels ``lo .. hi``; returns a view of those bytes.

        ``buf`` is any flat, writable buffer of ``hi - lo`` bytes or more,
        such as a bytearray or a numpy array.  A regular file's bytes go
        straight into it in one positional read
        (:meth:`RasterLayout.restride`), and a row's padding goes with the
        range that holds the row's last pixel.
        """
        self.layout.restride(lo, hi, buf, partial(self._fill, self.layout.pos(lo)), to_file=False)
        return memoryview(buf)[: hi - lo]

    def _fill(self, pos: int, buffers: list) -> None:
        """Fill ``buffers`` in turn with the file's bytes from byte ``pos`` on."""
        if self._data is None:
            _transfer(os.preadv, self._file.fileno(), buffers, pos)
            return
        data = memoryview(self._data)
        for buf in buffers:
            buf[:] = data[pos : pos + len(buf)]
            pos += len(buf)

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None

    def __enter__(self) -> RasterFile:
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def save_image(img: CoverImage, path) -> None:
    """Write the image in its own format, with a canonical header."""
    import numpy as np

    if img.format_tag not in ("pgm", "bmp"):
        raise ImageFormatError(f"unknown format tag {img.format_tag!r}")
    lay = RasterLayout(img.format_tag, img.width, img.height, 0)
    pixels = np.ascontiguousarray(img.pixels, dtype=np.uint8).reshape(-1)
    if (img.channels != lay.channels or pixels.size != lay.capacity
            or min(img.width, img.height) < 1):
        raise ImageFormatError(f"inconsistent {img.format_tag.upper()} image record")
    with open(path, "wb") as fh:
        lay.write(fh.fileno(), 0, lay.capacity, pixels)


def lsb_extract(img: CoverImage) -> np.ndarray:
    """The image's least-significant-bit plane, in pixel storage order."""
    return img.pixels & 1


def lsb_inject(img: CoverImage, bits) -> CoverImage:
    """Overwrite the first ``len(bits)`` LSBs; later pixels stay untouched.

    Raises:
        ValueError: if there are more bits than pixels.
    """
    bits = as_bits(bits)
    if bits.size > img.pixels.size:
        raise ValueError(
            f"{bits.size} bits exceed image capacity {img.pixels.size}"
        )
    pixels = img.pixels.copy()
    head = pixels[: bits.size]
    head &= 0xFE
    head |= bits
    pixels.setflags(write=False)
    return CoverImage(
        width=img.width, height=img.height, channels=img.channels, depth=img.depth, pixels=pixels,
        format_tag=img.format_tag,
    )


def peak_signal_noise(original: CoverImage, modified: CoverImage) -> float | None:
    """PSNR in dB between two same-shaped images; None when identical."""
    import numpy as np

    if (original.width, original.height, original.channels) != (
        modified.width,
        modified.height,
        modified.channels,
    ):
        raise ValueError("image dimensions differ")
    a, b = original.pixels, modified.pixels
    total = 0
    for lo in range(0, a.size, _PSNR_CHUNK):
        diff = np.subtract(a[lo : lo + _PSNR_CHUNK], b[lo : lo + _PSNR_CHUNK], dtype=np.int32)
        total += int(np.dot(diff, diff))
    return _psnr_db(total, a.size)


def _psnr_db(sse: int, size: int) -> float | None:
    """PSNR in dB of 8-bit pixels from their sum of squared errors; None when zero.

    An LSB embedding changes each flipped pixel by exactly 1, so its
    ``sse`` is the flip count.
    """
    if sse == 0:
        return None
    return 10.0 * math.log10(255.0 * 255.0 / (sse / size))
