"""Cover images: binary PGM and uncompressed 24-bit BMP, plus the LSB plane.

Pixels are kept exactly as stored in the file — one flat uint8 array
in file order (BMP rows therefore bottom-up, padding stripped) — so a
load/save roundtrip keeps every pixel and LSB positions are stable.
Saving writes a canonical header: PGM comments, trailing bytes and
non-default BMP header fields are not kept.

:class:`RasterLayout` alone knows where a file keeps its pixels and what
the canonical header is: :func:`load_image`, :func:`save_image` and the
file codec read and write pixel ranges through it.
"""

from __future__ import annotations

import math
import os
import stat
import struct
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from .gf2 import as_bits

if TYPE_CHECKING:
    import numpy as np


#: Pixels per partial sum in PSNR: 2**15 squared 8-bit differences fit int32.
_PSNR_CHUNK = 1 << 15


class ImageFormatError(ValueError):
    """Raised for files this loader cannot parse or does not support."""


@dataclass(frozen=True, eq=False)
class CoverImage:
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


class _ShortHeader(Exception):
    """The header runs past the bytes read so far, and the file holds more."""


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

    def scratch(self, size: int) -> tuple[np.ndarray, np.ndarray]:
        """(file rows, pixel rows) for any range of up to ``size`` pixels.

        One buffer serves both when rows carry no padding.  A range that
        starts mid-row takes one row more, but never more than the image.
        """
        import numpy as np

        rows = min(-(-size // self.row_bytes) + 1, self.height)
        raw = np.empty(rows * self.stride, dtype=np.uint8)
        if self.stride == self.row_bytes:
            return raw, raw
        return raw, np.empty(rows * self.row_bytes, dtype=np.uint8)

    def rows(self, lo: int, hi: int, scratch) -> tuple[np.ndarray, np.ndarray]:
        """The rows that pixels ``lo .. hi`` touch, in both buffers.

        Pixel lo sits at column ``lo % row_bytes`` of the first row.
        """
        raw, pixels = scratch
        rows = -(-(lo % self.row_bytes + hi - lo) // self.row_bytes)
        return (raw[: rows * self.stride].reshape(rows, self.stride)[:, : self.row_bytes],
                pixels[: rows * self.row_bytes].reshape(rows, self.row_bytes))

    def write(self, fd: int, lo: int, hi: int, scratch) -> None:
        """Write pixels ``lo .. hi`` of ``scratch`` into ``fd`` where :func:`save_image` puts them.

        The pixels sit in the scratch's pixel rows as
        :meth:`RasterFile.read` leaves them.  Padding is written as
        zeros, and the range that starts at pixel 0 writes the
        canonical header too.
        """
        import numpy as np

        raw, pixels = scratch
        if pixels is not raw:
            file_rows, pixel_rows = self.rows(lo, hi, scratch)
            np.copyto(file_rows, pixel_rows)
            raw.reshape(-1, self.stride)[:, self.row_bytes :] = 0
        header = self.header()
        if lo == 0:
            _write_at(fd, header, 0)
        col, first = lo % self.row_bytes, self.pos(lo)
        _write_at(fd, raw[col : col + self.pos(hi) - first], first - self.offset + len(header))


def _write_at(fd: int, data, pos: int) -> None:
    """Write all of ``data`` at byte ``pos`` of ``fd``."""
    view = memoryview(data)
    while view:
        done = os.pwrite(fd, view, pos)
        view, pos = view[done:], pos + done


def _pgm_comment_end(data, pos: int, size: int) -> int:
    """The position of the newline that ends the '#' comment at ``pos``."""
    while pos < len(data) and data[pos] != ord("\n"):
        pos += 1
    if pos == len(data) < size:
        raise _ShortHeader
    return pos


def _next_pgm_token(data, pos: int, size: int) -> tuple[bytes, int]:
    # whitespace and '#'-to-end-of-line comments may precede any token, and
    # a comment may follow one directly, as in Netpbm
    while pos < len(data) and data[pos] in _PGM_BREAKS:
        pos = _pgm_comment_end(data, pos, size) if data[pos] == ord("#") else pos + 1
    start = pos
    while pos < len(data) and data[pos] not in _PGM_BREAKS:
        pos += 1
    if pos == len(data) < size:
        raise _ShortHeader
    if start == pos:
        raise ImageFormatError("truncated PGM header")
    return bytes(data[start:pos]), pos


def _parse_pgm(data, size: int) -> RasterLayout:
    pos = 2  # past "P5"
    fields = []
    for _ in range(3):
        token, pos = _next_pgm_token(data, pos, size)
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
        pos = _pgm_comment_end(data, pos, size)
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
    """The raster layout of a file of ``size`` bytes that starts with ``data``.

    Raises:
        ImageFormatError: for any format but binary PGM and 24-bit BMP,
            or a malformed or truncated file.
        _ShortHeader: if a PGM header runs past ``data``.
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
    with RasterFile(path) as raster:
        lay = raster.layout
        raw, pixels = lay.scratch(lay.capacity)
        raster.read(0, lay.capacity, (raw, pixels))
    pixels.setflags(write=False)
    pixels = pixels[:]  # a view of a read-only buffer cannot be made writeable again
    return CoverImage(
        width=lay.width, height=lay.height, channels=lay.channels, depth=8, pixels=pixels,
        format_tag=lay.format_tag,
    )


def _read_layout(fd: int, size: int) -> RasterLayout:
    """The layout of a regular file of ``size`` bytes, read from its first bytes alone."""
    want = 1 << 12
    while True:
        head = os.pread(fd, want, 0)
        try:
            return _parse_layout(head, size)
        except _ShortHeader:
            if len(head) < want:  # the file ended early
                raise ImageFormatError("truncated PGM header") from None
            want *= 4


class RasterFile:
    """An image file opened for reading its pixels a range at a time.

    A regular file is parsed from its header alone, and each read is
    one positional read of the file.  Anything else, such as a pipe,
    is read into memory whole when opened.  Close it, or use it in a
    ``with`` block.

    Raises:
        ImageFormatError: as :func:`load_image`.
    """

    def __init__(self, path):
        import numpy as np

        self._data = None
        self._file = open(path, "rb")
        try:
            st = os.fstat(self._file.fileno())
            if stat.S_ISREG(st.st_mode):
                self.layout = _read_layout(self._file.fileno(), st.st_size)
            else:
                self._data = np.frombuffer(self._file.read(), dtype=np.uint8)
                self.close()
                self.layout = _parse_layout(self._data, len(self._data))
        except BaseException:
            self.close()
            raise

    def read_into(self, buf: np.ndarray, pos: int) -> None:
        """Fill ``buf`` with the file's bytes from byte ``pos`` on.

        Raises:
            ImageFormatError: if the file ends before ``buf`` is full.
        """
        if self._data is not None:
            got = self._data[pos : pos + len(buf)]
            buf[: len(got)] = got
            got = len(got)
        else:
            got = os.preadv(self._file.fileno(), [buf], pos)
        if got != len(buf):
            raise ImageFormatError(f"image file ends early: {got} of {len(buf)} bytes at {pos}")

    def read(self, lo: int, hi: int, scratch) -> np.ndarray:
        """Pixels ``lo .. hi``, read into ``scratch`` from :meth:`RasterLayout.scratch`.

        One positional read takes the file's bytes from pixel lo up to
        pixel hi, so a row's padding goes with the range that holds the
        row's last pixel; the padding is then stripped.
        """
        import numpy as np

        lay = self.layout
        raw, pixels = scratch
        col = lo % lay.row_bytes
        self.read_into(raw[col : col + lay.pos(hi) - lay.pos(lo)], lay.pos(lo))
        if pixels is not raw:
            file_rows, pixel_rows = lay.rows(lo, hi, scratch)
            np.copyto(pixel_rows, file_rows)
        return pixels[col : col + hi - lo]

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
    raw = pixels if lay.stride == lay.row_bytes else np.empty(lay.height * lay.stride, np.uint8)
    with open(path, "wb") as fh:
        lay.write(fh.fileno(), 0, lay.capacity, (raw, pixels))


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
    return replace(img, pixels=pixels)


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
