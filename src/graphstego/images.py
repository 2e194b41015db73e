"""Cover images: binary PGM and uncompressed 24-bit BMP, plus the LSB plane.

Pixels are kept exactly as stored in the file — one flat uint8 array
in file order (BMP rows therefore bottom-up, padding stripped) — so a
load/save roundtrip keeps every pixel and LSB positions are stable.
Saving writes a canonical header: PGM comments, trailing bytes and
non-default BMP header fields are not kept.
"""

from __future__ import annotations

import math
import os
import stat
import struct
from dataclasses import dataclass, replace

import numpy as np

from .gf2 import as_bits


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


_WHITESPACE = frozenset(b" \t\n\r\v\f")


class _ShortHeader(Exception):
    """The header runs past the bytes read so far, and the file holds more."""


class RasterLayout:
    """Where an image file keeps its pixels.

    ``height`` rows of ``row_bytes`` pixel bytes each start ``stride``
    bytes apart from byte ``offset``; the bytes between rows are
    padding.  Pixel i, counted in file order with the padding left
    out, is byte ``offset + i // row_bytes * stride + i % row_bytes``.
    """

    def __init__(self, format_tag: str, width: int, height: int, channels: int, offset: int,
                 stride: int):
        self.format_tag = format_tag
        self.width = width
        self.height = height
        self.channels = channels
        self.offset = offset
        self.row_bytes = channels * width
        self.stride = stride
        self.capacity = self.row_bytes * height


def _next_pgm_token(data, pos: int, size: int) -> tuple[bytes, int]:
    # whitespace and '#'-to-end-of-line comments may precede any token
    while pos < len(data):
        c = data[pos]
        if c in _WHITESPACE:
            pos += 1
        elif c == ord("#"):
            while pos < len(data) and data[pos] != ord("\n"):
                pos += 1
        else:
            break
    start = pos
    while pos < len(data) and data[pos] not in _WHITESPACE:
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
            fields.append(int(token))
        except ValueError:
            raise ImageFormatError(f"bad PGM header token {token!r}") from None
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise ImageFormatError(f"bad PGM dimensions {width}x{height}")
    if maxval != 255:
        raise ImageFormatError(f"only maxval 255 PGM supported, got {maxval}")
    pos += 1  # exactly one whitespace byte separates header from raster
    if size - pos < width * height:
        raise ImageFormatError(
            f"PGM raster truncated: {max(size - pos, 0)} of {width * height} bytes"
        )
    return RasterLayout("pgm", width, height, 1, pos, width)


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
    stride = _bmp_stride(width)
    need = offset + stride * height
    if size < need:
        raise ImageFormatError(f"BMP raster truncated: {size} of {need} bytes")
    return RasterLayout("bmp", width, height, 3, offset, stride)


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


def _bmp_stride(width: int) -> int:
    """BMP rows are padded to a multiple of 4 bytes."""
    return (3 * width + 3) // 4 * 4


def load_image(path) -> CoverImage:
    """Load a binary PGM (P5, maxval 255) or uncompressed 24-bit BMP.

    A regular file is read into one numpy buffer (a pipe into a bytes
    object), which is then made read-only.  The pixels are a view of
    it, unless BMP rows carry padding: then they view a read-only copy
    with the padding stripped.

    Raises:
        ImageFormatError: for any other format or a malformed file.
    """
    with open(path, "rb") as fh:
        data = _read_all(fh)
    lay = _parse_layout(data, len(data))
    rows = data[lay.offset : lay.offset + lay.stride * lay.height].reshape(lay.height, lay.stride)
    if lay.stride == lay.row_bytes:
        pixels = rows.reshape(-1)  # a view of the file bytes
    else:  # padding stripped into a read-only copy that the pixels view
        copy = np.ascontiguousarray(rows[:, : lay.row_bytes])
        copy.setflags(write=False)
        pixels = copy.reshape(-1)
    return CoverImage(
        width=lay.width, height=lay.height, channels=lay.channels, depth=8, pixels=pixels,
        format_tag=lay.format_tag,
    )


def _read_all(fh) -> np.ndarray:
    """The rest of an open file's bytes in a read-only numpy buffer."""
    if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
        data = np.fromfile(fh, dtype=np.uint8)
        data.setflags(write=False)
        return data
    # a pipe has no size to read into: take its bytes as they come
    return np.frombuffer(fh.read(), dtype=np.uint8)


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
    """An image file opened for reading its raster a byte range at a time.

    A regular file is parsed from its header alone, and each read is
    one positional read of the file.  Anything else, such as a pipe,
    is read into memory whole when opened.  Close it, or use it in a
    ``with`` block.

    Raises:
        ImageFormatError: as :func:`load_image`.
    """

    def __init__(self, path):
        self._data = None
        self._file = open(path, "rb")
        try:
            st = os.fstat(self._file.fileno())
            if stat.S_ISREG(st.st_mode):
                self.layout = _read_layout(self._file.fileno(), st.st_size)
            else:
                self._load()
        except BaseException:
            self.close()
            raise

    def _load(self) -> None:
        fh, self._file = self._file, None
        with fh:
            self._data = _read_all(fh)
        self.layout = _parse_layout(self._data, len(self._data))

    def detach_from(self, path) -> None:
        """Read the whole file into memory if ``path`` names it.

        Then writing ``path`` cannot change what this file reads.
        """
        if self._file is None:
            return
        try:
            same = os.path.samestat(os.fstat(self._file.fileno()), os.stat(path))
        except FileNotFoundError:
            return
        if same:
            self._load()

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

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None

    def __enter__(self) -> RasterFile:
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _canonical_header(format_tag: str, width: int, height: int) -> bytes:
    """The header :func:`save_image` writes; the raster follows it, BMP rows padded."""
    if format_tag == "pgm":
        return b"P5\n%d %d\n255\n" % (width, height)
    if format_tag == "bmp":
        size = _bmp_stride(width) * height
        return struct.pack("<2sIHHI", b"BM", 54 + size, 0, 0, 54) + struct.pack(
            "<IiiHHIIiiII", 40, width, height, 1, 24, 0, size, 2835, 2835, 0, 0
        )
    raise ImageFormatError(f"unknown format tag {format_tag!r}")


def save_image(img: CoverImage, path) -> None:
    """Write the image in its own format, with a canonical header."""
    pixels = np.ascontiguousarray(img.pixels, dtype=np.uint8)
    if img.format_tag == "pgm":
        if img.channels != 1 or pixels.size != img.width * img.height:
            raise ImageFormatError("inconsistent PGM image record")
    elif img.format_tag == "bmp":
        if img.channels != 3 or pixels.size != 3 * img.width * img.height:
            raise ImageFormatError("inconsistent BMP image record")
        stride = _bmp_stride(img.width)
        if stride != 3 * img.width:
            rows = np.zeros((img.height, stride), dtype=np.uint8)
            rows[:, : 3 * img.width] = pixels.reshape(img.height, 3 * img.width)
            pixels = rows
    header = _canonical_header(img.format_tag, img.width, img.height)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(pixels.data)


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
