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


def _next_pgm_token(data: memoryview, pos: int) -> tuple[bytes, int]:
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
    if start == pos:
        raise ImageFormatError("truncated PGM header")
    return bytes(data[start:pos]), pos


def _load_pgm(data: np.ndarray) -> CoverImage:
    header = memoryview(data)
    pos = 2  # past "P5"
    fields = []
    for _ in range(3):
        token, pos = _next_pgm_token(header, pos)
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
    if len(data) - pos < width * height:
        raise ImageFormatError(
            f"PGM raster truncated: {max(len(data) - pos, 0)} of {width * height} bytes"
        )
    pixels = data[pos : pos + width * height]
    return CoverImage(
        width=width, height=height, channels=1, depth=8, pixels=pixels, format_tag="pgm"
    )


def _load_bmp(data: np.ndarray) -> CoverImage:
    if len(data) < 54:
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
    stride = (3 * width + 3) // 4 * 4
    need = offset + stride * height
    if len(data) < need:
        raise ImageFormatError(f"BMP raster truncated: {len(data)} of {need} bytes")
    rows = data[offset:need].reshape(height, stride)
    if stride == 3 * width:
        pixels = rows.reshape(-1)  # a view of the file bytes
    else:  # padding stripped into a read-only copy that the pixels view
        copy = np.ascontiguousarray(rows[:, : 3 * width])
        copy.setflags(write=False)
        pixels = copy.reshape(-1)
    return CoverImage(
        width=width, height=height, channels=3, depth=8, pixels=pixels, format_tag="bmp"
    )


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
        if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            data = np.fromfile(fh, dtype=np.uint8)
            data.setflags(write=False)
        else:  # a pipe has no size to read into: take its bytes as they come
            data = np.frombuffer(fh.read(), dtype=np.uint8)
    magic = data[:2].tobytes()
    if magic == b"P5":
        return _load_pgm(data)
    if magic == b"BM":
        return _load_bmp(data)
    raise ImageFormatError(f"unsupported image format (magic {magic!r})")


def save_image(img: CoverImage, path) -> None:
    """Write the image in its own format, with a canonical header."""
    pixels = np.ascontiguousarray(img.pixels, dtype=np.uint8)
    if img.format_tag == "pgm":
        if img.channels != 1 or pixels.size != img.width * img.height:
            raise ImageFormatError("inconsistent PGM image record")
        header = b"P5\n%d %d\n255\n" % (img.width, img.height)
    elif img.format_tag == "bmp":
        if img.channels != 3 or pixels.size != 3 * img.width * img.height:
            raise ImageFormatError("inconsistent BMP image record")
        stride = (3 * img.width + 3) // 4 * 4
        if stride != 3 * img.width:
            rows = np.zeros((img.height, stride), dtype=np.uint8)
            rows[:, : 3 * img.width] = pixels.reshape(img.height, 3 * img.width)
            pixels = rows
        header = struct.pack("<2sIHHI", b"BM", 54 + pixels.size, 0, 0, 54) + struct.pack(
            "<IiiHHIIiiII", 40, img.width, img.height, 1, 24, 0, pixels.size, 2835, 2835, 0, 0
        )
    else:
        raise ImageFormatError(f"unknown format tag {img.format_tag!r}")
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
