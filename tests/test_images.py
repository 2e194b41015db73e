from __future__ import annotations

import math
import struct

import numpy as np
import pytest

from graphstego.gf2 import as_bits
from graphstego.images import (
    CoverImage,
    ImageFormatError,
    load_image,
    lsb_extract,
    lsb_inject,
    peak_signal_noise,
    save_image,
)

from helpers import random_bmp_bytes


def small_pgm_bytes() -> bytes:
    pixels = bytes(range(16))
    return b"P5\n# a comment\n4 4\n255\n" + pixels


def small_bmp_bytes() -> bytes:
    # 2x2, 24-bit: stride rounds 6 bytes up to 8
    row_bottom = bytes([10, 20, 30, 40, 50, 60]) + b"\x00\x00"
    row_top = bytes([70, 80, 90, 100, 110, 120]) + b"\x00\x00"
    body = row_bottom + row_top
    return (
        struct.pack("<2sIHHI", b"BM", 54 + len(body), 0, 0, 54)
        + struct.pack("<IiiHHIIiiII", 40, 2, 2, 1, 24, 0, len(body), 2835, 2835, 0, 0)
        + body
    )


def test_load_pgm(tmp_path):
    path = tmp_path / "img.pgm"
    path.write_bytes(small_pgm_bytes())
    img = load_image(path)
    assert (img.width, img.height, img.channels, img.depth) == (4, 4, 1, 8)
    assert img.format_tag == "pgm"
    assert img.capacity == 16
    assert img.pixels.tolist() == list(range(16))


def test_pgm_rejections(tmp_path):
    cases = {
        "p2.pgm": b"P2\n4 4\n255\n" + b"0 " * 16,
        "maxval.pgm": b"P5\n4 4\n65535\n" + bytes(32),
        "short.pgm": b"P5\n4 4\n255\n" + bytes(10),
        "dims.pgm": b"P5\n0 4\n255\n",
        "header.pgm": b"P5\n4\n",
        "junk.pgm": b"GIF89a",
    }
    for name, blob in cases.items():
        path = tmp_path / name
        path.write_bytes(blob)
        with pytest.raises(ImageFormatError):
            load_image(path)


def test_pgm_save_load_roundtrip(tmp_path):
    path = tmp_path / "img.pgm"
    path.write_bytes(small_pgm_bytes())
    img = load_image(path)
    out = tmp_path / "copy.pgm"
    save_image(img, out)
    blob = out.read_bytes()
    assert blob.startswith(b"P5\n4 4\n255\n")
    again = load_image(out)
    assert np.array_equal(again.pixels, img.pixels)


def test_load_bmp(tmp_path):
    path = tmp_path / "img.bmp"
    path.write_bytes(small_bmp_bytes())
    img = load_image(path)
    assert (img.width, img.height, img.channels) == (2, 2, 3)
    assert img.format_tag == "bmp"
    assert img.capacity == 12
    # padding stripped, stored (bottom-up) row order preserved
    assert img.pixels.tolist() == [10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110, 120]


def test_bmp_save_load_roundtrip(tmp_path):
    path = tmp_path / "img.bmp"
    path.write_bytes(small_bmp_bytes())
    img = load_image(path)
    out = tmp_path / "copy.bmp"
    save_image(img, out)
    assert out.read_bytes() == small_bmp_bytes()
    again = load_image(out)
    assert np.array_equal(again.pixels, img.pixels)


def test_bmp_rejections(tmp_path):
    good = bytearray(small_bmp_bytes())
    compressed = bytearray(good)
    compressed[30] = 1  # biCompression = BI_RLE8
    eight_bit = bytearray(good)
    eight_bit[28] = 8  # biBitCount
    topdown = bytearray(good)
    topdown[22:26] = struct.pack("<i", -2)  # negative height
    truncated = bytes(good[:-4])
    weird_header = bytearray(good)
    weird_header[14] = 12  # BITMAPCOREHEADER size
    for name, blob in {
        "compressed.bmp": bytes(compressed),
        "eight.bmp": bytes(eight_bit),
        "topdown.bmp": bytes(topdown),
        "trunc.bmp": truncated,
        "core.bmp": bytes(weird_header),
    }.items():
        path = tmp_path / name
        path.write_bytes(blob)
        with pytest.raises(ImageFormatError):
            load_image(path)


def test_lsb_extract_and_inject():
    img = CoverImage(
        width=4, height=1, channels=1, depth=8,
        pixels=np.array([255, 254, 1, 2], dtype=np.uint8), format_tag="pgm",
    )
    assert lsb_extract(img).tolist() == [1, 0, 1, 0]
    out = lsb_inject(img, as_bits("0101"))
    assert out.pixels.tolist() == [254, 255, 0, 3]
    assert lsb_extract(out).tolist() == [0, 1, 0, 1]
    # partial injection leaves the tail alone
    partial = lsb_inject(img, as_bits("00"))
    assert partial.pixels.tolist() == [254, 254, 1, 2]
    with pytest.raises(ValueError):
        lsb_inject(img, as_bits("01010"))


def test_lsb_inject_does_not_mutate_source():
    img = CoverImage(
        width=2, height=1, channels=1, depth=8,
        pixels=np.array([7, 8], dtype=np.uint8), format_tag="pgm",
    )
    lsb_inject(img, as_bits("01"))
    assert img.pixels.tolist() == [7, 8]


def test_psnr_identical_is_none():
    img = CoverImage(
        width=2, height=1, channels=1, depth=8,
        pixels=np.array([1, 2], dtype=np.uint8), format_tag="pgm",
    )
    assert peak_signal_noise(img, img) is None


def test_psnr_single_unit_flip_closed_form():
    n = 64
    a = CoverImage(
        width=8, height=8, channels=1, depth=8,
        pixels=np.zeros(n, dtype=np.uint8), format_tag="pgm",
    )
    pix = np.zeros(n, dtype=np.uint8)
    pix[0] = 1
    b = CoverImage(width=8, height=8, channels=1, depth=8, pixels=pix, format_tag="pgm")
    # mse = 1/n, so psnr = 10 log10(255^2 * n)
    assert peak_signal_noise(a, b) == pytest.approx(10 * math.log10(255 * 255 * n))


def test_psnr_dimension_mismatch():
    a = CoverImage(
        width=2, height=1, channels=1, depth=8,
        pixels=np.zeros(2, dtype=np.uint8), format_tag="pgm",
    )
    b = CoverImage(
        width=1, height=2, channels=1, depth=8,
        pixels=np.zeros(2, dtype=np.uint8), format_tag="pgm",
    )
    with pytest.raises(ValueError):
        peak_signal_noise(a, b)


@pytest.mark.parametrize("bad", [2, 255])
def test_lsb_inject_rejects_non_bits(bad):
    img = CoverImage(
        width=4, height=1, channels=1, depth=8,
        pixels=np.array([7, 8, 9, 10], dtype=np.uint8), format_tag="pgm",
    )
    with pytest.raises(ValueError, match="0 or 1"):
        lsb_inject(img, np.array([0, bad], dtype=np.uint8))
    assert img.pixels.tolist() == [7, 8, 9, 10]


@pytest.mark.parametrize("size", [1, 5, 1 << 15, (1 << 15) + 1, 3 * (1 << 15) + 7])
def test_psnr_matches_the_float_mean_formula(size):
    rng = np.random.default_rng(size)
    a = rng.integers(0, 256, size, dtype=np.uint8)
    b = a.copy()
    # LSB flips plus a few arbitrary changes, extremes included
    b ^= rng.integers(0, 2, size, dtype=np.uint8)
    b[0] = 255 - a[0]
    b[rng.integers(0, size, max(1, size // 50))] = rng.integers(0, 256, max(1, size // 50))
    diff = a.astype(np.int64) - b.astype(np.int64)
    expect = 10.0 * math.log10(255.0 * 255.0 / float(np.mean(diff * diff)))
    img_a = CoverImage(width=size, height=1, channels=1, depth=8, pixels=a, format_tag="pgm")
    img_b = CoverImage(width=size, height=1, channels=1, depth=8, pixels=b, format_tag="pgm")
    got = peak_signal_noise(img_a, img_b)
    assert abs(got - expect) <= 1e-9
    # every pixel off by the full range: the largest partial sums
    img_c = CoverImage(width=size, height=1, channels=1, depth=8,
                       pixels=np.full(size, 255, dtype=np.uint8), format_tag="pgm")
    img_z = CoverImage(width=size, height=1, channels=1, depth=8,
                       pixels=np.zeros(size, dtype=np.uint8), format_tag="pgm")
    assert peak_signal_noise(img_c, img_z) == pytest.approx(0.0, abs=1e-12)


def test_pgm_resave_canonicalises_the_header(tmp_path):
    # the README's example: comment line plus trailing bytes, 51 -> 27
    src = tmp_path / "commented.pgm"
    src.write_bytes(small_pgm_bytes() + b"trailing tag")
    assert src.stat().st_size == 51
    img = load_image(src)
    out = tmp_path / "resaved.pgm"
    save_image(img, out)
    assert out.read_bytes() == b"P5\n4 4\n255\n" + bytes(range(16))
    assert out.stat().st_size == 27
    assert np.array_equal(load_image(out).pixels, img.pixels)


def test_load_image_views_the_file_bytes_unless_rows_are_padded(tmp_path):
    unpadded = tmp_path / "unpadded.bmp"  # 4 pixels = 12 bytes per row
    unpadded.write_bytes(random_bmp_bytes(4, 3, 5))
    pgm = tmp_path / "img.pgm"
    pgm.write_bytes(small_pgm_bytes())
    padded = tmp_path / "padded.bmp"
    padded.write_bytes(small_bmp_bytes())
    for path, view in ((unpadded, True), (pgm, True), (padded, False)):
        img = load_image(path)
        assert not img.pixels.flags.writeable
        owner = img.pixels
        while isinstance(owner, np.ndarray) and owner.base is not None:
            owner = owner.base
        assert isinstance(owner, bytes) == view, path.name
        with pytest.raises(ValueError):
            img.pixels[0] = 0
        out = tmp_path / f"copy-{path.name}"
        save_image(img, out)
        assert np.array_equal(load_image(out).pixels, img.pixels)
