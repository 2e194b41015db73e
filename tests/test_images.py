from __future__ import annotations

import io
import math
import os
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphstego.gf2 import as_bits
from graphstego.images import (
    CoverImage,
    ImageFormatError,
    _PGM_HEADER_MAX,
    _parse_layout,
    _read_stream,
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
    # a '#' ends the token it follows, as in Netpbm; after the maxval, the
    # comment's newline is the byte before the raster
    for header in (b"P5\n4#c\n4\n255\n", b"P5\n4 4\n255#c\n", b"P5#c\n4 4#\n255#c 1\n"):
        path.write_bytes(header + bytes(range(16)))
        img = load_image(path)
        assert (img.width, img.height, img.pixels.tolist()) == (4, 4, list(range(16))), header


def test_pgm_rejections(tmp_path):
    cases = {
        "p2.pgm": b"P2\n4 4\n255\n" + b"0 " * 16,
        "maxval.pgm": b"P5\n4 4\n65535\n" + bytes(32),
        "short.pgm": b"P5\n4 4\n255\n" + bytes(10),
        "dims.pgm": b"P5\n0 4\n255\n",
        "header.pgm": b"P5\n4\n",
        "junk.pgm": b"GIF89a",
        # Netpbm header numbers are ASCII decimal digits: no sign, no digit separator
        "sign.pgm": b"P5\n+4 4\n255\n" + bytes(16),
        "separator.pgm": b"P5\n4_0 1\n255\n" + bytes(40),
        "long.pgm": b"P5\n" + b"1" * 5000 + b" 1\n255\n",  # more digits than int() converts
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
    zero_width = bytearray(good)
    zero_width[18:22] = struct.pack("<i", 0)
    truncated = bytes(good[:-4])
    weird_header = bytearray(good)
    weird_header[14] = 12  # BITMAPCOREHEADER size
    inside_headers = {}
    for offset in (0, 20, 53):  # bfOffBits below 54 reads header bytes as pixels
        blob = bytearray(good)
        blob[10:14] = struct.pack("<I", offset)
        inside_headers[f"offset{offset}.bmp"] = bytes(blob)
    for name, blob in {
        "compressed.bmp": bytes(compressed),
        "eight.bmp": bytes(eight_bit),
        "topdown.bmp": bytes(topdown),
        "zero_width.bmp": bytes(zero_width),
        "trunc.bmp": truncated,
        "core.bmp": bytes(weird_header),
        **inside_headers,
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


def _two_pixel_record(format_tag="pgm", channels=1, pixels=(0, 255)) -> CoverImage:
    return CoverImage(width=2, height=1, channels=channels, depth=8, pixels=np.asarray(pixels),
                      format_tag=format_tag)


@pytest.mark.parametrize(
    "record",
    [
        _two_pixel_record(format_tag="gif"),
        _two_pixel_record(channels=3),
        _two_pixel_record(pixels=[1, 2, 3]),
        # a uint8 cast would write these as 44 and 255, and as 1 and 2
        _two_pixel_record(pixels=[300, -1]),
        _two_pixel_record(pixels=[1.7, 2.2]),
        _two_pixel_record(pixels=np.array([1, 256], dtype=np.uint16)),
        _two_pixel_record(pixels=[True, False]),
    ],
    ids=["format-tag", "channels", "pixel-count", "int-range", "float", "uint16-range", "bool"],
)
def test_save_image_refuses_a_record_it_cannot_write(tmp_path, record):
    with pytest.raises(ImageFormatError):
        save_image(record, tmp_path / "out.pgm")
    assert list(tmp_path.iterdir()) == []


def test_save_image_writes_in_range_integer_pixels_as_bytes(tmp_path):
    want, got = tmp_path / "uint8.pgm", tmp_path / "int64.pgm"
    save_image(_two_pixel_record(pixels=np.array([0, 255], dtype=np.uint8)), want)
    save_image(_two_pixel_record(pixels=np.array([0, 255], dtype=np.int64)), got)
    assert got.read_bytes() == want.read_bytes() == b"P5\n2 1\n255\n\x00\xff"


def _assert_pixels_own_one_read_only_buffer(img, name):
    """The pixels are one read-only buffer of their own: no header, padding or trailer bytes."""
    owner = img.pixels
    while isinstance(owner, np.ndarray) and owner.base is not None:
        owner = owner.base
    assert isinstance(owner, np.ndarray), name
    assert owner.nbytes == img.pixels.nbytes == img.capacity, name
    assert not owner.flags.writeable, name
    with pytest.raises(ValueError):
        img.pixels[0] = 0
    with pytest.raises(ValueError):
        img.pixels.setflags(write=True)


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_load_image_reads_a_pipe(tmp_path):
    pgm = small_pgm_bytes() + b"trailer"
    for name, data in (("img.pgm", pgm), ("img.bmp", small_bmp_bytes())):
        path = tmp_path / name
        path.write_bytes(data)
        read, write = os.pipe()
        try:
            os.write(write, data)
            os.close(write)
            piped = load_image(f"/dev/fd/{read}")
        finally:
            os.close(read)
        assert np.array_equal(piped.pixels, load_image(path).pixels)
        _assert_pixels_own_one_read_only_buffer(piped, name)


def test_load_image_pixels_own_one_read_only_buffer(tmp_path):
    unpadded = tmp_path / "unpadded.bmp"  # 4 pixels = 12 bytes per row
    unpadded.write_bytes(random_bmp_bytes(4, 3, 5))
    pgm = tmp_path / "img.pgm"
    pgm.write_bytes(small_pgm_bytes() + b"trailing tag")
    padded = tmp_path / "padded.bmp"
    padded.write_bytes(small_bmp_bytes())
    for path in (unpadded, pgm, padded):
        img = load_image(path)
        assert img.pixels.nbytes < path.stat().st_size, path.name
        _assert_pixels_own_one_read_only_buffer(img, path.name)
        out = tmp_path / f"copy-{path.name}"
        save_image(img, out)
        assert np.array_equal(load_image(out).pixels, img.pixels)


def _layout_or_error(parse):
    try:
        return vars(parse())
    except ImageFormatError as exc:
        return ImageFormatError, str(exc)


def _assert_both_parses_agree(data: bytes) -> None:
    """The parse of a regular file's first bytes, the in-order read of a pipe and the
    whole-buffer parse agree.

    All give the same layout or raise ImageFormatError, with the same
    message; no other exception escapes any.
    """
    whole = _layout_or_error(lambda: _parse_layout(np.frombuffer(data, np.uint8), len(data)))
    with tempfile.TemporaryFile() as fh:
        fh.write(data)
        fh.flush()
        head = _layout_or_error(lambda: _parse_layout(os.pread(fh.fileno(), _PGM_HEADER_MAX, 0),
                                                      len(data)))
    stream = _layout_or_error(lambda: _read_stream(io.BytesIO(data))[0])
    assert head == stream == whole


_PGM_SPACE = st.sampled_from([b" ", b"\t", b"\n", b"\r", b"\v", b"\f", b"  \n"])
# a comment is '#' to the end of the line; some are thousands of bytes long, so
# that a header may run past the 64 KiB that the first read holds
_PGM_COMMENT = st.builds(
    lambda text, filler, end: b"#" + text + b"x" * filler + end,
    st.binary(max_size=8).map(lambda b: b.replace(b"\n", b"")),
    st.one_of(st.integers(0, 40), st.integers(4000, 20000)),
    st.sampled_from([b"\n", b"\n", b"\r\n", b""]),  # b"": the comment swallows what follows
)
_PGM_GAP = st.lists(st.one_of(_PGM_SPACE, _PGM_COMMENT), min_size=1, max_size=4).map(b"".join)
_PGM_ODD_TOKEN = st.one_of(
    st.sampled_from([b"0", b"+4", b"-4", b"4_0", b"0x4", b"04", b"4.0", b"\xd9\xa3", b"65535"]),
    st.binary(min_size=1, max_size=4),
)


@settings(max_examples=300, deadline=None)
@given(
    gaps=st.tuples(_PGM_GAP, _PGM_GAP, _PGM_GAP),
    sizes=st.tuples(st.integers(1, 9), st.integers(1, 9)),
    odd=st.one_of(st.none(), st.none(), st.tuples(st.integers(0, 2), _PGM_ODD_TOKEN)),
    fields=st.sampled_from([3, 3, 3, 2, 1, 0]),
    # the one whitespace byte, or a comment to its newline, before the raster
    end=st.one_of(st.just(b"\n"), _PGM_COMMENT),
    raster=st.integers(-3, 3),
)
def test_pgm_header_parses_agree(gaps, sizes, odd, fields, end, raster):
    tokens = [b"%d" % sizes[0], b"%d" % sizes[1], b"255"]
    if odd is not None:
        tokens[odd[0]] = odd[1]
    header = b"P5" + b"".join(gap + token for gap, token in zip(gaps, tokens[:fields]))
    if fields == 3:
        header += end
    _assert_both_parses_agree(header + b"\xc8" * max(sizes[0] * sizes[1] + raster, 0))


@settings(max_examples=300, deadline=None)
@given(
    width=st.integers(1, 9),
    height=st.integers(1, 9),
    mutations=st.lists(st.tuples(st.integers(0, 53), st.integers(0, 255)), max_size=6),
    # (byte, size) of bfOffBits, biSize, biWidth, biHeight, biBitCount, biCompression
    field=st.sampled_from([None, (10, 4), (14, 4), (18, 4), (22, 4), (28, 2), (30, 4)]),
    value=st.one_of(st.integers(0, 64), st.integers(0, 2**32 - 1)),
    cut=st.integers(-8, 8),
)
def test_bmp_header_parses_agree(width, height, mutations, field, value, cut):
    data = bytearray(random_bmp_bytes(width, height, width * height))
    for pos, byte in mutations:
        data[pos] = byte
    if field is not None:
        pos, size = field
        data[pos : pos + size] = value.to_bytes(4, "little")[:size]
    _assert_both_parses_agree(bytes(data[: len(data) + cut] if cut < 0 else data + bytes(cut)))
