from __future__ import annotations

import dataclasses
import hashlib
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from graphstego import codec
from graphstego.codec import (
    CapacityError,
    FrameError,
    bits_to_bytes,
    bytes_to_bits,
    compute_metrics,
    embed_block,
    embed_image,
    embed_stream,
    extract_block,
    extract_image,
    extract_stream,
    frame_payload,
    unframe_payload,
)
from graphstego.decoder import build_coset_table_bruteforce
from graphstego.gf2 import as_bits, bits_to_str
from graphstego.graphs import build_code
from graphstego.images import CoverImage, load_image, lsb_extract, lsb_inject

from helpers import (
    K5_CARRIER,
    K5_EXAMPLE_FLIP,
    K5_EXAMPLE_KEEP,
    random_bmp_bytes,
    random_connected_graph,
    random_graph,
    random_pgm_bytes,
)


def test_embed_block_worked_examples(k5_table):
    t = as_bits(K5_CARRIER)
    msg, want, flips = K5_EXAMPLE_KEEP
    v, f = embed_block(t, as_bits(msg), k5_table)
    assert bits_to_str(v) == want and f == flips
    msg, want, flips = K5_EXAMPLE_FLIP
    v, f = embed_block(t, as_bits(msg), k5_table)
    assert bits_to_str(v) == want and f == flips


def test_extract_block_inverts_embed(k5_table, k5_code):
    rng = np.random.default_rng(3)
    for _ in range(300):
        t = rng.integers(0, 2, 10, dtype=np.uint8)
        m = rng.integers(0, 2, 4, dtype=np.uint8)
        v, flips = embed_block(t, m, k5_table)
        assert flips <= k5_table.rho
        assert np.array_equal(extract_block(v, k5_code), m)
        # carriers already carrying their message stay untouched
        v2, f2 = embed_block(v, m, k5_table)
        assert f2 == 0 and np.array_equal(v2, v)


def test_block_dimension_errors(k5_table, k5_code):
    with pytest.raises(ValueError):
        embed_block("110", as_bits("1100"), k5_table)
    with pytest.raises(ValueError):
        embed_block(K5_CARRIER, as_bits("110"), k5_table)
    with pytest.raises(ValueError):
        extract_block("110", k5_code)


def test_bytes_bits_roundtrip():
    data = bytes(range(256))
    assert bits_to_bytes(bytes_to_bits(data)) == data
    assert bytes_to_bits(b"\xa5").tolist() == [1, 0, 1, 0, 0, 1, 0, 1]
    assert bytes_to_bits(b"").size == 0
    with pytest.raises(ValueError):
        bits_to_bytes(as_bits("1010101"))


def test_frame_layout_single_byte():
    framed = frame_payload(bytes_to_bits(b"\xa5"), p=4)
    assert framed.size == 40  # 32 header + 8 payload, already a multiple of 4
    expect = [0] * 28 + [1, 0, 0, 0] + [1, 0, 1, 0, 0, 1, 0, 1]
    assert framed.tolist() == expect


def test_frame_pads_to_block_multiple():
    framed = frame_payload(as_bits("1"), p=4)
    assert framed.size == 36
    assert framed[32] == 1 and not framed[33:].any()
    assert frame_payload(as_bits(""), p=4).size == 32
    assert frame_payload(as_bits("11"), p=5).size == 35
    with pytest.raises(ValueError):
        frame_payload(as_bits("1"), p=0)


def test_unframe_validates():
    framed = frame_payload(bytes_to_bits(b"hello"), p=4)
    assert bits_to_bytes(unframe_payload(framed)) == b"hello"
    with pytest.raises(FrameError):
        unframe_payload(as_bits("1" * 31))  # shorter than the header
    # header claiming 100 bits with only 8 present
    bogus = frame_payload(bytes_to_bits(b"\xff"), p=4).copy()
    bogus[:32] = 0
    bogus[25] = 1  # declares 64
    with pytest.raises(FrameError):
        unframe_payload(bogus)


def test_frame_roundtrip_random_sizes():
    rng = np.random.default_rng(17)
    for _ in range(300):
        p = int(rng.integers(1, 9))
        nbits = int(rng.integers(0, 120))
        bits = rng.integers(0, 2, nbits, dtype=np.uint8)
        framed = frame_payload(bits, p)
        assert framed.size % p == 0
        assert np.array_equal(unframe_payload(framed), bits)


def test_embed_stream_matches_blockwise_reference(k5_table, k5_code):
    # the vectorised path must agree bit for bit with a sequential
    # block-by-block implementation
    rng = np.random.default_rng(29)
    for _ in range(20):
        cover = rng.integers(0, 2, 400, dtype=np.uint8)
        payload = rng.integers(0, 2, int(rng.integers(0, 120)), dtype=np.uint8)
        stego, report = embed_stream(cover, payload, k5_table)
        framed = frame_payload(payload, 4)
        expect = cover.copy()
        total = 0
        for i, chunk in enumerate(framed.reshape(-1, 4)):
            v, flips = embed_block(cover[i * 10 : (i + 1) * 10], chunk, k5_table)
            expect[i * 10 : (i + 1) * 10] = v
            total += flips
        assert np.array_equal(stego, expect)
        assert report.total_flips == total
        assert report.blocks_used == framed.size // 4
        assert np.array_equal(extract_stream(stego, k5_code), payload)


def test_embed_stream_reports(k5_table):
    rng = np.random.default_rng(31)
    cover = rng.integers(0, 2, 4096, dtype=np.uint8)
    payload = rng.integers(0, 2, 256, dtype=np.uint8)
    stego, report = embed_stream(cover, payload, k5_table)
    assert report.blocks_used == 72  # (32 + 256) / 4
    assert report.max_flips_per_block <= k5_table.rho == 2
    assert report.embedding_rate == pytest.approx(0.4)
    assert report.theoretical_efficiency == pytest.approx(2.0)
    if report.total_flips:
        assert report.empirical_efficiency == pytest.approx(
            4 * 72 / report.total_flips
        )
    # untouched tail passes through
    assert np.array_equal(stego[720:], cover[720:])
    assert (stego != cover).sum() == report.total_flips


def test_embed_stream_capacity_error(k5_table):
    cover = np.zeros(79, dtype=np.uint8)  # 8 blocks needed for 32-bit header
    with pytest.raises(CapacityError, match="80"):
        embed_stream(cover, as_bits(""), k5_table)


def test_extract_stream_errors(k5_code, k5_table):
    with pytest.raises(FrameError):
        extract_stream(np.zeros(79, dtype=np.uint8), k5_code)
    # valid header blocks but stream cut before the declared end
    rng = np.random.default_rng(37)
    cover = rng.integers(0, 2, 400, dtype=np.uint8)
    payload = rng.integers(0, 2, 64, dtype=np.uint8)
    stego, _ = embed_stream(cover, payload, k5_table)
    with pytest.raises(FrameError):
        extract_stream(stego[:120], k5_code)


def test_zero_payload_roundtrip(k5_table, k5_code):
    cover = np.zeros(80, dtype=np.uint8)
    stego, report = embed_stream(cover, as_bits(""), k5_table)
    assert report.blocks_used == 8
    assert extract_stream(stego, k5_code).size == 0


def test_stream_roundtrip_on_random_codes():
    rng = np.random.default_rng(43)
    for _ in range(8):
        code = build_code(random_connected_graph(rng))
        table = build_coset_table_bruteforce(code)
        p = code.n_len - code.k
        cover = rng.integers(0, 2, 80 * code.n_len, dtype=np.uint8)
        payload = rng.integers(0, 2, int(rng.integers(0, 40 * p)), dtype=np.uint8)
        stego, report = embed_stream(cover, payload, table)
        assert np.array_equal(extract_stream(stego, code), payload)
        assert report.max_flips_per_block <= table.rho


def test_compute_metrics():
    er, ef = compute_metrics(10, 4, 2)
    assert (er, ef) == (0.4, 2.0)
    er, ef = compute_metrics(15, 5, 2)
    assert er == pytest.approx(1 / 3)
    assert ef == pytest.approx(2.5)
    # published-style roundings stay within a cent
    er, ef = compute_metrics(63, 11, 3)
    assert abs(er - 0.18) <= 0.01
    assert abs(ef - 3.67) <= 0.01
    with pytest.raises(ValueError):
        compute_metrics(10, 4, 0)
    with pytest.raises(ValueError):
        compute_metrics(0, 4, 1)


# SHA-256 of the stego bits and the EmbedReport fields, recorded with
# the int64-matmul stream codec that the column-syndrome engine
# replaced.  Both covers span several CHUNK_BLOCKS chunks.
GOLDEN = {
    "k5": (
        2_000_003, 700_001, 7001,
        "b7ea5f1aaa3ce92111c76934ee7766dcc5c5ef134edabf41bdb1b6c962ec7076",
        (175009, 218403, 2, 0.4, 2.0, 3.205249012147269),
    ),
    "random_v11_e19": (
        1_500_007, 700_003, 7003,
        "8a249e1f6f6b7d3d82c20e40ecf78d02787512adf370cc896dfde9655f0e2efe",
        (70004, 249563, 6, 0.5263157894736842, 1.6666666666666667, 2.8050632505619824),
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_embed_stream_golden_digest(name, k5_code):
    cover_bits, data_bits, seed, digest, report_fields = GOLDEN[name]
    if name == "k5":
        code = k5_code
    else:
        code = build_code(random_graph(np.random.default_rng(7002), 11, 19))
        assert code.n_len - code.k == 10
    rng = np.random.default_rng(seed)
    cover = rng.integers(0, 2, cover_bits, dtype=np.uint8)
    data = rng.integers(0, 2, data_bits, dtype=np.uint8)
    stego, report = embed_stream(cover, data, build_coset_table_bruteforce(code))
    assert stego.dtype == np.uint8 and stego.size == cover_bits
    assert hashlib.sha256(stego.tobytes()).hexdigest() == digest
    assert dataclasses.astuple(report) == report_fields


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        result = fn(*args)
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


def test_stream_peak_memory_is_a_small_multiple_of_the_cover(k5_table, k5_code):
    rng = np.random.default_rng(47)
    cover = rng.integers(0, 2, 1 << 22, dtype=np.uint8)
    payload = rng.integers(0, 2, int(0.95 * 0.4 * cover.size), dtype=np.uint8)
    peak, (stego, _) = _traced_peak(embed_stream, cover, payload, k5_table)
    assert peak < 3 * cover.nbytes
    peak, recovered = _traced_peak(extract_stream, stego, k5_code)
    assert peak < 3 * cover.nbytes
    assert np.array_equal(recovered, payload)


def test_image_path_peak_memory_stays_below_the_bit_plane_composition(k5_table, k5_code):
    # the lsb_extract -> embed_stream -> lsb_inject composition peaks at
    # about 3x the cover; embedding in one copy of the pixels must not
    rng = np.random.default_rng(47)
    pixels = rng.integers(0, 256, 1 << 22, dtype=np.uint8)
    cover = CoverImage(width=2048, height=2048, channels=1, depth=8, pixels=pixels,
                       format_tag="pgm")
    payload = rng.integers(0, 2, int(0.95 * 0.4 * pixels.size), dtype=np.uint8)
    peak, (stego, _) = _traced_peak(embed_image, cover, payload, k5_table)
    assert peak < 2.5 * pixels.nbytes
    peak, recovered = _traced_peak(extract_image, stego, k5_code)
    assert peak < 1.5 * pixels.nbytes
    assert np.array_equal(recovered, payload)


@pytest.mark.parametrize("bad", [2, 255])
def test_public_entry_points_reject_non_bits(bad, k5_table, k5_code):
    bits = np.zeros(800, dtype=np.uint8)
    bits[123] = bad
    ok = np.zeros(800, dtype=np.uint8)
    with pytest.raises(ValueError, match="0 or 1"):
        embed_stream(bits, ok[:40], k5_table)
    with pytest.raises(ValueError, match="0 or 1"):
        embed_stream(ok, bits[:200], k5_table)
    with pytest.raises(ValueError, match="0 or 1"):
        extract_stream(bits, k5_code)
    with pytest.raises(ValueError, match="0 or 1"):
        bits_to_bytes(bits)
    with pytest.raises(ValueError, match="0 or 1"):
        frame_payload(bits, 4)


def test_embed_stream_leaves_inputs_unchanged(k5_table):
    rng = np.random.default_rng(53)
    cover = rng.integers(0, 2, 5000, dtype=np.uint8)
    payload = rng.integers(0, 2, 1000, dtype=np.uint8)
    cover_before, payload_before = cover.copy(), payload.copy()
    cover.setflags(write=False)
    payload.setflags(write=False)
    stego, report = embed_stream(cover, payload, k5_table)
    assert np.array_equal(cover, cover_before)
    assert np.array_equal(payload, payload_before)
    assert stego.flags.writeable and not np.shares_memory(stego, cover)
    assert report.total_flips == int((stego != cover).sum())


COVERS = {
    "pgm": lambda: random_pgm_bytes(40, 30, 83),
    "bmp_unpadded": lambda: random_bmp_bytes(20, 16, 89),  # 60-byte rows
    "bmp_padded": lambda: random_bmp_bytes(21, 15, 97),  # 63-byte rows, stride 64
}


def _outcome(fn, *args):
    """fn's result, or the type of the CapacityError / FrameError it raised."""
    try:
        return fn(*args)
    except (CapacityError, FrameError) as exc:
        return type(exc)


@pytest.mark.parametrize("chunk", [1, 3, 64])
@pytest.mark.parametrize("kind", sorted(COVERS))
def test_image_path_matches_the_bit_plane_composition(kind, chunk, tmp_path, monkeypatch, k5_table):
    monkeypatch.setattr(codec, "CHUNK_BLOCKS", chunk)
    path = tmp_path / "cover.img"
    path.write_bytes(COVERS[kind]())
    cover = load_image(path)
    writable = replace(cover, pixels=cover.pixels.copy())
    rng = np.random.default_rng(chunk)
    other = build_coset_table_bruteforce(build_code(random_graph(rng, 7, 11)))
    for table in (k5_table, other):
        code = table.code
        p = code.n_len - code.k
        room = cover.capacity // code.n_len * p - 32
        for size in (0, int(rng.integers(1, room)), room, room + 1):
            data = rng.integers(0, 2, size, dtype=np.uint8)
            for img in (cover, writable):
                before = img.pixels.copy()
                got = _outcome(embed_image, img, data, table)
                want = _outcome(embed_stream, lsb_extract(img), data, table)
                assert np.array_equal(img.pixels, before)
                assert (want is CapacityError) == (size == room + 1)
                if want is CapacityError:
                    assert got is CapacityError
                    continue
                stego, report = got
                assert report == want[1]
                assert np.array_equal(stego.pixels, lsb_inject(img, want[0]).pixels)
                assert not stego.pixels.flags.writeable
                assert not np.shares_memory(stego.pixels, img.pixels)
                assert (stego.width, stego.height, stego.format_tag) == (
                    img.width, img.height, img.format_tag
                )
                assert np.array_equal(extract_image(stego, code), data)
        # covers that carry no frame: the header may declare too much,
        # and a cut-down image may not even hold the header
        for img in (cover, replace(cover, pixels=cover.pixels[: -(-32 // p) * code.n_len - 1])):
            got = _outcome(extract_image, img, code)
            want = _outcome(extract_stream, lsb_extract(img), code)
            if isinstance(want, np.ndarray):
                assert np.array_equal(got, want)
            else:
                assert got is want
