from __future__ import annotations

import hashlib
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from graphstego import codec
from graphstego.codec import (
    CapacityError,
    FrameError,
    bits_to_bytes,
    bytes_to_bits,
    embed_block,
    embed_file,
    embed_stream,
    extract_block,
    extract_file,
    extract_stream,
    frame_payload,
)
from graphstego.decoder import build_coset_table_bruteforce
from graphstego.gf2 import as_bits
from graphstego.graphs import build_code, complete_graph
from graphstego.images import CoverImage, load_image, lsb_extract, lsb_inject, save_image

from helpers import (
    K5_CARRIER,
    K5_EXAMPLE_FLIP,
    K5_EXAMPLE_KEEP,
    random_bmp_bytes,
    random_connected_graph,
    random_graph,
    random_pgm_bytes,
    ring_graph,
)


def test_embed_block_worked_examples(k5_table):
    t = as_bits(K5_CARRIER)
    msg, want, flips = K5_EXAMPLE_KEEP
    v, f = embed_block(t, as_bits(msg), k5_table)
    assert np.array_equal(v, as_bits(want)) and f == flips
    msg, want, flips = K5_EXAMPLE_FLIP
    v, f = embed_block(t, as_bits(msg), k5_table)
    assert np.array_equal(v, as_bits(want)) and f == flips


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


def test_packed_frame_refuses_a_length_its_header_cannot_hold():
    with pytest.raises(ValueError, match="32-bit length header"):
        codec._packed_frame(np.zeros(0, dtype=np.uint8), 1 << 32)


def test_usable_cpus_without_an_affinity_call_is_the_cpu_count(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert codec._usable_cpus() == (os.cpu_count() or 1)


def test_frame_roundtrip_random_sizes():
    # K3..K9 carry p = 2..8 bits per block
    tables = [build_coset_table_bruteforce(build_code(complete_graph(q))) for q in range(3, 10)]
    rng = np.random.default_rng(17)
    for _ in range(300):
        table = tables[int(rng.integers(len(tables)))]
        code = table.code
        p = code.n_len - code.k
        nbits = int(rng.integers(0, 120))
        bits = rng.integers(0, 2, nbits, dtype=np.uint8)
        framed = frame_payload(bits, p)
        assert framed.size % p == 0
        spare = int(rng.integers(0, 2 * code.n_len))
        cover = rng.integers(0, 2, framed.size // p * code.n_len + spare, dtype=np.uint8)
        stego, _ = embed_stream(cover, bits, table)
        assert np.array_equal(extract_stream(stego, code), bits)


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
    # plain ints, not numpy scalars: reports are printed and JSON-dumped
    assert type(report.total_flips) is int and type(report.max_flips_per_block) is int
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
    assert (report.blocks_used, report.total_flips, report.max_flips_per_block,
            report.embedding_rate, report.theoretical_efficiency,
            report.empirical_efficiency) == report_fields


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
    # a uint8 bit array that is only read is validated, not copied
    peak, recovered = _traced_peak(extract_stream, stego, k5_code)
    assert peak < 1.5 * cover.nbytes
    assert np.array_equal(recovered, payload)


def test_bits_to_bytes_does_not_copy_its_input():
    bits = np.random.default_rng(59).integers(0, 2, 1 << 22, dtype=np.uint8)
    peak, data = _traced_peak(bits_to_bytes, bits)
    assert peak < 0.5 * bits.nbytes
    assert data == np.packbits(bits).tobytes()


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


def test_embed_file_takes_bytes_like_payloads_only(tmp_path, k5_table, k5_code):
    rng = np.random.default_rng(61)
    cover = tmp_path / "cover.pgm"
    cover.write_bytes(b"P5\n50 20\n255\n" + rng.integers(0, 256, 1000, dtype=np.uint8).tobytes())
    data = rng.integers(0, 256, 30, dtype=np.uint8).tobytes()
    stegos = []
    for i, payload in enumerate((data, bytearray(data), memoryview(data))):
        out = tmp_path / f"stego{i}.pgm"
        embed_file(cover, payload, k5_table, out)
        assert extract_file(out, k5_code) == data
        stegos.append(out.read_bytes())
    assert stegos[1] == stegos[2] == stegos[0]
    # the old one-entry-per-bit payload must not be embedded as bytes
    for payload in (np.array([1, 0, 1], dtype=np.uint8), np.frombuffer(data, dtype=np.uint8)):
        with pytest.raises(TypeError, match="ndarray"):
            embed_file(cover, payload, k5_table, tmp_path / "never.pgm")
    assert not (tmp_path / "never.pgm").exists()


def _outcome(fn, *args):
    """fn's result, or the type of the CapacityError / FrameError it raised."""
    try:
        return fn(*args)
    except (CapacityError, FrameError) as exc:
        return type(exc)


@pytest.fixture(scope="module")
def ring_tables():
    """Rings of 18 and 21 vertices: p = 17 and 20 (the table limit), 4-byte leader indices."""
    return [build_coset_table_bruteforce(build_code(ring_graph(v))) for v in (18, 21)]


@pytest.mark.parametrize("chunk", [1, 3, 64])
@pytest.mark.parametrize("kind", sorted(COVERS))
def test_image_path_matches_the_bit_plane_composition(kind, chunk, tmp_path, monkeypatch, k5_table,
                                                      ring_tables):
    # the file level against lsb_extract -> embed_stream -> lsb_inject and
    # lsb_extract -> extract_stream on the whole loaded image
    monkeypatch.setattr(codec, "CHUNK_BLOCKS", chunk)
    path, got_path, want_path = tmp_path / "cover.img", tmp_path / "got.img", tmp_path / "want.img"
    path.write_bytes(COVERS[kind]())
    before = path.read_bytes()
    cover = load_image(path)
    rng = np.random.default_rng(chunk)
    other = build_coset_table_bruteforce(build_code(random_graph(rng, 7, 11)))
    for table in (k5_table, other, *ring_tables):
        code = table.code
        p = code.n_len - code.k
        room = (cover.capacity // code.n_len * p - 32) // 8
        for size in (0, int(rng.integers(1, room)), room, room + 1):
            data = rng.integers(0, 256, size, dtype=np.uint8).tobytes()
            got = _outcome(embed_file, path, data, table, got_path)
            want = _outcome(embed_stream, lsb_extract(cover), bytes_to_bits(data), table)
            assert path.read_bytes() == before
            assert (want is CapacityError) == (size == room + 1)
            if want is CapacityError:
                assert got is CapacityError
                continue
            assert got == want[1]
            save_image(lsb_inject(cover, want[0]), want_path)
            assert got_path.read_bytes() == want_path.read_bytes()
            assert extract_file(got_path, code) == data
        # covers that carry no frame: the header may declare too much,
        # and a one-row image may not even hold the header
        width = (-(-32 // p) * code.n_len - 1) // cover.channels
        pixels = cover.pixels[: width * cover.channels]
        save_image(CoverImage(width=width, height=1, channels=cover.channels, depth=cover.depth,
                              pixels=pixels, format_tag=cover.format_tag), want_path)
        for img_path in (path, want_path):
            got = _outcome(extract_file, img_path, code)
            want = _outcome(extract_stream, lsb_extract(load_image(img_path)), code)
            if isinstance(want, np.ndarray) and want.size % 8 == 0:
                assert got == bits_to_bytes(want)
            elif isinstance(want, np.ndarray):
                assert got is FrameError
            else:
                assert got is want


def test_readme_quickstart_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text("utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", readme, re.S | re.M)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})


def test_image_demo_removes_its_files(tmp_path):
    root = Path(__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "TMPDIR": str(tmp_path), "PYTHONPATH": path}
    demo = root / "demos" / "03_hide_bits_in_an_image.py"
    run = subprocess.run(
        [sys.executable, "-W", "error", str(demo)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    assert not any(tmp_path.iterdir())
