"""The syndrome engine against the row-by-row oracle ``helpers.mat_vec_mul``.

``stream_syndromes`` returns the syndromes' own packed bit stream at any
width; ``syndrome_words`` reads that stream as words of the narrowest
unsigned dtype and refuses widths above 64 bits; the stream codec
walks blocks ``CHUNK_BLOCKS`` at a time.  All are checked here against
independent computations: ``mat_vec_mul`` per row, ``syndrome_index``
(plain Python, one bit at a time) per word, ``embed_block`` per block.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphstego import codec, gf2, graphs
from graphstego.codebook import bundled_codebook_text, code_from_codebook
from graphstego.codec import (
    embed_block,
    embed_file,
    embed_stream,
    extract_block,
    extract_file,
    extract_stream,
    frame_payload,
)
from graphstego.decoder import _column_words, build_coset_table_bruteforce
from graphstego.gf2 import stream_syndromes, syndrome_index, syndrome_tables, syndrome_words
from graphstego.graphs import build_code, complete_graph
from graphstego.images import load_image

from helpers import mat_vec_mul, random_graph, ring_graph

WIDTHS = [1, 8, 9, 16, 17, 32, 33, 64, 65, 128, 130]
NARROWEST = {1: np.uint8, 8: np.uint8, 9: np.uint16, 16: np.uint16, 17: np.uint32,
             32: np.uint32, 33: np.uint64, 64: np.uint64}


def _layout(bits: np.ndarray, how: str) -> np.ndarray:
    """The same 0/1 rows in another memory layout."""
    if how == "pixel rows":  # LSBs of rows of a flat pixel buffer, as the codec reads them
        n = bits.shape[1]
        pixels = np.random.default_rng(0).integers(0, 256, (len(bits) + 3) * n, dtype=np.uint8)
        rows = pixels.reshape(-1, n)[2 : 2 + len(bits)]
        rows ^= (rows & 1) ^ bits
        return rows & 1
    if how == "strided":
        wide = np.zeros((2 * len(bits), 2 * bits.shape[1]), dtype=np.uint8)
        wide[::2, 1::2] = bits
        return wide[::2, 1::2]
    if how == "fortran":
        return np.asfortranarray(bits)
    return bits


@settings(max_examples=200, deadline=None)
@given(
    p=st.sampled_from(WIDTHS),
    n=st.integers(1, 72),  # up to nine byte digits per row
    count=st.one_of(st.sampled_from([0, 1]), st.integers(2, 70)),
    layout=st.sampled_from(["contiguous", "pixel rows", "strided", "fortran"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_syndrome_words_match_mat_vec_mul(p, n, count, layout, seed):
    # counts are drawn freely, so most are not a multiple of the
    # 8 / gcd(n, 8) rows after which the row bit offsets repeat
    rng = np.random.default_rng(seed)
    h = rng.integers(0, 2, (p, n), dtype=np.uint8)
    blocks = rng.integers(0, 2, (count, n), dtype=np.uint8)
    packed = stream_syndromes(np.packbits(_layout(blocks, layout).reshape(-1)), count,
                              syndrome_tables(h))
    if p > 64:  # a word holds one row syndrome; wider ones come only packed
        with pytest.raises(ValueError, match="64 bits"):
            syndrome_words(packed, count, p)
        return
    syn = syndrome_words(packed, count, p)
    assert syn.shape == (count,) and syn.dtype == NARROWEST[p]
    assert [int(s) for s in syn] == [syndrome_index(mat_vec_mul(h, row)) for row in blocks]


@settings(max_examples=200, deadline=None)
@given(
    p=st.sampled_from(WIDTHS),
    n=st.integers(1, 72),
    count=st.one_of(st.sampled_from([0, 1]), st.integers(2, 70)),
    extra=st.integers(0, 9),  # rows in the stream past the ``count`` asked for
    kept=st.integers(0, 100),  # percent of the stream's bytes handed over
    seed=st.integers(0, 2**32 - 1),
)
def test_packed_stream_syndromes_match_mat_vec_mul(p, n, count, extra, kept, seed):
    # the packed output is the p-bit syndromes back to back, MSB first;
    # a group spans up to 8 rows, so most counts end inside a group,
    # rows past ``count`` must not leak into the last byte, and a
    # stream cut short reads as zero past its end
    rng = np.random.default_rng(seed)
    h = rng.integers(0, 2, (p, n), dtype=np.uint8)
    bits = rng.integers(0, 2, (count + extra) * n, dtype=np.uint8)
    stream = np.packbits(bits)[: -(-bits.size // 8) * kept // 100]
    bits[8 * len(stream) :] = 0
    got = stream_syndromes(stream, count, syndrome_tables(h))
    oracle = [mat_vec_mul(h, row) for row in bits[: count * n].reshape(count, n)]
    assert got.dtype == np.uint8 and got.ndim == 1
    assert got.tobytes() == np.packbits(np.concatenate([np.zeros(0, np.uint8), *oracle])).tobytes()


def test_column_words_are_single_bit_syndromes():
    # the coset search's steps: column j is the syndrome of bit j alone, an
    # int of any width, read off the check's rows as int bitsets (bit j = column j)
    rng = np.random.default_rng(5)
    for p in WIDTHS:
        h = rng.integers(0, 2, (p, 12), dtype=np.uint8)
        rows = [sum(int(bit) << j for j, bit in enumerate(row)) for row in h]
        assert _column_words(rows, 12) == [syndrome_index(h[:, j]) for j in range(12)]


@settings(max_examples=40, deadline=None)
@given(
    chunk=st.sampled_from([1, 2, 3, 5, 8, 64]),
    payload_bits=st.integers(0, 300),
    seed=st.integers(0, 2**32 - 1),
)
def test_stream_chunking_matches_blockwise_embed(k5_table, k5_code, chunk, payload_bits, seed):
    rng = np.random.default_rng(seed)
    payload = rng.integers(0, 2, payload_bits, dtype=np.uint8)
    framed = frame_payload(payload, 4).reshape(-1, 4)
    cover = rng.integers(0, 2, 10 * len(framed) + int(rng.integers(0, 25)), dtype=np.uint8)
    expect = cover.copy()
    flips = []
    for i, m in enumerate(framed):
        expect[10 * i : 10 * i + 10], f = embed_block(cover[10 * i : 10 * i + 10], m, k5_table)
        flips.append(f)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(codec, "CHUNK_BLOCKS", chunk)
        stego, report = embed_stream(cover, payload, k5_table)
        recovered = extract_stream(stego, k5_code)
    assert np.array_equal(stego, expect)
    assert (report.total_flips, report.max_flips_per_block) == (sum(flips), max(flips))
    assert np.array_equal(recovered, payload)


def _odd_width_codes():
    """Codes whose packed output repeats only every 8 rows: odd p."""
    k6 = build_code(complete_graph(6))  # n = 15: rows start at all 8 bit offsets
    rand = build_code(random_graph(np.random.default_rng(71), 8, 13))  # n = 13, p = 7
    return [k6, rand, build_code(ring_graph(18))]  # p = 17: 4-byte leader indices


@pytest.mark.parametrize("chunk", [1, 2, 3, 5, 8, 64])
def test_extract_roundtrip_with_a_packed_period_of_8(chunk, tmp_path, monkeypatch):
    monkeypatch.setattr(codec, "CHUNK_BLOCKS", chunk)
    rng = np.random.default_rng(chunk)
    for code in _odd_width_codes():
        n, p = code.n_len, code.n_len - code.k
        assert p % 2 == 1
        table = build_coset_table_bruteforce(code)
        data = rng.integers(0, 256, int(rng.integers(0, 60)), dtype=np.uint8).tobytes()
        blocks = -(-(32 + 8 * len(data)) // p)
        pixels = rng.integers(0, 256, n * blocks + int(rng.integers(0, 3 * n)), dtype=np.uint8)
        cover_path, stego_path = tmp_path / "cover.pgm", tmp_path / "stego.pgm"
        cover_path.write_bytes(b"P5\n%d 1\n255\n" % len(pixels) + pixels.tobytes())
        report = embed_file(cover_path, data, table, stego_path)
        stego = load_image(stego_path).pixels
        assert report.blocks_used == blocks
        assert np.array_equal(stego[n * blocks :], pixels[n * blocks :])
        frame = frame_payload(np.unpackbits(np.frombuffer(data, dtype=np.uint8)), p)
        for i, m in enumerate(frame.reshape(-1, p)):
            assert np.array_equal(mat_vec_mul(code.parity_check, stego[n * i : n * i + n] & 1), m)
        assert extract_file(stego_path, code) == data
        assert np.array_equal(np.packbits(extract_stream(stego & 1, code)),
                              np.frombuffer(data, dtype=np.uint8))


def test_tables_are_built_once_per_image_call(tmp_path, monkeypatch):
    # the code's table is a cached attribute of the code, built on its first
    # use by the codec; the word reader builds its identity table once per
    # width and keeps it.  The code layer and the coset-table builder build
    # neither, and no later embed or extract call and no chunk builds another
    calls = []

    def spy(check):
        calls.append(check.copy())
        return syndrome_tables(check)

    monkeypatch.setattr(gf2, "syndrome_tables", spy)  # the identity tables
    monkeypatch.setattr(graphs, "syndrome_tables", spy)  # the code's tables
    monkeypatch.setattr(codec, "CHUNK_BLOCKS", 8)  # 29 chunks each way
    gf2._identity_tables.cache_clear()
    code = code_from_codebook(bundled_codebook_text("k5"))
    table = build_coset_table_bruteforce(code)
    assert calls == []
    rng = np.random.default_rng(73)
    pixels = rng.integers(0, 256, 2500, dtype=np.uint8)
    data = rng.integers(0, 256, 112, dtype=np.uint8).tobytes()
    cover_path, stego_path = tmp_path / "cover.pgm", tmp_path / "stego.pgm"
    cover_path.write_bytes(b"P5\n50 50\n255\n" + pixels.tobytes())
    report = embed_file(cover_path, data, table, stego_path)
    identity = np.eye(8, 4, -4, dtype=np.uint8)  # reads each 4-bit word of a packed stream
    assert len(calls) == 2 and np.array_equal(calls[0], code.parity_check)
    assert np.array_equal(calls[1], identity)
    calls.clear()
    assert report.blocks_used == 232
    assert extract_file(stego_path, code) == data
    stego, again = embed_stream(pixels & 1, np.unpackbits(np.frombuffer(data, np.uint8)), table)
    assert again == report
    assert np.array_equal(np.packbits(extract_stream(stego, code)), np.frombuffer(data, np.uint8))
    for block in stego[:1000].reshape(100, 10):
        extract_block(block, code)
    assert calls == []


def test_extract_stream_on_a_code_wider_than_64_bits():
    # a 70-vertex graph gives p = 69: extract-only, no table can exist
    rng = np.random.default_rng(65)
    code = build_code(random_graph(rng, 70, 84))
    n, p = code.n_len, code.n_len - code.k
    assert p >= 65
    # the cut-set check is the identity on tree-edge columns, so a
    # message is embedded by writing H(t) XOR m onto the tree edges
    tree_cols = [eid - 1 for eid in code.tree.tree_edges]
    assert np.array_equal(code.parity_check[:, tree_cols], np.eye(p, dtype=np.uint8))
    payload = rng.integers(0, 2, 700, dtype=np.uint8)
    messages = frame_payload(payload, p).reshape(-1, p)
    stego = rng.integers(0, 2, n * len(messages) + 17, dtype=np.uint8)
    for i, m in enumerate(messages):
        block = stego[n * i : n * (i + 1)]
        block[tree_cols] ^= mat_vec_mul(code.parity_check, block) ^ m
    for i, m in enumerate(messages):
        block = stego[n * i : n * (i + 1)]
        assert np.array_equal(mat_vec_mul(code.parity_check, block), m)
        assert np.array_equal(extract_block(block, code), m)
    assert np.array_equal(extract_stream(stego, code), payload)
