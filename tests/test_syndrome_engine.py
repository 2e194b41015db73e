"""The column-syndrome engine against the row-by-row oracle ``helpers.mat_vec_mul``.

``stream_syndromes`` returns the syndromes' own packed bit stream at any
width; ``block_syndromes`` reads that stream as words of the narrowest
unsigned dtype and refuses widths above 64 bits; the stream codec
walks blocks ``CHUNK_BLOCKS`` at a time.  All are checked here against
independent computations: ``mat_vec_mul`` per row,
``embed_block`` per block.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphstego import codec
from graphstego.codec import (
    embed_block,
    embed_image,
    embed_stream,
    extract_block,
    extract_image,
    extract_stream,
    frame_payload,
)
from graphstego.decoder import build_coset_table_bruteforce
from graphstego.gf2 import (
    block_syndromes,
    column_syndromes,
    stream_syndromes,
    syndrome_index,
    syndrome_tables,
)
from graphstego.graphs import build_code, complete_graph
from graphstego.images import CoverImage

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
def test_block_syndromes_match_mat_vec_mul(p, n, count, layout, seed):
    # counts are drawn freely, so most are not a multiple of the
    # 8 / gcd(n, 8) rows after which the row bit offsets repeat
    rng = np.random.default_rng(seed)
    h = rng.integers(0, 2, (p, n), dtype=np.uint8)
    blocks = rng.integers(0, 2, (count, n), dtype=np.uint8)
    if p > 64:  # a row syndrome is one word; wider ones come only packed
        with pytest.raises(ValueError, match="64 bits"):
            block_syndromes(_layout(blocks, layout), h)
        return
    syn = block_syndromes(_layout(blocks, layout), h)
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


def test_column_syndromes_are_single_bit_syndromes():
    rng = np.random.default_rng(5)
    for p in WIDTHS:
        h = rng.integers(0, 2, (p, 12), dtype=np.uint8)
        assert column_syndromes(h) == [syndrome_index(h[:, j]) for j in range(12)]


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
def test_extract_roundtrip_with_a_packed_period_of_8(chunk, monkeypatch):
    monkeypatch.setattr(codec, "CHUNK_BLOCKS", chunk)
    rng = np.random.default_rng(chunk)
    for code in _odd_width_codes():
        n, p = code.n_len, code.n_len - code.k
        assert p % 2 == 1
        table = build_coset_table_bruteforce(code)
        data = rng.integers(0, 256, int(rng.integers(0, 60)), dtype=np.uint8).tobytes()
        blocks = -(-(32 + 8 * len(data)) // p)
        pixels = rng.integers(0, 256, n * blocks + int(rng.integers(0, 3 * n)), dtype=np.uint8)
        cover = CoverImage(width=len(pixels), height=1, channels=1, depth=8, pixels=pixels,
                           format_tag="pgm")
        stego, report = embed_image(cover, data, table)
        assert report.blocks_used == blocks
        assert np.array_equal(stego.pixels[n * blocks :], pixels[n * blocks :])
        frame = frame_payload(np.unpackbits(np.frombuffer(data, dtype=np.uint8)), p)
        for i, m in enumerate(frame.reshape(-1, p)):
            assert np.array_equal(mat_vec_mul(code.parity_check, stego.pixels[n * i : n * i + n] & 1), m)
        assert extract_image(stego, code) == data
        assert np.array_equal(np.packbits(extract_stream(stego.pixels & 1, code)),
                              np.frombuffer(data, dtype=np.uint8))


def test_tables_are_built_once_per_image_call(k5_table, k5_code, monkeypatch):
    calls = []

    def spy(check):
        calls.append((tuple(column_syndromes(check)), len(check)))
        return syndrome_tables(check)

    monkeypatch.setattr(codec, "syndrome_tables", spy)
    monkeypatch.setattr(codec, "CHUNK_BLOCKS", 8)  # 29 chunks each way
    rng = np.random.default_rng(73)
    cover = CoverImage(width=50, height=50, channels=1, depth=8,
                       pixels=rng.integers(0, 256, 2500, dtype=np.uint8), format_tag="pgm")
    data = rng.integers(0, 256, 112, dtype=np.uint8).tobytes()
    columns = tuple(column_syndromes(k5_code.parity_check))
    identity = (8, 4, 2, 1)  # reads each 4-bit leader index from the packed syndromes
    stego, report = embed_image(cover, data, k5_table)
    assert report.blocks_used == 232
    # the same code table as extract, plus the identity table: 4 bits right-aligned in a byte
    assert sorted(calls) == sorted([(columns, 4), (identity, 8)])
    calls.clear()
    assert extract_image(stego, k5_code) == data
    assert calls == [(columns, 4)]


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
