"""The column-syndrome engine against the row-by-row oracle ``mat_vec_mul``.

``block_syndromes`` packs each syndrome into the narrowest unsigned
dtype (several uint64 words above 64 bits); the stream codec walks
blocks ``CHUNK_BLOCKS`` at a time.  Both are checked here against
independent computations: ``mat_vec_mul`` per row, ``embed_block`` per
block.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphstego import codec
from graphstego.codec import embed_block, embed_stream, extract_stream, frame_payload
from graphstego.gf2 import (
    block_syndromes,
    column_syndromes,
    mat_vec_mul,
    syndrome_bits,
    syndrome_index,
)
from graphstego.graphs import build_code, syndrome_of

from helpers import random_graph

WIDTHS = [1, 8, 9, 16, 17, 32, 33, 64, 65]
NARROWEST = {1: np.uint8, 8: np.uint8, 9: np.uint16, 16: np.uint16, 17: np.uint32,
             32: np.uint32, 33: np.uint64, 64: np.uint64}


@settings(max_examples=120, deadline=None)
@given(
    p=st.sampled_from(WIDTHS),
    n=st.integers(1, 40),
    count=st.one_of(st.sampled_from([0, 1]), st.integers(2, 70)),
    seed=st.integers(0, 2**32 - 1),
)
def test_block_syndromes_match_mat_vec_mul(p, n, count, seed):
    rng = np.random.default_rng(seed)
    h = rng.integers(0, 2, (p, n), dtype=np.uint8)
    blocks = rng.integers(0, 2, (count, n), dtype=np.uint8)
    syn = block_syndromes(blocks, column_syndromes(h), p)
    oracle = np.array([mat_vec_mul(h, row) for row in blocks], dtype=np.uint8).reshape(count, p)
    if p <= 64:
        assert syn.shape == (count,) and syn.dtype == NARROWEST[p]
        ints = [int(s) for s in syn]
    else:
        assert syn.shape == (count, 2) and syn.dtype == np.uint64
        ints = [(int(hi) << 64) | int(lo) for hi, lo in syn]
    assert ints == [syndrome_index(row) for row in oracle]
    assert np.array_equal(syndrome_bits(syn, p), oracle)


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
        assert np.array_equal(syndrome_of(code, block), m)
    assert np.array_equal(extract_stream(stego, code), payload)
