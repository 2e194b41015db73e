"""Acceptance suite: eight go/no-go checks, one test per criterion.

Each test prints a ``PASS criterion N`` line (visible with ``pytest -s``;
``pytest -v`` shows the same verdict per test either way).  Expected
values are frozen literals; cross-checks come from independent oracles
(full-space enumeration, a sequential reference embedder, closed-form
arithmetic), never from the code paths under test.
"""

from __future__ import annotations

import time
from importlib import resources

import numpy as np

from graphstego.codebook import bundled_codebook_text, code_from_codebook
from graphstego.codec import embed_block, embed_stream, extract_block, extract_stream
from graphstego.decoder import (
    build_coset_table_bruteforce,
    build_coset_table_tjoin,
    covering_radius_bruteforce,
    covering_radius_tjoin,
)
from graphstego.gf2 import as_bits
from graphstego.graphs import build_code, complete_graph
from graphstego.images import CoverImage, lsb_extract, lsb_inject, peak_signal_noise

from helpers import (
    K5_CARRIER,
    K5_DOUBLE_EDGE_COSETS,
    K5_DOUBLE_EDGE_EXAMPLES,
    K5_EXAMPLE_FLIP,
    K5_EXAMPLE_KEEP,
    K5_GENERATOR_ROWS,
    K5_PARITY_ROWS,
    K5_SINGLE_EDGE_LEADERS,
    bit_matrix,
    coset_members,
    min_weights_by_syndrome,
    random_connected_graph,
    wheel_graph,
)


def test_criterion_1_reference_code_reconstruction():
    started = time.perf_counter()
    code = code_from_codebook(bundled_codebook_text("k5"))
    assert (code.n_len, code.k, code.d) == (10, 6, 3)
    assert code.tree.tree_edges == (1, 5, 10, 7)
    assert np.array_equal(code.generator, bit_matrix(K5_GENERATOR_ROWS))
    assert np.array_equal(code.parity_check, bit_matrix(K5_PARITY_ROWS))
    rho = covering_radius_bruteforce(build_coset_table_bruteforce(code))
    assert rho == 2
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"PASS criterion 1: reference [10,6,3] code, rho=2, matrices bit-exact ({elapsed:.3f}s)")


def test_criterion_2_reference_coset_table():
    started = time.perf_counter()
    code = code_from_codebook(bundled_codebook_text("k5"))
    table = build_coset_table_bruteforce(code)
    assert not table.leaders[0].any()
    for syndrome, edge in K5_SINGLE_EDGE_LEADERS.items():
        expect = np.zeros(10, dtype=np.uint8)
        expect[edge - 1] = 1
        assert np.array_equal(table.leader(as_bits(syndrome)), expect), syndrome
    for syndrome, pairs in K5_DOUBLE_EDGE_COSETS.items():
        assert coset_members(code, syndrome, weight=2) == pairs, syndrome
        assert K5_DOUBLE_EDGE_EXAMPLES[syndrome] <= pairs, syndrome
        leader = table.leader(as_bits(syndrome))
        chosen = tuple(int(j) + 1 for j in np.nonzero(leader)[0])
        assert chosen == min(sorted(pairs)), syndrome
    weights = table.leaders.sum(axis=1)
    assert (weights == 1).sum() == 10 and (weights == 2).sum() == 5
    assert table.rho == 2
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"PASS criterion 2: all 16 coset-table rows exact, ties lexicographic ({elapsed:.3f}s)")


def test_criterion_3_worked_block_examples():
    started = time.perf_counter()
    code = code_from_codebook(bundled_codebook_text("k5"))
    table = build_coset_table_bruteforce(code)
    t = as_bits(K5_CARRIER)
    for msg, want, flips in (K5_EXAMPLE_KEEP, K5_EXAMPLE_FLIP):
        v, f = embed_block(t, as_bits(msg), table)
        assert np.array_equal(v, as_bits(want))
        assert f == flips
        assert np.array_equal(extract_block(v, code), as_bits(msg))
    elapsed = time.perf_counter() - started
    print(f"PASS criterion 3: worked single-block examples bit-exact ({elapsed:.3f}s)")


def test_criterion_4_builders_agree_everywhere():
    started = time.perf_counter()
    fixed = [
        build_code(complete_graph(3)).graph,
        build_code(complete_graph(4)).graph,
        code_from_codebook(bundled_codebook_text("k5")).graph,
        complete_graph(5),
        complete_graph(6),
        wheel_graph(),
    ]
    rng = np.random.default_rng(20250822)
    graphs = fixed + [random_connected_graph(rng) for _ in range(20)]
    for g in graphs:
        code = build_code(g)
        brute = build_coset_table_bruteforce(code)
        joined = build_coset_table_tjoin(code)
        assert np.array_equal(
            brute.leaders.sum(axis=1), joined.leaders.sum(axis=1)
        ), g
        assert brute.rho == joined.rho == covering_radius_tjoin(g), g
        assert covering_radius_bruteforce(brute) == brute.rho, g
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    print(
        f"PASS criterion 4: exhaustive and T-join builders agree on "
        f"{len(graphs)} graphs ({elapsed:.3f}s)"
    )


def test_criterion_5_protocol_laws_random():
    started = time.perf_counter()
    rng = np.random.default_rng(424242)
    codes = [
        code_from_codebook(bundled_codebook_text("k5")),
        build_code(complete_graph(4)),
        build_code(wheel_graph()),
    ]
    cases = 0
    for code in codes:
        table = build_coset_table_bruteforce(code)
        # independent minimality oracle over the full space (n <= 14)
        assert code.n_len <= 14
        assert np.array_equal(
            table.leaders.sum(axis=1), min_weights_by_syndrome(code)
        )
        n = code.n_len
        p = n - code.k
        for _ in range(400):
            t = rng.integers(0, 2, n, dtype=np.uint8)
            m = rng.integers(0, 2, p, dtype=np.uint8)
            v, flips = embed_block(t, m, table)
            assert flips <= table.rho
            assert int((v ^ t).sum()) == flips
            assert np.array_equal(extract_block(v, code), m)
            cases += 1
    assert cases >= 1000
    elapsed = time.perf_counter() - started
    print(
        f"PASS criterion 5: embed/extract laws on {cases} random blocks, "
        f"leaders minimal by enumeration ({elapsed:.3f}s)"
    )


def test_criterion_6_image_pipeline_end_to_end():
    started = time.perf_counter()
    code = code_from_codebook(bundled_codebook_text("k5"))
    table = build_coset_table_bruteforce(code)
    rng = np.random.default_rng(90125)
    pixels = rng.integers(0, 256, size=256 * 256, dtype=np.uint8)
    cover = CoverImage(
        width=256, height=256, channels=1, depth=8,
        pixels=pixels, format_tag="pgm",
    )
    payload = rng.integers(0, 256, size=1024, dtype=np.uint8).tobytes()
    payload_bits = np.unpackbits(np.frombuffer(payload, dtype=np.uint8))
    stego_bits, report = embed_stream(lsb_extract(cover), payload_bits, table)
    stego = lsb_inject(cover, stego_bits)
    recovered = extract_stream(lsb_extract(stego), code)
    assert np.packbits(recovered).tobytes() == payload
    diff = cover.pixels.astype(np.int16) - stego.pixels.astype(np.int16)
    assert np.isin(np.abs(diff), (0, 1)).all()  # LSB plane only
    assert int((diff != 0).sum()) == report.total_flips
    assert report.max_flips_per_block <= table.rho == 2
    psnr = peak_signal_noise(cover, stego)
    assert psnr is not None and psnr > 48.0  # measured ~51.4 dB at this seed
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    print(
        f"PASS criterion 6: 1 KiB through a 256x256 cover, "
        f"PSNR {psnr:.2f} dB, {report.total_flips} flips ({elapsed:.3f}s)"
    )


def test_criterion_7_published_figures_reproduced():
    started = time.perf_counter()
    text = (
        resources.files("graphstego.data")
        .joinpath("reference_protocols.tsv")
        .read_text("utf-8")
    )
    rows = 0
    for ln in text.splitlines():
        ln = ln.strip()
        if not ln or ln.startswith("#") or ln.startswith("n\t"):
            continue
        n_txt, _d, _family, k_txt, rho_txt, er_txt, ef_txt = ln.split("\t")
        n_len, hidden = int(n_txt), int(k_txt)
        rhos = [int(x) for x in rho_txt.split("-")]
        efs = [float(x) for x in ef_txt.split("-")]
        assert len(rhos) == len(efs)
        assert abs(hidden / n_len - float(er_txt)) <= 0.01 + 1e-9, ln
        for r, ef in zip(rhos, efs):
            assert abs(hidden / r - ef) <= 0.01 + 1e-9, ln
        rows += 1
    assert rows == 48
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(
        f"PASS criterion 7: all {rows} published rate/efficiency figures "
        f"reproduced within +/-0.01 ({elapsed:.3f}s)"
    )


def test_criterion_8_complete_graph_family():
    started = time.perf_counter()
    for q in (3, 4, 5, 6, 7):
        code = build_code(complete_graph(q))
        assert code.n_len == q * (q - 1) // 2
        assert code.k == (q - 1) * (q - 2) // 2
        assert code.d == 3
        assert code.n_len - code.k == q - 1
    elapsed = time.perf_counter() - started
    print(
        f"PASS criterion 8: complete-graph family parameters "
        f"[q(q-1)/2, (q-1)(q-2)/2, 3] for q=3..7 ({elapsed:.3f}s)"
    )
