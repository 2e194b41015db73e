from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tracemalloc
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from graphstego.codebook import format_codebook
from graphstego.decoder import (
    MAX_SYNDROME_BITS,
    CosetTable,
    TableCacheError,
    TableSizeError,
    _all_pairs,
    _coset_layers,
    _table_from_weights,
    _tjoin_layers,
    _weights,
    build_coset_table_bruteforce,
    build_coset_table_tjoin,
    covering_radius_bruteforce,
    covering_radius_tjoin,
    load_table,
    minimum_t_join,
    save_table,
    syndrome_to_terminals,
)
from graphstego.gf2 import as_bits, syndrome_index
from graphstego.graphs import build_code, build_graph, complete_graph

from helpers import (
    K5_DOUBLE_EDGE_COSETS,
    K5_DOUBLE_EDGE_EXAMPLES,
    K5_GENERATOR_ROWS,
    K5_SINGLE_EDGE_LEADERS,
    all_words,
    boundary_of,
    brute_min_tjoin_size,
    coset_members,
    min_weights_by_syndrome,
    random_connected_graph,
    random_graph,
    wheel_graph,
)


def triangle_code():
    return build_code(build_graph(3, [(1, 2), (2, 3), (1, 3)]))


def test_triangle_table_by_hand():
    # BFS tree {e1, e3}, so H = [[1,1,0],[0,1,1]]: columns read 10, 11, 01
    table = build_coset_table_bruteforce(triangle_code())
    assert table.rho == 1
    assert table.leaders[0].tolist() == [0, 0, 0]
    assert table.leaders[syndrome_index("10")].tolist() == [1, 0, 0]
    assert table.leaders[syndrome_index("11")].tolist() == [0, 1, 0]
    assert table.leaders[syndrome_index("01")].tolist() == [0, 0, 1]


def test_reference_single_edge_rows(k5_table):
    # ten syndromes decode to exactly one flipped edge
    for syndrome, edge in K5_SINGLE_EDGE_LEADERS.items():
        leader = k5_table.leader(as_bits(syndrome))
        expect = np.zeros(10, dtype=np.uint8)
        expect[edge - 1] = 1
        assert np.array_equal(leader, expect), syndrome


def test_reference_double_edge_rows(k5_table, k5_code):
    # five syndromes need two flips; the frozen three-member candidate
    # sets are the complete minimum-weight cosets, the tabulated
    # example pairs sit inside them, and the table picks the
    # lexicographically least member
    for syndrome, pairs in K5_DOUBLE_EDGE_COSETS.items():
        candidates = coset_members(k5_code, syndrome, weight=2)
        assert candidates == pairs, syndrome
        assert K5_DOUBLE_EDGE_EXAMPLES[syndrome] <= pairs, syndrome
        leader = k5_table.leader(as_bits(syndrome))
        chosen = tuple(int(j) + 1 for j in np.nonzero(leader)[0])
        assert chosen == min(sorted(pairs)), syndrome


def test_reference_table_shape_and_weights(k5_table):
    assert k5_table.leaders.shape == (16, 10)
    weights = k5_table.leaders.sum(axis=1)
    assert weights[0] == 0
    assert (weights == 1).sum() == 10
    assert (weights == 2).sum() == 5
    assert k5_table.rho == 2
    assert covering_radius_bruteforce(k5_table) == 2


def test_leader_accepts_bits_or_index(k5_table):
    by_bits = k5_table.leader(as_bits("0101"))
    by_index = k5_table.leader(5)
    assert np.array_equal(by_bits, by_index)
    with pytest.raises(ValueError):
        k5_table.leader(16)
    with pytest.raises(ValueError):
        k5_table.leader(as_bits("01011"))


def test_bruteforce_minimality_against_enumeration():
    rng = np.random.default_rng(67)
    for _ in range(10):
        code = build_code(random_connected_graph(rng))
        if code.n_len > 14:
            continue
        table = build_coset_table_bruteforce(code)
        assert np.array_equal(
            table.leaders.sum(axis=1), min_weights_by_syndrome(code)
        )


def ring(length: int):
    return build_graph(length, [(i, i % length + 1) for i in range(1, length + 1)])


def test_bruteforce_refuses_oversized_codes():
    code = build_code(ring(22))  # p = 21, one over MAX_SYNDROME_BITS
    assert code.n_len - code.k == MAX_SYNDROME_BITS + 1
    with pytest.raises(TableSizeError):
        build_coset_table_bruteforce(code)
    with pytest.raises(TableSizeError):
        build_coset_table_tjoin(code)


def test_syndrome_to_terminals_reference(k5_code):
    # syndrome bits follow tree order e1, e5, e10, e7
    assert syndrome_to_terminals(k5_code, "0000") == frozenset()
    assert syndrome_to_terminals(k5_code, "1000") == {1, 2}  # e1 = 1-2
    assert syndrome_to_terminals(k5_code, "0110") == {2, 4}  # e5, e10 share 3
    assert syndrome_to_terminals(k5_code, "1111") == {1, 5}  # whole path
    with pytest.raises(ValueError):
        syndrome_to_terminals(k5_code, "101")


def test_syndrome_to_terminals_is_the_tree_edges_boundary():
    # 70 vertices: the terminal masks outgrow any fixed-width integer
    code = build_code(random_graph(np.random.default_rng(7001), 70, 90))
    p = code.n_len - code.k
    rng = np.random.default_rng(7002)
    for _ in range(50):
        syndrome = rng.integers(0, 2, p, dtype=np.uint8)
        word = np.zeros(code.n_len, dtype=np.uint8)
        word[np.array(code.tree.tree_edges) - 1] = syndrome
        assert syndrome_to_terminals(code, syndrome) == boundary_of(code.graph, word)


def test_syndrome_terminals_always_even(k5_code):
    for idx in range(16):
        t = syndrome_to_terminals(k5_code, f"{idx:04b}")
        assert len(t) % 2 == 0


def test_minimum_t_join_basics(k5_code):
    g = k5_code.graph
    assert not minimum_t_join(g, frozenset()).any()
    # adjacent pair: the edge itself
    join = minimum_t_join(g, {1, 2})
    assert join.tolist() == [1, 0, 0, 0, 0, 0, 0, 0, 0, 0]
    # terminals of syndrome 1111 = {1, 5}: single edge e3
    join = minimum_t_join(g, {1, 5})
    assert join.tolist() == [0, 0, 1, 0, 0, 0, 0, 0, 0, 0]
    with pytest.raises(ValueError):
        minimum_t_join(g, {1, 2, 3})
    with pytest.raises(ValueError):
        minimum_t_join(g, {0, 1})


def test_minimum_t_join_against_enumeration():
    rng = np.random.default_rng(131)
    cases = 0
    while cases < 25:
        g = random_connected_graph(rng)
        if g.edge_count > 12:
            continue
        verts = list(range(1, g.vertex_count + 1))
        size = 2 * int(rng.integers(1, len(verts) // 2 + 1))
        terminals = frozenset(
            int(v) for v in rng.choice(verts, size=size, replace=False)
        )
        join = minimum_t_join(g, terminals)
        size = brute_min_tjoin_size(g, terminals)
        assert boundary_of(g, join) == terminals
        assert int(join.sum()) == size
        # the subset DP, over the terminals alone and over all vertices
        dist = _all_pairs(g)
        cols = [t - 1 for t in sorted(terminals)]
        among = _tjoin_layers([[dist[a][b] for b in cols] for a in cols])
        assert among[size] >> ((1 << len(cols)) - 1) & 1
        assert _tjoin_layers(dist)[size] >> sum(1 << c for c in cols) & 1
        cases += 1


def test_tjoin_table_matches_bruteforce(k5_table, k5_table_tjoin, k5_code):
    assert k5_table_tjoin.rho == k5_table.rho == 2
    assert np.array_equal(k5_table_tjoin.leaders, k5_table.leaders)
    # every leader sits in its own coset
    for idx in range(16):
        syn = (k5_code.parity_check.astype(int) @ k5_table_tjoin.leaders[idx]) % 2
        assert syndrome_index(syn.astype(np.uint8)) == idx


def test_builders_agree_on_random_graphs():
    rng = np.random.default_rng(201)
    for _ in range(10):
        code = build_code(random_connected_graph(rng))
        brute = build_coset_table_bruteforce(code)
        joined = build_coset_table_tjoin(code)
        assert brute.rho == joined.rho
        assert np.array_equal(brute.leaders, joined.leaders)


def test_covering_radius_known_values(k5_code):
    assert covering_radius_tjoin(k5_code.graph) == 2
    assert covering_radius_tjoin(complete_graph(3)) == 1
    assert covering_radius_tjoin(complete_graph(4)) == 2
    # K6: T = all six vertices needs a perfect matching, three edges
    assert covering_radius_tjoin(complete_graph(6)) == 3
    assert covering_radius_tjoin(wheel_graph()) == build_coset_table_bruteforce(
        build_code(wheel_graph())
    ).rho


def test_covering_radius_refuses_oversized_graphs():
    assert covering_radius_tjoin(ring(17)) == 8  # p = 16
    with pytest.raises(TableSizeError):
        covering_radius_tjoin(ring(22))  # p = 21


def test_table_cache_roundtrip(tmp_path, k5_table, k5_code):
    path = tmp_path / "k5.table"
    save_table(k5_table, path)
    loaded = load_table(path, k5_code)
    assert isinstance(loaded, CosetTable)
    assert loaded.rho == k5_table.rho
    assert np.array_equal(loaded.leaders, k5_table.leaders)


def test_table_cache_header_layout(tmp_path, k5_table):
    path = tmp_path / "k5.table"
    save_table(k5_table, path)
    blob = path.read_bytes()
    assert blob[:8] == b"GCTABLE1"
    assert int.from_bytes(blob[8:12], "big") == 16
    assert len(blob) == 12 + 16 * 2  # ceil(10/8) = 2 bytes per leader
    # leader bytes pack bit 0 of byte 0 = edge 1
    row = k5_table.leader(as_bits("1000"))  # single flip of edge 1
    idx = syndrome_index(as_bits("1000"))
    assert blob[12 + 2 * idx] == 1 and blob[12 + 2 * idx + 1] == 0


def test_table_cache_rejects_garbage(tmp_path, k5_code, k5_table):
    bad = tmp_path / "bad.table"
    bad.write_bytes(b"NOTMAGIC" + b"\x00" * 40)
    with pytest.raises(TableCacheError):
        load_table(bad, k5_code)
    short = tmp_path / "short.table"
    save_table(k5_table, short)
    short.write_bytes(short.read_bytes()[:-3])
    with pytest.raises(TableCacheError):
        load_table(short, k5_code)
    with pytest.raises(TableSizeError):  # p = 21: no table was ever written for it
        load_table(short, build_code(ring(22)))


def test_table_cache_rejects_wrong_code(tmp_path, k5_code):
    # same table shape (16 syndromes x 10 bits) but the canonical edge
    # labeling: recomputed syndromes cannot all line up
    other = build_coset_table_bruteforce(build_code(complete_graph(5)))
    path = tmp_path / "other.table"
    save_table(other, path)
    with pytest.raises(TableCacheError):
        load_table(path, k5_code)
    ring = build_graph(5, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1)])
    tiny = build_coset_table_bruteforce(build_code(ring))
    tiny_path = tmp_path / "tiny.table"
    save_table(tiny, tiny_path)
    with pytest.raises(TableCacheError):
        load_table(tiny_path, k5_code)  # wrong syndrome count


def test_bruteforce_picks_the_lexicographically_least_leader():
    rng = np.random.default_rng(307)
    for vertices, edges in ((5, 9), (6, 11), (7, 12), (8, 13), (9, 14)):
        code = build_code(random_graph(rng, vertices, edges))
        p = code.n_len - code.k
        table = build_coset_table_bruteforce(code)
        for idx in range(1 << p):
            leader = table.leaders[idx]
            members = coset_members(code, f"{idx:0{p}b}", int(leader.sum()))
            chosen = tuple(int(j) + 1 for j in np.nonzero(leader)[0])
            assert chosen == min(sorted(members)), (vertices, idx)


def _generalized_petersen_8_3():
    edges = []
    for i in range(8):
        edges += [(i + 1, (i + 1) % 8 + 1), (i + 1, i + 9), (i + 9, (i + 3) % 8 + 9)]
    return build_graph(16, edges)


def _circulant_16_1_3():
    edges = []
    for i in range(16):
        edges += [(i + 1, (i + 1) % 16 + 1), (i + 1, (i + 3) % 16 + 1)]
    return build_graph(16, edges)


TABLE_GRAPHS = {
    "gp83": _generalized_petersen_8_3,
    "c16": _circulant_16_1_3,
    "random_v9_e14": lambda: random_graph(np.random.default_rng(8101), 9, 14),
    "random_v11_e19": lambda: random_graph(np.random.default_rng(8102), 11, 19),
    "random_v13_e22": lambda: random_graph(np.random.default_rng(8103), 13, 22),
}

# (rho, SHA-256 of leaders.tobytes()) of the exhaustive tables, recorded
# with the per-pattern builder that the syndrome-space BFS replaced (c16
# with the BFS builder).  The T-join builder must give the same bytes
# (test_builders_give_identical_tables).
TABLE_DIGESTS = {
    ("bruteforce", "k5"): (2, "89b747838bc12b254769cb9cc85e451911ec05aa5ecede9e3db6c7be682c28d7"),
    ("bruteforce", "gp83"): (8, "125922925933c738e4a7228c2da8e06b2c49933d3936046a5370e9800921fe1e"),
    ("bruteforce", "c16"): (8, "e2f6b75a47a4b233dd79260c030fca9d06bfedf3e7af8132df450bf7840ae7d0"),
    ("bruteforce", "random_v9_e14"): (4, "de3e1806d616c5526dd943a43e7bd9ddf7c56150d294706fc9d46487e699b880"),
    ("bruteforce", "random_v11_e19"): (5, "f3abbf11488d2b1c0c85a6de9e50dc0440080c6f13b17c20f1f91fc8ab4dae60"),
    ("bruteforce", "random_v13_e22"): (8, "1a9a8ab5a7862674857efd6f397c221ad8d30b4f47b331b57449968235de0582"),
}


def table_code(name, k5_code):
    return k5_code if name == "k5" else build_code(TABLE_GRAPHS[name]())


@pytest.mark.parametrize("builder, name", sorted(TABLE_DIGESTS))
def test_table_golden_digests(builder, name, k5_code):
    table = build_coset_table_bruteforce(table_code(name, k5_code))
    assert (table.rho, hashlib.sha256(table.leaders.tobytes()).hexdigest()) == TABLE_DIGESTS[
        builder, name
    ]


@pytest.mark.parametrize("name", ["k5", *TABLE_GRAPHS])
def test_builders_give_identical_tables(name, k5_code):
    code = table_code(name, k5_code)
    brute = build_coset_table_bruteforce(code)
    joined = build_coset_table_tjoin(code)
    assert joined.rho == brute.rho
    assert joined.leaders.tobytes() == brute.leaders.tobytes()


@pytest.mark.parametrize("name", ["k5", "gp83"])
@pytest.mark.parametrize("mutation", ["raised", "lowered", "all_zero", "zero_syndrome"])
def test_fill_rejects_wrong_weights(name, mutation, k5_code):
    code = table_code(name, k5_code)
    dist = _weights(_coset_layers(code), code.n_len - code.k)
    assert _table_from_weights(code, dist).rho == dist.max()
    bad = dist.copy()
    if mutation == "raised":
        bad[np.flatnonzero(dist == 1)[0]] = 2  # one flip already reaches it
    elif mutation == "lowered":
        bad[np.flatnonzero(dist == dist.max())[-1]] -= 1  # no neighbour one lighter
    elif mutation == "all_zero":
        bad[:] = 0  # no weight layer left to check
    else:
        bad[0] = 1
    with pytest.raises(AssertionError):
        _table_from_weights(code, bad)


@pytest.mark.parametrize("build", [build_coset_table_bruteforce, build_coset_table_tjoin])
def test_table_build_peak_memory(build):
    # p = 17, n = 30: the 3.9 MB leader table dominates either build
    code = build_code(random_graph(np.random.default_rng(1801), 18, 30))
    tracemalloc.start()
    try:
        table = build(code)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * table.leaders.nbytes, peak / table.leaders.nbytes


def test_table_cache_rejects_non_minimal_leaders(tmp_path, k5_table, k5_code):
    # a codeword added to a leader keeps its syndrome but not its weight
    rows = bytearray(k5_table.rows)
    codeword = int(K5_GENERATOR_ROWS[0][::-1], 2)  # bit j for edge j+1
    rows[6:8] = (int.from_bytes(rows[6:8], "little") ^ codeword).to_bytes(2, "little")  # row 3
    path = tmp_path / "heavy.table"
    save_table(CosetTable(code=k5_code, rows=bytes(rows), rho=k5_table.rho), path)
    with pytest.raises(TableCacheError, match="minimum"):
        load_table(path, k5_code)


def test_table_radius_reads_the_rows_not_rho(k5_table, k5_code):
    # an independent read: a wrong rho beside the rows does not change it
    assert covering_radius_bruteforce(CosetTable(code=k5_code, rows=k5_table.rows, rho=5)) == 2


def _flipped(blob: bytes, row: int, bit: int, size: int) -> bytes:
    """A cache with bit ``bit`` of row ``row`` flipped; bit 0 of a row's byte 0 is edge 1."""
    out = bytearray(blob)
    out[12 + row * size + bit // 8] ^= 1 << bit % 8
    return bytes(out)


def test_table_cache_rejects_set_padding_bits(tmp_path, k5_table, k5_code):
    # n = 10: bits 2-7 of each row's second byte lie past the last edge
    path = tmp_path / "k5.table"
    save_table(k5_table, path)
    blob = path.read_bytes()
    for row in range(16):
        for bit in range(10, 16):
            path.write_bytes(_flipped(blob, row, bit, 2))
            with pytest.raises(TableCacheError, match="past edge 10"):
                load_table(path, k5_code)


def test_table_cache_rejects_every_single_edge_flip(tmp_path, k5_table, k5_code):
    # each of the 16 x 10 flips moves its row into another coset
    path = tmp_path / "k5.table"
    save_table(k5_table, path)
    blob = path.read_bytes()
    rejected = 0
    for row in range(16):
        for bit in range(10):
            path.write_bytes(_flipped(blob, row, bit, 2))
            with pytest.raises(TableCacheError, match="does not match"):
                load_table(path, k5_code)
            rejected += 1
    assert rejected == 160


def _cache_codes():
    rng = np.random.default_rng(2201)
    randoms = {f"random_v{v}_e{e}": random_graph(rng, v, e)
               for v, e in ((4, 6), (6, 9), (8, 14), (10, 17), (12, 19), (13, 21))}
    graphs = {**{f"K{q}": complete_graph(q) for q in range(3, 8)},
              "petersen": _petersen(), "ring16": ring(16), **randoms}
    return {name: build_code(g) for name, g in graphs.items()}


@pytest.mark.parametrize("build", [build_coset_table_bruteforce, build_coset_table_tjoin])
def test_table_cache_roundtrip_keeps_rows_leaders_and_rho(tmp_path, build):
    for name, code in _cache_codes().items():
        assert code.n_len - code.k <= (15 if name == "ring16" else 12), name
        table = build(code)
        path = tmp_path / f"{name}.table"
        save_table(table, path)
        loaded = load_table(path, code)
        assert loaded.rows == table.rows, name
        assert loaded.rho == table.rho == covering_radius_bruteforce(loaded), name
        assert loaded.leaders.tobytes() == table.leaders.tobytes(), name
        assert not loaded.leaders.flags.writeable


# SHA-256 of save_table's output, recorded before tables kept packed rows:
# a cache written then and one written now are the same bytes
CACHE_DIGESTS = {
    "k5": "c06d692c1c23db158dd296c1fc9c69a8692c7cf0455beef144fa1662ee3a76f7",
    "K5": "6f31e60cac89c3bf0c0d69954b9427fe6e55d53970e79d6f05c97c9dcc5ecf15",
    "gp83": "c622bf559e9d8c06b8ddb8e35be8edd53101eef8b36d8b785073a42b49dda9a0",
}


@pytest.mark.parametrize("build", [build_coset_table_bruteforce, build_coset_table_tjoin])
@pytest.mark.parametrize("name", sorted(CACHE_DIGESTS))
def test_table_cache_golden_bytes(tmp_path, name, build, k5_code):
    code = build_code(complete_graph(5)) if name == "K5" else table_code(name, k5_code)
    path = tmp_path / f"{name}.table"
    save_table(build(code), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == CACHE_DIGESTS[name]
    assert load_table(path, code).rho == (8 if name == "gp83" else 2)


def test_the_cache_and_the_table_radius_load_no_numpy(tmp_path):
    # a cache written beforehand is loaded and checked, and both radii read,
    # in plain Python; numpy loads when the leader matrix is first read
    code = build_code(_circulant_16_1_3())
    codebook, cache = tmp_path / "c16.gc", tmp_path / "c16.table"
    codebook.write_text(format_codebook(code.graph, code.tree.tree_edges), "utf-8")
    save_table(build_coset_table_tjoin(code), cache)
    script = """
import sys
from pathlib import Path
from graphstego import code_from_codebook, covering_radius_bruteforce, covering_radius_tjoin
from graphstego import load_table
code = code_from_codebook(Path(sys.argv[1]).read_text("utf-8"))
table = load_table(sys.argv[2], code)
rhos = (table.rho, covering_radius_bruteforce(table), covering_radius_tjoin(code.graph))
assert rhos == (8, 8, 8), rhos
assert "numpy" not in sys.modules
assert table.leaders.shape == (1 << 15, 32)
assert "numpy" in sys.modules, "the check above sees numpy when it loads"
"""
    root = Path(__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", script, str(codebook), str(cache)],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=120,
    )
    assert (run.returncode, run.stderr) == (0, "")


def test_tjoin_table_against_networkx_matching():
    # above both enumeration limits: 18 vertices, p = 17, n = 30
    import networkx as nx

    code = build_code(random_graph(np.random.default_rng(1801), 18, 30))
    p = code.n_len - code.k
    table = build_coset_table_tjoin(code)
    graph = nx.Graph((u, v) for _, u, v in code.graph.edges)
    hops = dict(nx.all_pairs_shortest_path_length(graph))
    rng = np.random.default_rng(1802)
    for idx in rng.choice(1 << p, size=200, replace=False):
        terminals = syndrome_to_terminals(code, f"{idx:0{p}b}")
        closure = nx.Graph()
        closure.add_weighted_edges_from(
            (a, b, hops[a][b]) for a, b in combinations(sorted(terminals), 2)
        )
        cost = sum(hops[a][b] for a, b in nx.min_weight_matching(closure))
        leader = table.leaders[idx]
        assert boundary_of(code.graph, leader) == terminals
        assert int(leader.sum()) == cost, int(idx)


def test_bruteforce_radius_of_a_code_without_its_table():
    rng = np.random.default_rng(211)
    for _ in range(10):
        code = build_code(random_connected_graph(rng))
        rho = covering_radius_bruteforce(code)
        assert rho == covering_radius_bruteforce(build_coset_table_bruteforce(code))
        assert rho == int(min_weights_by_syndrome(code).max())
    assert covering_radius_bruteforce(build_code(ring(17))) == 8  # p = 16
    with pytest.raises(TableSizeError):
        covering_radius_bruteforce(build_code(ring(22)))  # p = 21


def _petersen():
    """GP(5,2): outer 5-cycle 1..5, spokes, inner pentagram 6..10."""
    outer = [(i, i % 5 + 1) for i in range(1, 6)]
    spokes = [(i, i + 5) for i in range(1, 6)]
    inner = [(i + 5, (i + 1) % 5 + 6) for i in range(1, 6)]
    return build_graph(10, outer + spokes + inner)


# every code of n <= 16 edges that the suite builds, default and pinned trees
ENUMERATED_CODES = {
    **{f"K{q}": (lambda q=q: build_code(complete_graph(q))) for q in (3, 4, 5, 6)},
    "petersen": lambda: build_code(_petersen()),
    "wheel": lambda: build_code(wheel_graph()),
    "ring5": lambda: build_code(ring(5)),
    "ring16": lambda: build_code(ring(16)),
    # path 1-2-3-4-5-6 in shuffled row order
    "K6_pinned_path": lambda: build_code(complete_graph(6), [10, 1, 15, 6, 13]),
    # outer path 1-2-3-4-5 plus every spoke, shuffled
    "petersen_pinned": lambda: build_code(_petersen(), [7, 3, 10, 1, 6, 4, 9, 2, 8]),
}


@pytest.mark.parametrize("name", ["k5_reference", *ENUMERATED_CODES])
def test_coset_layers_equal_enumeration_of_every_word(name, k5_code):
    # every one of the 2^n words, its syndrome read by syndrome_index
    code = k5_code if name == "k5_reference" else ENUMERATED_CODES[name]()
    n, p = code.n_len, code.n_len - code.k
    assert n <= 16
    words = all_words(n)
    syndromes = (words.astype(np.int64) @ code.parity_check.T.astype(np.int64)) & 1
    distinct, where = np.unique(syndromes.astype(np.uint8), axis=0, return_inverse=True)
    index = np.array([syndrome_index(s) for s in distinct])[where.reshape(-1)]
    best = np.full(1 << p, n + 1, dtype=np.int64)
    np.minimum.at(best, index, words.sum(axis=1, dtype=np.int64))
    want = [int.from_bytes(np.packbits(best == w, bitorder="little").tobytes(), "little")
            for w in range(int(best.max()) + 1)]
    assert _coset_layers(code) == want
    assert covering_radius_bruteforce(code) == len(want) - 1


def test_tjoin_layers_equal_networkx_matching_of_every_even_set():
    import networkx as nx

    rng = np.random.default_rng(9301)
    for v in (3, 4, 5, 6, 7, 8, 9, 10, 10):
        g = random_graph(rng, v, int(rng.integers(v - 1, v * (v - 1) // 2 + 1)))
        hops = dict(nx.all_pairs_shortest_path_length(nx.Graph((a, b) for _, a, b in g.edges)))
        by_weight: dict[int, int] = {}
        for mask in range(1 << v):
            terminals = [i + 1 for i in range(v) if mask >> i & 1]
            if len(terminals) % 2:
                continue
            closure = nx.Graph()
            closure.add_weighted_edges_from(
                (a, b, hops[a][b]) for a, b in combinations(terminals, 2)
            )
            cost = sum(hops[a][b] for a, b in nx.min_weight_matching(closure))
            by_weight[cost] = by_weight.get(cost, 0) | 1 << mask
        want = [by_weight[w] for w in range(max(by_weight) + 1)]
        assert _tjoin_layers(_all_pairs(g)) == want, g
        assert covering_radius_tjoin(g) == len(want) - 1
