from __future__ import annotations

import hashlib
from itertools import combinations

import numpy as np
import pytest

from graphstego.decoder import (
    MAX_SYNDROME_BITS,
    CosetTable,
    TableCacheError,
    TableSizeError,
    _shortest_paths,
    _tjoin_dp,
    build_coset_table_bruteforce,
    build_coset_table_tjoin,
    covering_radius_bruteforce,
    covering_radius_tjoin,
    load_table,
    minimum_t_join,
    save_table,
    syndrome_to_terminals,
)
from graphstego.gf2 import as_bits, index_to_bits, syndrome_index
from graphstego.graphs import build_code, build_graph, complete_graph

from helpers import (
    K5_DOUBLE_EDGE_COSETS,
    K5_DOUBLE_EDGE_EXAMPLES,
    K5_GENERATOR_ROWS,
    K5_SINGLE_EDGE_LEADERS,
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


def test_syndrome_terminals_always_even(k5_code):
    for idx in range(16):
        t = syndrome_to_terminals(k5_code, index_to_bits(idx, 4))
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
        dist, _ = _shortest_paths(g, verts)
        cols = [t - 1 for t in sorted(terminals)]
        assert _tjoin_dp(dist[np.ix_(cols, cols)])[0][-1] == size
        assert _tjoin_dp(dist)[0][sum(1 << c for c in cols)] == size
        cases += 1


def test_tjoin_table_matches_bruteforce(k5_table, k5_table_tjoin, k5_code):
    assert k5_table_tjoin.rho == k5_table.rho == 2
    assert np.array_equal(
        k5_table_tjoin.leaders.sum(axis=1), k5_table.leaders.sum(axis=1)
    )
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
        assert np.array_equal(
            brute.leaders.sum(axis=1), joined.leaders.sum(axis=1)
        )


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
            members = coset_members(code, index_to_bits(idx, p), int(leader.sum()))
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

# (rho, SHA-256 of leaders.tobytes()), recorded with the per-pattern and
# per-syndrome builders that the syndrome-space BFS and the vectorised
# subset DP replaced.
TABLE_DIGESTS = {
    ("bruteforce", "k5"): (2, "89b747838bc12b254769cb9cc85e451911ec05aa5ecede9e3db6c7be682c28d7"),
    ("bruteforce", "gp83"): (8, "125922925933c738e4a7228c2da8e06b2c49933d3936046a5370e9800921fe1e"),
    ("bruteforce", "random_v9_e14"): (4, "de3e1806d616c5526dd943a43e7bd9ddf7c56150d294706fc9d46487e699b880"),
    ("bruteforce", "random_v11_e19"): (5, "f3abbf11488d2b1c0c85a6de9e50dc0440080c6f13b17c20f1f91fc8ab4dae60"),
    ("bruteforce", "random_v13_e22"): (8, "1a9a8ab5a7862674857efd6f397c221ad8d30b4f47b331b57449968235de0582"),
    ("tjoin", "k5"): (2, "6a9ac9b9c615b9348ae2c60acf892ab7f2cbc9c7a9bfcb3636a897e3ba7cc1f5"),
    ("tjoin", "gp83"): (8, "b6f9740e20b4da50771a8a06f0bf7c7227bfd1756587707f87812067aa959ee7"),
    ("tjoin", "c16"): (8, "8dc15dc418ac2afeaef127f018446f034f925344d831fb350491a8123f1264cc"),
    ("tjoin", "random_v9_e14"): (4, "b26b2b0df2a52d370ae8a52757b55916c87afff40173d97daf0d27549d00724b"),
    ("tjoin", "random_v11_e19"): (5, "488d8f767a922b8cb05622a9b1805f97845ff65d3db05077501190d860dd2e48"),
    ("tjoin", "random_v13_e22"): (8, "90131570282fbb9c994ae273192fe108e66771ac843d77f1ffacef0c90a26369"),
}


@pytest.mark.parametrize("builder, name", sorted(TABLE_DIGESTS))
def test_table_golden_digests(builder, name, k5_code):
    code = k5_code if name == "k5" else build_code(TABLE_GRAPHS[name]())
    build = {"bruteforce": build_coset_table_bruteforce, "tjoin": build_coset_table_tjoin}[builder]
    table = build(code)
    assert (table.rho, hashlib.sha256(table.leaders.tobytes()).hexdigest()) == TABLE_DIGESTS[
        builder, name
    ]


def test_table_cache_rejects_non_minimal_leaders(tmp_path, k5_table, k5_code):
    # a codeword added to a leader keeps its syndrome but not its weight
    leaders = k5_table.leaders.copy()
    leaders[3] ^= as_bits(K5_GENERATOR_ROWS[0])
    path = tmp_path / "heavy.table"
    save_table(CosetTable(code=k5_code, leaders=leaders, rho=k5_table.rho), path)
    with pytest.raises(TableCacheError, match="minimum"):
        load_table(path, k5_code)


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
        terminals = syndrome_to_terminals(code, index_to_bits(int(idx), p))
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
