from __future__ import annotations

import hashlib

import numpy as np
import pytest

from graphstego.codec import extract_block
from graphstego import graphs
from graphstego.graphs import (
    GraphError,
    build_code,
    build_graph,
    code_report,
    complete_graph,
    girth,
    spanning_tree,
    spanning_tree_from_ids,
)

from helpers import (
    K5_GENERATOR_ROWS,
    K5_PARITY_ROWS,
    all_words,
    bit_matrix,
    boundary_of,
    random_connected_graph,
    random_graph,
    wheel_graph,
)


def test_build_graph_validates():
    g = build_graph(3, [(1, 2), (2, 3), (1, 3)])
    assert g.edge_count == 3
    with pytest.raises(GraphError):
        build_graph(3, [(1, 1)])  # self-loop
    with pytest.raises(GraphError):
        build_graph(3, [(1, 2), (2, 1), (2, 3)])  # parallel edge
    with pytest.raises(GraphError):
        build_graph(3, [(1, 4)])  # vertex out of range
    with pytest.raises(GraphError):
        build_graph(4, [(1, 2), (3, 4)])  # disconnected
    with pytest.raises(GraphError):
        build_graph(0, [])


def test_complete_graph_canonical_order():
    g = complete_graph(4)
    assert g.edges == (
        (1, 1, 2), (2, 1, 3), (3, 1, 4), (4, 2, 3), (5, 2, 4), (6, 3, 4)
    )
    assert complete_graph(5).edge_count == 10
    with pytest.raises(GraphError):
        complete_graph(1)


def test_default_tree_is_bfs_star_on_complete_graphs():
    # every vertex of K_q neighbors vertex 1, so BFS from 1 takes
    # exactly the q-1 edges at vertex 1
    g = complete_graph(5)
    t = spanning_tree(g)
    assert t.tree_edges == (1, 2, 3, 4)
    assert t.chords == (5, 6, 7, 8, 9, 10)


def test_explicit_tree_keeps_order(k5_code):
    assert k5_code.tree.tree_edges == (1, 5, 10, 7)
    assert k5_code.tree.chords == (2, 3, 4, 6, 8, 9)
    # restricted to tree columns, H is the identity in row order
    cols = [eid - 1 for eid in k5_code.tree.tree_edges]
    assert np.array_equal(
        k5_code.parity_check[:, cols], np.eye(4, dtype=np.uint8)
    )


def test_explicit_tree_rejects_non_trees():
    g = complete_graph(4)
    with pytest.raises(GraphError):
        spanning_tree_from_ids(g, [1, 2])  # wrong count
    with pytest.raises(GraphError):
        spanning_tree_from_ids(g, [1, 1, 2])  # duplicate
    with pytest.raises(GraphError):
        spanning_tree_from_ids(g, [1, 2, 99])  # unknown id
    with pytest.raises(GraphError):
        spanning_tree_from_ids(g, [4, 5, 6])  # triangle 2-3-4, not spanning


def test_triangle_fundamental_matrices():
    g = build_graph(3, [(1, 2), (2, 3), (1, 3)])
    t = spanning_tree(g)
    # BFS from vertex 1 reaches both neighbors directly: tree {e1, e3}
    assert t.tree_edges == (1, 3)
    assert t.chords == (2,)
    code = build_code(g, t)
    assert code.generator.tolist() == [[1, 1, 1]]
    assert code.parity_check.tolist() == [[1, 1, 0], [0, 1, 1]]


def test_reference_matrices_bit_exact(k5_code):
    assert np.array_equal(k5_code.generator, bit_matrix(K5_GENERATOR_ROWS))
    assert np.array_equal(k5_code.parity_check, bit_matrix(K5_PARITY_ROWS))


def test_circuit_rows_are_even_degree_everywhere(k5_code):
    # every generator row is a disjoint union of cycles
    for row in k5_code.generator:
        assert boundary_of(k5_code.graph, row) == frozenset()


def test_matrices_orthogonal_on_random_graphs():
    rng = np.random.default_rng(41)
    for _ in range(30):
        g = random_connected_graph(rng)
        code = build_code(g)
        prod = (code.generator.astype(int) @ code.parity_check.T.astype(int)) % 2
        assert not prod.any()
        # identity blocks in row order: full rank, and syndrome bit i is tree edge i
        chords = [eid - 1 for eid in code.tree.chords]
        assert np.array_equal(code.generator[:, chords], np.eye(code.k, dtype=np.uint8))
        cols = [eid - 1 for eid in code.tree.tree_edges]
        assert np.array_equal(
            code.parity_check[:, cols],
            np.eye(g.vertex_count - 1, dtype=np.uint8),
        )


@pytest.mark.parametrize("make", [
    lambda: complete_graph(5),
    lambda: random_graph(np.random.default_rng(65), 70, 84),  # p = 69: packed syndromes only
], ids=["K5", "random70"])
def test_build_code_rejects_a_circuit_off_the_cut_sets(make, monkeypatch):
    real = graphs._fundamental_matrices

    def flip_a_tree_bit(g, tree):
        # one generator bit flipped on a tree column breaks G H^T = 0 in that row
        gen, chk = real(g, tree)
        return [gen[0] ^ 1 << (tree.tree_edges[0] - 1), *gen[1:]], chk

    def swap_check_rows(g, tree):
        # the same code and ranks, but syndrome bits 0 and 1 no longer follow the tree order
        gen, chk = real(g, tree)
        return gen, [chk[1], chk[0], *chk[2:]]

    def swap_circuit_rows(g, tree):
        # the same code and ranks, but circuits 0 and 1 no longer follow the chord order
        gen, chk = real(g, tree)
        return [gen[1], gen[0], *gen[2:]], chk

    g = make()
    for broken, message in ((flip_a_tree_bit, "orthogonality"), (swap_check_rows, "tree columns"),
                            (swap_circuit_rows, "chord columns")):
        monkeypatch.setattr(graphs, "_fundamental_matrices", broken)
        with pytest.raises(GraphError, match=message):
            build_code(g)


def test_girth():
    assert girth(complete_graph(5)) == 3
    ring = build_graph(5, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1)])
    assert girth(ring) == 5
    path = build_graph(3, [(1, 2), (2, 3)])
    assert girth(path) is None
    assert girth(wheel_graph()) == 3


def test_build_code_parameters():
    code = build_code(complete_graph(6))
    assert (code.n_len, code.k, code.d) == (15, 10, 3)
    tri = build_code(build_graph(3, [(1, 2), (2, 3), (1, 3)]))
    assert (tri.n_len, tri.k, tri.d) == (3, 1, 3)
    with pytest.raises(GraphError):
        build_code(build_graph(3, [(1, 2), (2, 3)]))  # tree: no cycles


def test_complete_graph_parameter_family():
    # [q(q-1)/2, (q-1)(q-2)/2, 3] for q >= 3
    for q in (3, 4, 5, 6, 7):
        code = build_code(complete_graph(q))
        assert code.n_len == q * (q - 1) // 2
        assert code.k == (q - 1) * (q - 2) // 2
        assert code.d == 3


def test_min_distance_equals_girth_by_enumeration():
    rng = np.random.default_rng(97)
    for _ in range(12):
        g = random_connected_graph(rng)
        code = build_code(g)
        if code.k > 10:
            continue
        msgs = all_words(code.k)
        words = (msgs.astype(int) @ code.generator.astype(int)) % 2
        weights = words.sum(axis=1)
        assert int(weights[weights > 0].min()) == code.d == girth(g)


def test_codewords_have_zero_syndrome(k5_code):
    msgs = all_words(k5_code.k)
    words = (msgs.astype(int) @ k5_code.generator.astype(int)) % 2
    for word in words[:: 7]:
        assert not extract_block(word.astype(np.uint8), k5_code).any()


def test_code_report_metrics(k5_code):
    rep = code_report(k5_code, rho=2)
    assert (rep.n_len, rep.k, rep.d, rep.girth, rep.p, rep.rho) == (10, 6, 3, 3, 4, 2)
    assert rep.embedding_rate == pytest.approx(0.4)
    assert rep.embedding_efficiency == pytest.approx(2.0)
    with pytest.raises(ValueError):
        code_report(k5_code, rho=0)


def _oracle_codes():
    """Seeded random_graph codes of 3-30 vertices, each with the default
    tree and with a random spanning tree pinned in shuffled order."""
    import networkx as nx

    rng = np.random.default_rng(4401)
    for _ in range(40):
        v = int(rng.integers(3, 31))
        e = int(rng.integers(v, min(v * (v - 1) // 2, 2 * v + 8) + 1))
        g = random_graph(rng, v, e)
        yield build_code(g)
        weighted = nx.Graph()
        weighted.add_weighted_edges_from(
            (u, w, float(x)) for (_, u, w), x in zip(g.edges, rng.random(e))
        )
        ids = {frozenset((u, w)): eid for eid, u, w in g.edges}
        pinned = [ids[frozenset(edge)] for edge in nx.minimum_spanning_tree(weighted).edges]
        yield build_code(g, [pinned[int(i)] for i in rng.permutation(len(pinned))])


# SHA-256 over generator, parity check, tree and girth of every
# _oracle_codes() code, recorded with the per-chord and per-tree-edge
# traversals that the tree-path construction replaced.
GRAPH_LAYER_DIGEST = "50e3cc2ef19d97014b168be42649e382098398e1aea73bb3a6f34c5e7e92787a"


def test_fundamental_matrices_against_networkx():
    import networkx as nx

    digest = hashlib.sha256()
    for code in _oracle_codes():
        g = code.graph
        ends = {eid: (u, w) for eid, u, w in g.edges}
        ids = {frozenset(uw): eid for eid, uw in ends.items()}
        tree = nx.Graph()
        tree.add_nodes_from(range(1, g.vertex_count + 1))
        tree.add_edges_from(ends[eid] for eid in code.tree.tree_edges)
        for row, cut in zip(code.parity_check, code.tree.tree_edges):
            tree.remove_edge(*ends[cut])
            side = nx.node_connected_component(tree, ends[cut][0])
            crossing = [(u in side) != (w in side) for _, u, w in g.edges]
            assert row.tolist() == [int(c) for c in crossing]
            tree.add_edge(*ends[cut])
        for row, chord in zip(code.generator, code.tree.chords):
            path = nx.shortest_path(tree, *ends[chord])
            want = np.zeros(g.edge_count, dtype=np.uint8)
            want[chord - 1] = 1
            for a, b in zip(path, path[1:]):
                want[ids[frozenset((a, b))] - 1] = 1
            assert np.array_equal(row, want)
        full = nx.Graph((u, w) for _, u, w in g.edges)
        assert girth(g) == code.d == nx.girth(full)
        for arr in (code.generator, code.parity_check):
            digest.update(arr.tobytes())
        digest.update(repr((code.tree.tree_edges, code.tree.chords, code.d)).encode())
    assert digest.hexdigest() == GRAPH_LAYER_DIGEST
