"""Figures recomputed from live codes.

The average efficiency p/R_a of a cycle code against its ceiling: a
uniform syndrome gives a terminal set T uniform over the even subsets
of the v vertices, so E|T| = v/2, and a T-join has at least |T|/2
edges; hence R_a >= v/4 and p/R_a <= 4(v-1)/v < 4, with equality for
complete graphs, where every terminal pair is one edge apart.  R_a is
the mean coset-leader weight over the 2^p syndromes, read from the
popcounts of the weight layers of either search.

And the two published family-C rows whose parameters name their graph,
against what that graph's live code gives.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from graphstego.codebook import _data_text
from graphstego.decoder import (
    _all_pairs,
    _coset_layers,
    _ends,
    _tjoin_layers,
    build_coset_table_bruteforce,
    covering_radius_bruteforce,
    covering_radius_tjoin,
)
from graphstego.graphs import build_code, build_graph, complete_graph

from helpers import gp83_edges, ring_graph


def _average_flips(layers: list[int], count: int) -> Fraction:
    """R_a: the mean weight over ``count`` members, from layer w's popcount."""
    return Fraction(sum(w * bin(layer).count("1") for w, layer in enumerate(layers)), count)


def _terminal_masks(code) -> list[int]:
    """The terminal mask of each syndrome index: the XOR of its tree edges' endpoint masks."""
    masks = [0]
    for eid in reversed(code.tree.tree_edges):  # the last tree edge is index bit 0
        ends = _ends(code.graph, eid)
        masks += [mask ^ ends for mask in masks]
    return masks


def _circulant(v: int, jumps) -> list[tuple[int, int]]:
    return [(i + 1, (i + j) % v + 1) for j in jumps for i in range(v)]


def _petersen_edges() -> list[tuple[int, int]]:
    """GP(5,2): outer 5-cycle 1..5, spokes, inner pentagram on 6..10."""
    edges = []
    for i in range(5):
        edges += [(i + 1, (i + 1) % 5 + 1), (i + 1, i + 6), (i + 6, (i + 2) % 5 + 6)]
    return edges


#: graph, and its p/R_a to two places
SPARSE_GRAPHS = {
    "GP(8,3)": (lambda: build_graph(16, gp83_edges()), 2.91),
    "C16(1,3)": (lambda: build_graph(16, _circulant(16, (1, 3))), 3.05),
    "petersen": (lambda: build_graph(10, _petersen_edges()), 3.02),
    "ring12": (lambda: ring_graph(12), 2.37),
    "ring18": (lambda: ring_graph(18), 2.32),
}


@pytest.mark.parametrize("q", range(3, 13))
def test_complete_graphs_meet_the_cycle_code_ceiling_exactly(q):
    code = build_code(complete_graph(q))
    p = code.n_len - code.k
    efficiency = p / _average_flips(_coset_layers(code), 1 << p)
    assert efficiency == Fraction(4 * (q - 1), q)


@pytest.mark.parametrize("name", sorted(SPARSE_GRAPHS))
def test_sparser_cycle_codes_stay_below_4(name):
    build, figure = SPARSE_GRAPHS[name]
    graph = build()
    code = build_code(graph)
    p = code.n_len - code.k
    efficiency = p / _average_flips(_coset_layers(code), 1 << p)
    v = graph.vertex_count
    assert efficiency < Fraction(4 * (v - 1), v) < 4
    assert round(float(efficiency), 2) == figure


@pytest.mark.parametrize("name", ["K5", "K8", *sorted(SPARSE_GRAPHS)])
def test_the_tjoin_dp_gives_the_same_average_flips(name):
    graph = complete_graph(int(name[1:])) if name in ("K5", "K8") else SPARSE_GRAPHS[name][0]()
    code = build_code(graph)
    p = code.n_len - code.k
    masks = _terminal_masks(code)
    present = bytearray(1 << code.graph.vertex_count >> 3 or 1)
    for mask in masks:
        present[mask >> 3] |= 1 << (mask & 7)
    terminals = int.from_bytes(present, "little")  # the set of terminal masks
    assert len(set(masks)) == len(masks) == 1 << p  # one to one onto the even vertex sets
    tjoin = [layer & terminals for layer in _tjoin_layers(_all_pairs(graph))]
    assert _average_flips(tjoin, 1 << p) == _average_flips(_coset_layers(code), 1 << p)


def _published_row(n: int, family: str, hidden: int) -> dict:
    rows = [dict(zip(("n", "d", "family", "K", "rho", "er", "ef"), line.split("\t")))
            for line in _data_text("reference_protocols.tsv").splitlines()
            if line and not line.startswith(("#", "n\t"))]
    (row,) = [r for r in rows if (r["n"], r["family"], r["K"]) == (str(n), family, str(hidden))]
    return row


@pytest.mark.parametrize("hidden, graph, rho", [
    (5, lambda: complete_graph(6), 3),  # 6 vertices, 15 edges: only K6 has them
    (9, lambda: build_graph(10, _petersen_edges()), 5),  # 10 vertices, 15 edges, girth 5
], ids=["K6", "petersen"])
def test_the_c_rows_that_name_a_graph_are_not_reproduced_by_it(hidden, graph, rho):
    # rows (15,3,C,K=5,rho=2) and (15,5,C,K=9,rho=2): the live code matches n,
    # d and K, but its covering radius is well above the published 2
    row = _published_row(15, "C", hidden)
    code = build_code(graph())
    assert (code.n_len, code.d, code.n_len - code.k) == (15, int(row["d"]), hidden)
    assert row["rho"] == "2"
    assert covering_radius_bruteforce(build_coset_table_bruteforce(code)) == rho
    assert covering_radius_tjoin(code.graph) == rho
