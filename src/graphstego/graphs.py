"""Cycle codes of connected graphs.

A connected simple graph with m edges and v vertices carries a binary
linear code of length m: the row space of the fundamental circuit
matrix (one row per non-tree edge) is the cycle space of the graph,
and the fundamental cut-set matrix (one row per tree edge) is a parity
check for it.  The code parameters are [m, m - v + 1, girth].

Edge ids are 1-based and their order fixes the code's column order:
column j belongs to edge j+1.  The spanning tree fixes the row orders:
circuit rows follow the chords in ascending id order, cut-set rows
follow the tree edges in the order the tree lists them (an explicitly
supplied tree keeps its given order; the default tree is sorted).
Restricted to the tree columns, the cut-set matrix is the identity in
row order, which makes syndrome bit i answer for tree edge i.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .gf2 import as_bits, block_syndromes, column_syndromes, gf2_rank, syndrome_bits


class GraphError(ValueError):
    """Raised for graphs that cannot carry (or parse into) a cycle code."""


@dataclass(frozen=True)
class Graph:
    """Connected simple undirected graph with 1-based vertex and edge ids.

    ``edges[i]`` is ``(edge_id, u, v)`` with ``edge_id == i + 1``.
    """

    vertex_count: int
    edges: tuple[tuple[int, int, int], ...]

    @property
    def edge_count(self) -> int:
        return len(self.edges)


@dataclass(frozen=True)
class SpanningTree:
    """A spanning tree of a graph, split into tree edges and chords.

    ``tree_edges`` keeps the order that defines the cut-set row order
    (and hence the syndrome bit layout); ``chords`` is always ascending.
    """

    tree_edges: tuple[int, ...]
    chords: tuple[int, ...]


@dataclass(frozen=True, eq=False)
class GraphicalCode:
    """A cycle code together with the graph and tree that produced it."""

    graph: Graph
    tree: SpanningTree
    generator: np.ndarray
    parity_check: np.ndarray
    n_len: int
    k: int
    d: int


@dataclass(frozen=True)
class CodeReport:
    """Code parameters plus protocol metrics for one graph code."""

    n_len: int
    k: int
    d: int
    girth: int
    p: int
    rho: int
    embedding_rate: float
    embedding_efficiency: float


def build_graph(vertex_count: int, edge_list) -> Graph:
    """Validate and freeze a graph given as (u, v) pairs.

    Edge ids are assigned 1..m in list order.

    Raises:
        GraphError: on self-loops, parallel edges, out-of-range vertex
            ids, or a disconnected graph.
    """
    if vertex_count < 1:
        raise GraphError(f"vertex count must be positive, got {vertex_count}")
    edges = []
    seen: set[frozenset[int]] = set()
    for pos, (u, v) in enumerate(edge_list, start=1):
        u, v = int(u), int(v)
        if not (1 <= u <= vertex_count and 1 <= v <= vertex_count):
            raise GraphError(f"edge {pos}: vertex out of range in ({u}, {v})")
        if u == v:
            raise GraphError(f"edge {pos}: self-loop at vertex {u}")
        key = frozenset((u, v))
        if key in seen:
            raise GraphError(f"edge {pos}: parallel edge ({u}, {v})")
        seen.add(key)
        edges.append((pos, u, v))
    g = Graph(vertex_count=vertex_count, edges=tuple(edges))
    if not _connected(g):
        raise GraphError("graph is not connected")
    return g


def complete_graph(q: int) -> Graph:
    """K_q with edges in canonical order (1,2), (1,3), ..., (q-1,q)."""
    if q < 2:
        raise GraphError(f"complete graph needs at least 2 vertices, got {q}")
    return build_graph(q, [(i, j) for i in range(1, q + 1) for j in range(i + 1, q + 1)])


def _adjacency(g: Graph) -> list[list[tuple[int, int]]]:
    """Per-vertex [(edge_id, neighbor)] lists, sorted by edge id."""
    adj: list[list[tuple[int, int]]] = [[] for _ in range(g.vertex_count + 1)]
    for eid, u, v in g.edges:
        adj[u].append((eid, v))
        adj[v].append((eid, u))
    for lst in adj:
        lst.sort()
    return adj


def _connected(g: Graph) -> bool:
    if g.vertex_count == 1:
        return True
    adj = _adjacency(g)
    seen = {1}
    queue = deque([1])
    while queue:
        u = queue.popleft()
        for _, w in adj[u]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return len(seen) == g.vertex_count


def spanning_tree(g: Graph) -> SpanningTree:
    """Deterministic default tree: BFS from vertex 1, neighbors in
    ascending edge-id order, tree edges reported in ascending id order."""
    adj = _adjacency(g)
    seen = {1}
    queue = deque([1])
    tree_ids = []
    while queue:
        u = queue.popleft()
        for eid, w in adj[u]:
            if w not in seen:
                seen.add(w)
                tree_ids.append(eid)
                queue.append(w)
    tree_ids.sort()
    tree_set = set(tree_ids)
    chords = tuple(eid for eid, _, _ in g.edges if eid not in tree_set)
    return SpanningTree(tree_edges=tuple(tree_ids), chords=chords)


def spanning_tree_from_ids(g: Graph, edge_ids) -> SpanningTree:
    """Pin an explicit spanning tree; the id order given here becomes
    the cut-set row order.

    Raises:
        GraphError: if the ids do not form a spanning tree.
    """
    ids = [int(e) for e in edge_ids]
    if len(set(ids)) != len(ids):
        raise GraphError("tree edge ids contain duplicates")
    if len(ids) != g.vertex_count - 1:
        raise GraphError(
            f"spanning tree needs {g.vertex_count - 1} edges, got {len(ids)}"
        )
    by_id = {eid: (u, v) for eid, u, v in g.edges}
    for eid in ids:
        if eid not in by_id:
            raise GraphError(f"unknown edge id {eid}")
    # v-1 edges reaching all v vertices <=> spanning tree
    adj: dict[int, list[int]] = {}
    for eid in ids:
        u, v = by_id[eid]
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    seen = {1}
    queue = deque([1])
    while queue:
        u = queue.popleft()
        for w in adj.get(u, ()):
            if w not in seen:
                seen.add(w)
                queue.append(w)
    if len(seen) != g.vertex_count:
        raise GraphError("edge ids do not form a spanning tree")
    tree_set = set(ids)
    chords = tuple(eid for eid, _, _ in g.edges if eid not in tree_set)
    return SpanningTree(tree_edges=tuple(ids), chords=chords)


def _tree_parents(g: Graph, tree: SpanningTree, root: int):
    """Parent vertex/edge of every vertex in the tree, rooted at ``root``."""
    by_id = {eid: (u, v) for eid, u, v in g.edges}
    adj: list[list[tuple[int, int]]] = [[] for _ in range(g.vertex_count + 1)]
    for eid in tree.tree_edges:
        u, v = by_id[eid]
        adj[u].append((eid, v))
        adj[v].append((eid, u))
    parent_vertex = [0] * (g.vertex_count + 1)
    parent_edge = [0] * (g.vertex_count + 1)
    seen = {root}
    queue = deque([root])
    while queue:
        u = queue.popleft()
        for eid, w in adj[u]:
            if w not in seen:
                seen.add(w)
                parent_vertex[w] = u
                parent_edge[w] = eid
                queue.append(w)
    return parent_vertex, parent_edge


def fundamental_circuit_matrix(g: Graph, tree: SpanningTree) -> np.ndarray:
    """One row per chord (ascending id): the chord plus its tree path.

    Every row is a circuit, hence a codeword of the cycle code.
    """
    m = g.edge_count
    by_id = {eid: (u, v) for eid, u, v in g.edges}
    rows = np.zeros((len(tree.chords), m), dtype=np.uint8)
    for r, chord in enumerate(tree.chords):
        u, v = by_id[chord]
        parent_vertex, parent_edge = _tree_parents(g, tree, root=u)
        rows[r, chord - 1] = 1
        x = v
        while x != u:
            rows[r, parent_edge[x] - 1] ^= 1
            x = parent_vertex[x]
    return rows


def fundamental_cutset_matrix(g: Graph, tree: SpanningTree) -> np.ndarray:
    """One row per tree edge, in the tree's listed order.

    Removing tree edge e splits the tree in two; the row marks every
    graph edge with exactly one endpoint on e's side of the split.
    """
    m = g.edge_count
    by_id = {eid: (u, v) for eid, u, v in g.edges}
    rows = np.zeros((len(tree.tree_edges), m), dtype=np.uint8)
    tree_adj: list[list[tuple[int, int]]] = [[] for _ in range(g.vertex_count + 1)]
    for eid in tree.tree_edges:
        u, v = by_id[eid]
        tree_adj[u].append((eid, v))
        tree_adj[v].append((eid, u))
    for r, cut_edge in enumerate(tree.tree_edges):
        cu, _ = by_id[cut_edge]
        side = {cu}
        queue = deque([cu])
        while queue:
            x = queue.popleft()
            for eid, w in tree_adj[x]:
                if eid != cut_edge and w not in side:
                    side.add(w)
                    queue.append(w)
        for eid, u, v in g.edges:
            if (u in side) != (v in side):
                rows[r, eid - 1] = 1
    return rows


def girth(g: Graph) -> int | None:
    """Length of the shortest cycle, or None for an acyclic graph.

    For each edge (u, v): the shortest cycle through it is 1 plus the
    u-v distance avoiding that edge.
    """
    adj = _adjacency(g)
    best: int | None = None
    for eid, u, v in g.edges:
        dist = {u: 0}
        queue = deque([u])
        while queue:
            x = queue.popleft()
            if x == v:
                break
            for eid2, w in adj[x]:
                if eid2 != eid and w not in dist:
                    dist[w] = dist[x] + 1
                    queue.append(w)
        if v in dist and (best is None or dist[v] + 1 < best):
            best = dist[v] + 1
    return best


def build_code(g: Graph, tree=None) -> GraphicalCode:
    """Construct the cycle code of ``g``.

    Args:
        g: a connected graph with at least one cycle.
        tree: optional spanning tree — a :class:`SpanningTree`, or a
            sequence of edge ids whose order pins the cut-set rows.
            Defaults to the BFS tree.

    Raises:
        GraphError: if the graph is acyclic, or the constructed
            matrices fail the orthogonality / rank invariants.
    """
    m, v = g.edge_count, g.vertex_count
    k = m - v + 1
    if k < 1:
        raise GraphError("graph is acyclic: its cycle code is empty")
    if tree is None:
        t = spanning_tree(g)
    elif isinstance(tree, SpanningTree):
        t = tree
    else:
        t = spanning_tree_from_ids(g, tree)
    gen = fundamental_circuit_matrix(g, t)
    chk = fundamental_cutset_matrix(g, t)
    if block_syndromes(gen, column_syndromes(chk), len(chk)).any():
        raise GraphError("orthogonality failure: circuits do not satisfy the cut-set checks")
    if gf2_rank(gen) != k or gf2_rank(chk) != v - 1:
        raise GraphError("rank failure in fundamental matrices")
    d = girth(g)
    assert d is not None  # k >= 1 guarantees a cycle
    gen.setflags(write=False)
    chk.setflags(write=False)
    return GraphicalCode(
        graph=g, tree=t, generator=gen, parity_check=chk, n_len=m, k=k, d=d
    )


def syndrome_of(code: GraphicalCode, word) -> np.ndarray:
    """Parity-check syndrome of a length-n word."""
    word = as_bits(word)
    if word.size != code.n_len:
        raise ValueError(f"word must have {code.n_len} bits, got {word.size}")
    p = code.n_len - code.k
    syn = block_syndromes(word[None, :], column_syndromes(code.parity_check), p)
    return syndrome_bits(syn, p)[0]


def code_report(code: GraphicalCode, rho: int) -> CodeReport:
    """Bundle code parameters with the protocol metrics they imply.

    ``p = n - k`` hidden bits per block; embedding rate p/n; embedding
    efficiency p/rho.
    """
    if rho < 1:
        raise ValueError(f"covering radius must be positive, got {rho}")
    p = code.n_len - code.k
    return CodeReport(
        n_len=code.n_len,
        k=code.k,
        d=code.d,
        girth=code.d,
        p=p,
        rho=rho,
        embedding_rate=p / code.n_len,
        embedding_efficiency=p / rho,
    )
