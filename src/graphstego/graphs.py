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

Both matrices are read off one array: row e is the tree path between
edge e's endpoints, on the tree columns.  Its transpose is the cut-set
matrix (tree edge t is on e's path exactly when e crosses t's cut), and
a chord's row plus the chord bit is its circuit.  Every traversal here
and in the decoder is one breadth-first search, :func:`_bfs`.
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
    if (_bfs(g, 1)[0] < 0).any():
        raise GraphError("graph is not connected")
    return g


def complete_graph(q: int) -> Graph:
    """K_q with edges in canonical order (1,2), (1,3), ..., (q-1,q)."""
    if q < 2:
        raise GraphError(f"complete graph needs at least 2 vertices, got {q}")
    return build_graph(q, [(i, j) for i in range(1, q + 1) for j in range(i + 1, q + 1)])


def _bfs(g: Graph, source: int, edge_ids=None) -> tuple[np.ndarray, np.ndarray]:
    """Breadth-first search from ``source`` over ``edge_ids`` (default:
    every edge), neighbours taken in ascending edge-id order.

    ``dist[u-1]`` is the hop count to vertex u (-1 if unreached) and
    ``paths[u-1]`` the edge indicator of the BFS-tree path to u.
    """
    adj: list[list[tuple[int, int]]] = [[] for _ in range(g.vertex_count + 1)]
    for eid in range(1, g.edge_count + 1) if edge_ids is None else sorted(edge_ids):
        _, u, v = g.edges[eid - 1]
        adj[u].append((eid, v))
        adj[v].append((eid, u))
    dist = np.full(g.vertex_count, -1, dtype=np.int32)
    paths = np.zeros((g.vertex_count, g.edge_count), dtype=np.uint8)
    dist[source - 1] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for eid, w in adj[u]:
            if dist[w - 1] < 0:
                dist[w - 1] = dist[u - 1] + 1
                paths[w - 1] = paths[u - 1]
                paths[w - 1, eid - 1] = 1
                queue.append(w)
    return dist, paths


def spanning_tree(g: Graph) -> SpanningTree:
    """Deterministic default tree: BFS from vertex 1, neighbors in
    ascending edge-id order, tree edges reported in ascending id order."""
    in_tree = _bfs(g, 1)[1].any(axis=0)
    tree_ids = tuple(int(e) + 1 for e in np.flatnonzero(in_tree))
    chords = tuple(int(e) + 1 for e in np.flatnonzero(~in_tree))
    return SpanningTree(tree_edges=tree_ids, chords=chords)


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
    for eid in ids:
        if not 1 <= eid <= g.edge_count:
            raise GraphError(f"unknown edge id {eid}")
    # v-1 edges reaching all v vertices <=> spanning tree
    if (_bfs(g, 1, ids)[0] < 0).any():
        raise GraphError("edge ids do not form a spanning tree")
    tree_set = set(ids)
    chords = tuple(eid for eid, _, _ in g.edges if eid not in tree_set)
    return SpanningTree(tree_edges=tuple(ids), chords=chords)


def _fundamental_matrices(g: Graph, tree: SpanningTree) -> tuple[np.ndarray, np.ndarray]:
    """Circuit and cut-set matrices from one tree-path array.

    ``root[u-1]`` is the tree path from vertex 1 to u on the tree
    columns (in tree order), so row e of ``root[u_e] ^ root[v_e]`` is
    the tree path between edge e's endpoints.  Tree edge t lies on
    that path exactly when e crosses t's fundamental cut, so the
    cut-set matrix is the array transposed; a chord's circuit is its
    path plus the chord.
    """
    tree_cols = np.array(tree.tree_edges, dtype=np.intp) - 1
    chords = np.array(tree.chords, dtype=np.intp) - 1
    root = _bfs(g, 1, tree.tree_edges)[1][:, tree_cols]
    ends = np.array([(u, v) for _, u, v in g.edges], dtype=np.intp).reshape(-1, 2) - 1
    between = root[ends[:, 0]] ^ root[ends[:, 1]]
    circuits = np.zeros((len(chords), g.edge_count), dtype=np.uint8)
    circuits[:, tree_cols] = between[chords]
    circuits[np.arange(len(chords)), chords] = 1
    return circuits, between.T.copy()


def fundamental_circuit_matrix(g: Graph, tree: SpanningTree) -> np.ndarray:
    """One row per chord (ascending id): the chord plus its tree path.

    Every row is a circuit, hence a codeword of the cycle code.
    """
    return _fundamental_matrices(g, tree)[0]


def fundamental_cutset_matrix(g: Graph, tree: SpanningTree) -> np.ndarray:
    """One row per tree edge, in the tree's listed order.

    Removing tree edge e splits the tree in two; the row marks every
    graph edge with exactly one endpoint on e's side of the split.
    """
    return _fundamental_matrices(g, tree)[1]


def girth(g: Graph) -> int | None:
    """Length of the shortest cycle, or None for an acyclic graph.

    Each edge (x, y) off the BFS tree of a source closes a walk of
    d(x) + d(y) + 1 edges that contains a cycle, and from a source on a
    shortest cycle some such walk is no longer than that cycle.
    """
    ends = np.array([(u, v) for _, u, v in g.edges], dtype=np.intp).reshape(-1, 2) - 1
    best: int | None = None
    for source in range(1, g.vertex_count + 1):
        dist, paths = _bfs(g, source)
        off_tree = ~paths.any(axis=0)
        if off_tree.any():
            length = int(dist[ends[off_tree]].sum(axis=1).min()) + 1
            best = length if best is None else min(best, length)
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
    gen, chk = _fundamental_matrices(g, t)
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
