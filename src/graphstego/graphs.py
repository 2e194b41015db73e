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
On the tree columns the cut-set matrix is the identity in row order,
which makes syndrome bit i answer for tree edge i; on the chord columns
the circuit matrix is.  :func:`build_code` checks both identity blocks
(so both ranks are full) before it checks G H^T = 0.

Everything here is plain Python on int bitsets: an edge set is an int
with bit e-1 for edge e, and a matrix row is an int with bit j for
column j.  The codec's numpy arrays, ``generator``, ``parity_check``
and ``check_tables``, are built from those rows on first use, so
building and analysing a code never imports numpy.

Both matrices are read off one list: entry e is the tree path between
edge e's endpoints, as an edge set.  Tree edge t lies on that path
exactly when e crosses t's cut, so the cut-set rows are the list
transposed, and a chord's path plus the chord is its circuit.  Every
traversal here and in the decoder is one breadth-first search,
:func:`_bfs`.
"""

from __future__ import annotations

from collections import deque
from functools import cached_property, reduce
from operator import or_
from typing import TYPE_CHECKING

from .gf2 import _Record, _ValueRecord

if TYPE_CHECKING:
    import numpy as np

    from .gf2 import SyndromeTables


class GraphError(ValueError):
    """Raised for graphs that cannot carry (or parse into) a cycle code."""


class Graph(_ValueRecord):
    """Connected simple undirected graph with 1-based vertex and edge ids.

    ``edges[i]`` is ``(edge_id, u, v)`` with ``edge_id == i + 1``.
    """

    vertex_count: int
    edges: tuple[tuple[int, int, int], ...]

    @property
    def edge_count(self) -> int:
        return len(self.edges)


class SpanningTree(_ValueRecord):
    """A spanning tree of a graph, split into tree edges and chords.

    ``tree_edges`` keeps the order that defines the cut-set row order
    (and hence the syndrome bit layout); ``chords`` is always ascending.
    """

    tree_edges: tuple[int, ...]
    chords: tuple[int, ...]


class GraphicalCode(_Record):
    """A cycle code together with the graph and tree that produced it.

    ``generator_rows`` and ``check_rows`` are the circuit and cut-set
    rows as int bitsets, bit j for column j.
    """

    graph: Graph
    tree: SpanningTree
    generator_rows: tuple[int, ...]
    check_rows: tuple[int, ...]
    n_len: int
    k: int
    d: int

    @cached_property
    def generator(self) -> np.ndarray:
        """The circuit rows as a read-only (k, n) uint8 matrix, built on first use."""
        return _bit_matrix(_packed_rows(self.generator_rows, self.n_len), self.n_len)

    @cached_property
    def parity_check(self) -> np.ndarray:
        """The cut-set rows as a read-only (p, n) uint8 matrix, built on first use."""
        return _bit_matrix(_packed_rows(self.check_rows, self.n_len), self.n_len)

    @cached_property
    def check_tables(self) -> SyndromeTables:
        """The parity check's packed syndrome tables, built on first use and kept."""
        from .gf2 import syndrome_tables

        return syndrome_tables(self.parity_check)


def _packed_rows(rows: tuple[int, ...], n: int) -> bytes:
    """Int rows (bit j = column j) as ceil(n/8) little-endian bytes each."""
    return b"".join(row.to_bytes((n + 7) // 8, "little") for row in rows)


def _bit_matrix(packed: bytes, n: int) -> np.ndarray:
    """Rows of ceil(n/8) bytes (bit 0 of byte 0 = column 0) as a read-only uint8 matrix of n columns."""
    import numpy as np

    raw = np.frombuffer(packed, dtype=np.uint8).reshape(-1, (n + 7) // 8)
    matrix = np.unpackbits(raw, axis=1, count=n, bitorder="little")
    matrix.setflags(write=False)
    return matrix


class CodeReport(_ValueRecord):
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
    # a spanning tree has vertex_count - 1 edges: fewer cannot connect, and the BFS need not run
    if len(edges) < vertex_count - 1 or -1 in _bfs(g, 1)[0]:
        raise GraphError("graph is not connected")
    return g


def complete_graph(q: int) -> Graph:
    """K_q with edges in canonical order (1,2), (1,3), ..., (q-1,q)."""
    if q < 2:
        raise GraphError(f"complete graph needs at least 2 vertices, got {q}")
    return build_graph(q, [(i, j) for i in range(1, q + 1) for j in range(i + 1, q + 1)])


def _bfs(g: Graph, source: int, edge_ids=None) -> tuple[list[int], list[int]]:
    """Breadth-first search from ``source`` over ``edge_ids`` (default:
    every edge), neighbours taken in ascending edge-id order.

    ``dist[u-1]`` is the hop count to vertex u (-1 if unreached) and
    ``paths[u-1]`` the edge set of the BFS-tree path to u.
    """
    adj: list[list[tuple[int, int]]] = [[] for _ in range(g.vertex_count + 1)]
    for eid in range(1, g.edge_count + 1) if edge_ids is None else sorted(edge_ids):
        _, u, v = g.edges[eid - 1]
        adj[u].append((eid, v))
        adj[v].append((eid, u))
    dist = [-1] * g.vertex_count
    paths = [0] * g.vertex_count
    dist[source - 1] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        hops, path = dist[u - 1] + 1, paths[u - 1]
        for eid, w in adj[u]:
            if dist[w - 1] < 0:
                dist[w - 1] = hops
                paths[w - 1] = path | 1 << (eid - 1)
                queue.append(w)
    return dist, paths


def spanning_tree(g: Graph) -> SpanningTree:
    """Deterministic default tree: BFS from vertex 1, neighbors in
    ascending edge-id order, tree edges reported in ascending id order."""
    in_tree = reduce(or_, _bfs(g, 1)[1])  # a BFS tree is the union of its paths
    tree_ids = tuple(eid for eid, _, _ in g.edges if in_tree >> (eid - 1) & 1)
    chords = tuple(eid for eid, _, _ in g.edges if not in_tree >> (eid - 1) & 1)
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
    if -1 in _bfs(g, 1, ids)[0]:
        raise GraphError("edge ids do not form a spanning tree")
    tree_set = set(ids)
    chords = tuple(eid for eid, _, _ in g.edges if eid not in tree_set)
    return SpanningTree(tree_edges=tuple(ids), chords=chords)


def _fundamental_matrices(g: Graph, tree: SpanningTree) -> tuple[list[int], list[int]]:
    """Circuit and cut-set rows from one list of tree paths.

    ``root[u-1]`` is the tree path from vertex 1 to u, so entry e of
    ``between`` is the tree path between edge e's endpoints.  Tree
    edge t lies on that path exactly when e crosses t's fundamental
    cut, so t's cut-set row holds bit e-1 for every such e; a chord's
    circuit is its path plus the chord.
    """
    root = _bfs(g, 1, tree.tree_edges)[1]
    between = [root[u - 1] ^ root[v - 1] for _, u, v in g.edges]
    circuits = [between[c - 1] | 1 << (c - 1) for c in tree.chords]
    cuts = dict.fromkeys(tree.tree_edges, 0)
    for e, path in enumerate(between):
        while path:
            low = path & -path
            cuts[low.bit_length()] |= 1 << e
            path ^= low
    return circuits, list(cuts.values())


def girth(g: Graph) -> int | None:
    """Length of the shortest cycle, or None for an acyclic graph.

    Each edge (x, y) off the BFS tree of a source closes a walk of
    d(x) + d(y) + 1 edges that contains a cycle, and from a source on a
    shortest cycle some such walk is no longer than that cycle.
    """
    best: int | None = None
    for source in range(1, g.vertex_count + 1):
        dist, paths = _bfs(g, source)
        in_tree = format(reduce(or_, paths), f"0{g.edge_count}b")[::-1]  # "1" at e-1: tree edge e
        for eid, u, v in g.edges:
            if in_tree[eid - 1] == "0":
                length = dist[u - 1] + dist[v - 1] + 1
                best = length if best is None else min(best, length)
        if best == 3:  # no simple graph has a shorter cycle
            break
    return best


def build_code(g: Graph, tree=None) -> GraphicalCode:
    """Construct the cycle code of ``g``.

    Args:
        g: a connected graph with at least one cycle.
        tree: optional spanning tree, a sequence of edge ids whose
            order pins the cut-set rows.  Defaults to the BFS tree.

    Raises:
        GraphError: if the graph is acyclic, or the constructed
            matrices fail the identity / orthogonality invariants.
    """
    m, v = g.edge_count, g.vertex_count
    k = m - v + 1
    if k < 1:
        raise GraphError("graph is acyclic: its cycle code is empty")
    t = spanning_tree(g) if tree is None else spanning_tree_from_ids(g, tree)
    gen, chk = _fundamental_matrices(g, t)
    for rows, ids, name in ((gen, t.chords, "chord"), (chk, t.tree_edges, "tree")):
        columns = sum(1 << (eid - 1) for eid in ids)
        if len(rows) != len(ids) or any(
            row & columns != 1 << (eid - 1) for row, eid in zip(rows, ids)
        ):
            raise GraphError(f"identity failure: {name} columns are not the identity in row order")
    if any((circuit & cut).bit_count() & 1 for circuit in gen for cut in chk):
        raise GraphError("orthogonality failure: circuits do not satisfy the cut-set checks")
    d = girth(g)
    assert d is not None  # k >= 1 guarantees a cycle
    return GraphicalCode(graph=g, tree=t, generator_rows=tuple(gen), check_rows=tuple(chk),
                         n_len=m, k=k, d=d)


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
