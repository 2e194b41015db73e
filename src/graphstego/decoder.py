"""Syndrome -> minimum-flip lookup tables for cycle codes.

Two independent builders produce tables with identical leader weights,
each as whole-array numpy passes:

* exhaustive coset search, a breadth-first search over the 2^p
  syndromes that uses only the parity check: layer w XORs every column
  syndrome onto layer w-1, and
* combinatorial optimisation, one minimum T-join per syndrome, read
  off a subset dynamic program over the vertex sets that is
  vectorised by popcount layer.

The bridge between them: under the cut-set parity check, the syndrome
of a word marks a subset of tree edges, and the vertices touched an
odd number of times by that subset form an even set T.  The words
producing syndrome s are exactly the edge sets whose odd-degree
vertices are T, so the coset leader is a minimum T-join — found by
minimum-weight perfect matching of the terminals under shortest-path
distance.  The covering radius is the largest leader weight, i.e. the
largest minimum T-join over all even vertex sets T.

Tie rules.  The exhaustive builder picks the lexicographically
smallest minimum-weight pattern (by edge-id set).  The T-join builder
matches the lowest terminal with the smallest partner that attains the
optimum and joins each pair along the BFS path from the lower one
(neighbours in edge-id order); it is deterministic but may pick a
different leader of the same weight when ties exist.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .gf2 import as_bits, block_syndromes, column_syndromes, syndrome_index
from .graphs import Graph, GraphicalCode, _bfs

#: Most syndrome bits p = n - k that the builders and
#: covering_radius_tjoin accept; each costs about n * 2^p.
MAX_SYNDROME_BITS = 20

_CACHE_MAGIC = b"GCTABLE1"


class TableCacheError(ValueError):
    """Raised when a cached table file is malformed or does not match."""


class TableSizeError(ValueError):
    """Raised for codes with more than MAX_SYNDROME_BITS syndrome bits."""


def _check_size(p: int) -> None:
    if p > MAX_SYNDROME_BITS:
        raise TableSizeError(
            f"{p} syndrome bits exceed the table limit of {MAX_SYNDROME_BITS}"
        )


@dataclass(frozen=True, eq=False)
class CosetTable:
    """Complete syndrome -> coset-leader table for one code.

    ``leaders[i]`` is the leader whose syndrome reads i (bit 0 of the
    syndrome most significant); ``rho`` is the covering radius.
    """

    code: GraphicalCode
    leaders: np.ndarray
    rho: int

    def leader(self, syndrome) -> np.ndarray:
        """Leader for a syndrome given as bits or as a table index."""
        p = self.code.n_len - self.code.k
        if isinstance(syndrome, (int, np.integer)):
            idx = int(syndrome)
            if not 0 <= idx < len(self.leaders):
                raise ValueError(f"syndrome index {idx} out of range")
        else:
            s = as_bits(syndrome)
            if s.size != p:
                raise ValueError(f"syndrome must have {p} bits, got {s.size}")
            idx = syndrome_index(s)
        return self.leaders[idx].copy()


def _coset_weights(code: GraphicalCode) -> tuple[np.ndarray, np.ndarray]:
    """Column syndromes and the minimum coset weight of every syndrome.

    A breadth-first search in syndrome space that uses only the parity
    check: layer w holds the syndromes first reached by XOR-ing one more
    column syndrome onto layer w-1, so ``dist[s]`` is the fewest columns
    summing to s.  Unreachable syndromes stay at -1.
    """
    columns = np.array(column_syndromes(code.parity_check), dtype=np.uint32)
    dist = np.full(1 << (code.n_len - code.k), -1, dtype=np.int8)
    dist[0] = 0
    frontier = np.zeros(1, dtype=np.uint32)
    w = 0
    while frontier.size:
        w += 1
        for col in columns:
            step = frontier ^ col
            dist[step[dist[step] < 0]] = w
        frontier = np.flatnonzero(dist == w).astype(np.uint32)
    return columns, dist


def build_coset_table_bruteforce(code: GraphicalCode) -> CosetTable:
    """Exhaustive coset search: a breadth-first search over the 2^p syndromes.

    Uses only the parity check.  Each leader is the lexicographically
    smallest (by edge-id set) minimum-weight pattern of its coset: its
    least edge j is the smallest with ``dist[s ^ col[j]] == dist[s] - 1``,
    and the rest is the leader of ``s ^ col[j]``, filled one BFS layer
    earlier.

    Raises:
        TableSizeError: if p exceeds :data:`MAX_SYNDROME_BITS`.
    """
    n = code.n_len
    _check_size(n - code.k)
    columns, dist = _coset_weights(code)
    if (dist < 0).any():
        raise ValueError("parity check does not reach every syndrome")
    leaders = np.zeros((len(dist), n), dtype=np.uint8)
    for w in range(1, int(dist.max()) + 1):
        layer = np.flatnonzero(dist == w).astype(np.uint32)
        first = np.zeros(layer.size, dtype=np.intp)
        for j in range(n - 1, -1, -1):
            first[dist[layer ^ columns[j]] == w - 1] = j
        leaders[layer] = leaders[layer ^ columns[first]]
        leaders[layer, first] = 1
    leaders.setflags(write=False)
    return CosetTable(code=code, leaders=leaders, rho=int(dist.max()))


def covering_radius_bruteforce(source: CosetTable | GraphicalCode) -> int:
    """Largest leader weight of a complete table, or of a code's table.

    Given a code, no table is built: the radius is the largest minimum
    coset weight from the syndrome-space BFS that
    :func:`build_coset_table_bruteforce` starts with, 2^p bytes of work
    space instead of n * 2^p.

    Raises:
        TableSizeError: for a code whose p exceeds :data:`MAX_SYNDROME_BITS`.
    """
    if isinstance(source, CosetTable):
        return int(source.leaders.sum(axis=1).max())
    _check_size(source.n_len - source.k)
    return int(_coset_weights(source)[1].max())


def syndrome_to_terminals(code: GraphicalCode, syndrome) -> frozenset[int]:
    """Vertices met an odd number of times by the syndrome's tree edges.

    Syndrome bit i selects the i-th tree edge in the code's row order;
    the returned set is always even-sized.
    """
    s = as_bits(syndrome)
    p = code.n_len - code.k
    if s.size != p:
        raise ValueError(f"syndrome must have {p} bits, got {s.size}")
    degree: dict[int, int] = {}
    for bit, eid in zip(s, code.tree.tree_edges):
        if bit:
            _, u, v = code.graph.edges[eid - 1]
            degree[u] = degree.get(u, 0) + 1
            degree[v] = degree.get(v, 0) + 1
    return frozenset(v for v, deg in degree.items() if deg % 2 == 1)


def _shortest_paths(g: Graph, sources) -> tuple[np.ndarray, np.ndarray]:
    """BFS distances and paths from each source (vertex ids are 1-based).

    Row r describes ``sources[r]``: ``dist[r, u-1]`` is its hop count to
    vertex u and ``paths[r, u-1]`` the edge indicator of the path to u
    in its BFS tree, neighbours taken in ascending edge-id order.
    """
    dist = np.full((len(sources), g.vertex_count), -1, dtype=np.int32)
    paths = np.zeros((len(sources), g.vertex_count, g.edge_count), dtype=np.uint8)
    for r, source in enumerate(sources):
        dist[r], paths[r] = _bfs(g, source)
    return dist, paths


def _tjoin_dp(dist: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Minimum perfect matching cost of every even subset of t terminals.

    ``dist`` is the t x t shortest-path matrix of the terminals; subset
    bit i stands for terminal i.  ``dp[T]`` pairs T's lowest terminal a
    with the partner b minimising ``dist[a, b] + dp[T - {a, b}]``, one
    popcount layer at a time; ``pairs[T]`` is that (a, b), the smallest
    b on ties.  Odd subsets keep ``dp == -1``.
    """
    t = len(dist)
    pop = np.zeros(1, dtype=np.int8)
    low = np.zeros(1, dtype=np.int8)
    for k in range(t):
        pop = np.concatenate([pop, pop + 1])
        low = np.concatenate([low, low])
        low[1 << k] = k
    bits = 1 << np.arange(t)
    dp = np.full(1 << t, -1, dtype=np.int32)
    dp[0] = 0
    pairs = np.zeros((1 << t, 2), dtype=np.int8)
    for size in range(2, t + 1, 2):
        layer = np.flatnonzero(pop == size)
        a = low[layer]
        rest = layer ^ bits[a]
        best = np.full(layer.size, np.iinfo(np.int32).max, dtype=np.int32)
        partner = np.zeros(layer.size, dtype=np.int8)
        for b in range(1, t):  # ascending, and only a strict gain moves: first tie wins
            cost = dist[a, b] + dp[rest ^ bits[b]]
            better = ((rest & bits[b]) != 0) & (cost < best)
            best[better] = cost[better]
            partner[better] = b
        dp[layer] = best
        pairs[layer, 0] = a
        pairs[layer, 1] = partner
    return dp, pairs


def minimum_t_join(g: Graph, terminals) -> np.ndarray:
    """Minimum-cardinality edge set with odd degree exactly at ``terminals``.

    Pairs the terminals by minimum-weight perfect matching under
    shortest-path distance (:func:`_tjoin_dp`) and XORs the matched
    shortest paths; the result's weight equals the matching cost.

    Raises:
        ValueError: if ``terminals`` is odd-sized or out of range.
    """
    t_set = sorted({int(t) for t in terminals})
    if len(t_set) % 2:
        raise ValueError(f"terminal set must be even-sized, got {len(t_set)}")
    for t in t_set:
        if not 1 <= t <= g.vertex_count:
            raise ValueError(f"terminal {t} out of range")
    dist, paths = _shortest_paths(g, t_set)
    cols = [t - 1 for t in t_set]
    _, pairs = _tjoin_dp(dist[:, cols])
    join = np.zeros(g.edge_count, dtype=np.uint8)
    mask = (1 << len(t_set)) - 1
    while mask:
        a, b = (int(x) for x in pairs[mask])
        join ^= paths[a, cols[b]]
        mask ^= (1 << a) | (1 << b)
    return join


def build_coset_table_tjoin(code: GraphicalCode) -> CosetTable:
    """Build the full table from minimum T-joins of every even vertex set.

    Syndrome s maps to its terminal mask (the XOR of its tree edges'
    endpoint masks), one to one onto the even vertex subsets.  One
    :func:`_tjoin_dp` over all vertices pairs each mask's lowest vertex
    a with its first-tie partner b, and the leader of s is the leader
    of the mask without {a, b}, XOR the BFS path from a to b — filled
    layer by layer in increasing leader weight.  Costs a 2^v = 2^(p+1)
    subset DP instead of enumerating 2^n error patterns.

    Raises:
        TableSizeError: if p exceeds :data:`MAX_SYNDROME_BITS`.
    """
    g = code.graph
    v, m = g.vertex_count, g.edge_count
    _check_size(m - code.k)
    count = 1 << (m - code.k)
    dist, paths = _shortest_paths(g, range(1, v + 1))
    dp, pairs = _tjoin_dp(dist)
    ends = {eid: (1 << (a - 1)) | (1 << (b - 1)) for eid, a, b in g.edges}
    terminal_mask = np.zeros(1, dtype=np.intp)
    for eid in reversed(code.tree.tree_edges):  # last tree edge = index bit 0
        terminal_mask = np.concatenate([terminal_mask, terminal_mask ^ ends[eid]])
    syndrome_of_mask = np.zeros(1 << v, dtype=np.intp)
    syndrome_of_mask[terminal_mask] = np.arange(count)
    a, b = pairs[terminal_mask].T.astype(np.intp)
    rest = syndrome_of_mask[terminal_mask ^ (1 << a) ^ (1 << b)]
    weight = dp[terminal_mask]
    leaders = np.zeros((count, m), dtype=np.uint8)
    for w in range(1, int(weight.max()) + 1):
        layer = np.flatnonzero(weight == w)
        leaders[layer] = leaders[rest[layer]] ^ paths[a[layer], b[layer]]
    _check_leader_syndromes(code, leaders)
    leaders.setflags(write=False)
    return CosetTable(code=code, leaders=leaders, rho=int(weight.max()))


def covering_radius_tjoin(g: Graph) -> int:
    """Covering radius as the largest minimum T-join over even vertex sets.

    Raises:
        TableSizeError: if p = v - 1 exceeds :data:`MAX_SYNDROME_BITS`
            (the enumeration is exponential in the vertex count).
    """
    v = g.vertex_count
    _check_size(v - 1)
    dist, _ = _shortest_paths(g, range(1, v + 1))
    return int(_tjoin_dp(dist)[0].max())


def _check_leader_syndromes(code: GraphicalCode, leaders: np.ndarray) -> None:
    """Every leader must land in its own coset (internal invariant)."""
    p = code.n_len - code.k
    got = block_syndromes(leaders, column_syndromes(code.parity_check), p)
    if not np.array_equal(got, np.arange(len(leaders))):
        raise AssertionError("leader table inconsistent with parity check")


def save_table(table: CosetTable, path) -> None:
    """Write a table cache: ``GCTABLE1`` magic, big-endian u32 syndrome
    count, then one leader per syndrome as ceil(n/8) packed bytes (bit 0
    of byte 0 = edge 1)."""
    n = table.code.n_len
    packed = np.packbits(table.leaders, axis=1, bitorder="little")
    assert packed.shape == (len(table.leaders), (n + 7) // 8)
    with open(path, "wb") as fh:
        fh.write(_CACHE_MAGIC)
        fh.write(struct.pack(">I", len(table.leaders)))
        fh.write(packed.tobytes())


def load_table(path, code: GraphicalCode) -> CosetTable:
    """Read a table cache and verify it belongs to ``code``.

    Every leader's syndrome is recomputed against the live parity
    check, so a cache written for a different codebook is rejected, and
    every leader's weight must equal its coset's minimum weight (from
    the same syndrome-space BFS the exhaustive builder runs).

    Raises:
        TableCacheError: on bad magic, wrong syndrome count, truncation,
            a syndrome mismatch, or a leader that is not minimal.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[: len(_CACHE_MAGIC)] != _CACHE_MAGIC:
        raise TableCacheError("not a table cache (bad magic)")
    if len(blob) < len(_CACHE_MAGIC) + 4:
        raise TableCacheError("truncated table cache header")
    (count,) = struct.unpack(">I", blob[len(_CACHE_MAGIC) : len(_CACHE_MAGIC) + 4])
    n = code.n_len
    p = n - code.k
    if count != (1 << p):
        raise TableCacheError(
            f"cache holds {count} syndromes, code needs {1 << p}"
        )
    bytes_per = (n + 7) // 8
    body = blob[len(_CACHE_MAGIC) + 4 :]
    if len(body) != count * bytes_per:
        raise TableCacheError(
            f"cache body is {len(body)} bytes, expected {count * bytes_per}"
        )
    packed = np.frombuffer(body, dtype=np.uint8).reshape(count, bytes_per)
    leaders = np.unpackbits(packed, axis=1, bitorder="little")[:, :n]
    try:
        _check_leader_syndromes(code, leaders)
    except AssertionError:
        raise TableCacheError("cached table does not match this code") from None
    dist = _coset_weights(code)[1]
    if not np.array_equal(leaders.sum(axis=1), dist):
        raise TableCacheError("cached table holds a leader of more than minimum weight")
    leaders.setflags(write=False)
    return CosetTable(code=code, leaders=leaders, rho=int(dist.max()))
