"""Syndrome -> minimum-flip lookup tables for cycle codes.

Two independent builders produce tables with identical leader weights:

* exhaustive coset search, enumerating error patterns by increasing
  weight until every syndrome has a leader, and
* combinatorial optimisation, solving one minimum T-join per syndrome.

The bridge between them: under the cut-set parity check, the syndrome
of a word marks a subset of tree edges, and the vertices touched an
odd number of times by that subset form an even set T.  The words
producing syndrome s are exactly the edge sets whose odd-degree
vertices are T, so the coset leader is a minimum T-join — found by
minimum-weight perfect matching of the terminals under shortest-path
distance.  The covering radius is the largest leader weight, i.e. the
largest minimum T-join over all even vertex sets T.

Exhaustive search guarantees the lexicographically smallest leader
among minimum-weight candidates (patterns are generated in
lexicographic edge-id order); the T-join builder is deterministic but
may pick a different leader of the same weight when ties exist.
"""

from __future__ import annotations

import struct
from collections import deque
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .gf2 import as_bits, block_syndromes, column_syndromes, index_to_bits, syndrome_index
from .graphs import Graph, GraphicalCode, _adjacency

#: Largest code length build_coset_table_bruteforce will attempt.
EXHAUSTIVE_LIMIT = 24
#: Largest vertex count covering_radius_tjoin will enumerate.
TJOIN_ENUM_LIMIT = 16

_CACHE_MAGIC = b"GCTABLE1"


class TableCacheError(ValueError):
    """Raised when a cached table file is malformed or does not match."""


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


def build_coset_table_bruteforce(code: GraphicalCode, max_len: int = EXHAUSTIVE_LIMIT) -> CosetTable:
    """Exhaustive coset search over error patterns of increasing weight.

    First pattern found per syndrome wins, so each leader is the
    lexicographically smallest (by edge-id set) among minimum-weight
    candidates.

    Raises:
        ValueError: if ``code.n_len > max_len`` — use
            :func:`build_coset_table_tjoin` instead.
    """
    n = code.n_len
    if n > max_len:
        raise ValueError(
            f"code length {n} exceeds exhaustive limit {max_len}; "
            "use build_coset_table_tjoin"
        )
    p = n - code.k
    count = 1 << p
    col_syndrome = column_syndromes(code.parity_check)
    leaders = np.zeros((count, n), dtype=np.uint8)
    found = np.zeros(count, dtype=bool)
    found[0] = True
    remaining = count - 1
    rho = 0
    for w in range(1, n + 1):
        if remaining == 0:
            break
        for combo in combinations(range(n), w):
            s = 0
            for j in combo:
                s ^= col_syndrome[j]
            if not found[s]:
                found[s] = True
                leaders[s, list(combo)] = 1
                rho = w
                remaining -= 1
                if remaining == 0:
                    break
    if remaining:
        raise ValueError("parity check does not reach every syndrome")
    leaders.setflags(write=False)
    return CosetTable(code=code, leaders=leaders, rho=rho)


def covering_radius_bruteforce(table: CosetTable) -> int:
    """Largest leader weight of a complete table."""
    return int(table.leaders.sum(axis=1).max())


def syndrome_to_terminals(code: GraphicalCode, syndrome) -> frozenset[int]:
    """Vertices met an odd number of times by the syndrome's tree edges.

    Syndrome bit i selects the i-th tree edge in the code's row order;
    the returned set is always even-sized.
    """
    s = as_bits(syndrome)
    p = code.n_len - code.k
    if s.size != p:
        raise ValueError(f"syndrome must have {p} bits, got {s.size}")
    by_id = {eid: (u, v) for eid, u, v in code.graph.edges}
    degree: dict[int, int] = {}
    for bit, eid in zip(s, code.tree.tree_edges):
        if bit:
            u, v = by_id[eid]
            degree[u] = degree.get(u, 0) + 1
            degree[v] = degree.get(v, 0) + 1
    return frozenset(v for v, deg in degree.items() if deg % 2 == 1)


def _bfs_tree(adj, source: int, vertex_count: int):
    """Shortest-path tree: (dist, parent_vertex, parent_edge) arrays."""
    dist = np.full(vertex_count + 1, -1, dtype=np.int64)
    parent_vertex = np.zeros(vertex_count + 1, dtype=np.int64)
    parent_edge = np.zeros(vertex_count + 1, dtype=np.int64)
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for eid, w in adj[u]:
            if dist[w] < 0:
                dist[w] = dist[u] + 1
                parent_vertex[w] = u
                parent_edge[w] = eid
                queue.append(w)
    return dist, parent_vertex, parent_edge


def _path_vector(bfs, target: int, edge_count: int) -> np.ndarray:
    """Edge-indicator vector of the tree path from a BFS source to target."""
    dist, parent_vertex, parent_edge = bfs
    vec = np.zeros(edge_count, dtype=np.uint8)
    x = target
    while dist[x] > 0:
        vec[parent_edge[x] - 1] ^= 1
        x = parent_vertex[x]
    return vec


def _min_join_sizes(dist: np.ndarray, vertex_count: int) -> np.ndarray:
    """Minimum T-join size for every even vertex subset, as a DP table.

    Subsets are bitmasks (vertex i <-> bit i-1).  dp[T] = min perfect
    matching of T under shortest-path distance: match T's lowest vertex
    against each other member and recurse.  Odd masks stay at -1.
    """
    full = 1 << vertex_count
    dp = np.full(full, -1, dtype=np.int64)
    dp[0] = 0
    for mask in range(1, full):
        if bin(mask).count("1") % 2:
            continue
        a = (mask & -mask).bit_length()  # lowest vertex in T
        rest = mask & ~(1 << (a - 1))
        best = -1
        b_bits = rest
        while b_bits:
            low = b_bits & -b_bits
            b = low.bit_length()
            cand = dist[a, b] + dp[rest & ~low]
            if best < 0 or cand < best:
                best = cand
            b_bits &= b_bits - 1
        dp[mask] = best
    return dp


def _match_terminals(dist: np.ndarray, dp: np.ndarray, mask: int) -> list[tuple[int, int]]:
    """Recover one optimal pairing from the DP table (first tie wins)."""
    pairs = []
    while mask:
        low = mask & -mask
        a = low.bit_length()
        rest = mask & ~low
        b_bits = rest
        while b_bits:
            blow = b_bits & -b_bits
            b = blow.bit_length()
            if dist[a, b] + dp[rest & ~blow] == dp[mask]:
                pairs.append((a, b))
                mask = rest & ~blow
                break
            b_bits &= b_bits - 1
        else:
            raise AssertionError("inconsistent matching table")
    return pairs


def minimum_t_join(g: Graph, terminals) -> np.ndarray:
    """Minimum-cardinality edge set with odd degree exactly at ``terminals``.

    Pairs the terminals by minimum-weight perfect matching under
    shortest-path distance and XORs the matched shortest paths; the
    result's weight equals the matching cost.

    Raises:
        ValueError: if ``terminals`` is odd-sized or out of range.
    """
    t_set = sorted({int(t) for t in terminals})
    if len(t_set) % 2:
        raise ValueError(f"terminal set must be even-sized, got {len(t_set)}")
    for t in t_set:
        if not 1 <= t <= g.vertex_count:
            raise ValueError(f"terminal {t} out of range")
    m = g.edge_count
    if not t_set:
        return np.zeros(m, dtype=np.uint8)
    adj = _adjacency(g)
    bfs = {t: _bfs_tree(adj, t, g.vertex_count) for t in t_set}
    dist = np.zeros((g.vertex_count + 1, g.vertex_count + 1), dtype=np.int64)
    for t in t_set:
        dist[t] = bfs[t][0]
    mask = 0
    for t in t_set:
        mask |= 1 << (t - 1)
    dp = _min_join_sizes_sparse(dist, mask)
    join = np.zeros(m, dtype=np.uint8)
    for a, b in _match_terminals(dist, dp, mask):
        join ^= _path_vector(bfs[a], b, m)
    return join


def _min_join_sizes_sparse(dist: np.ndarray, full_mask: int) -> dict[int, int]:
    """Memoised DP over just the subsets of one terminal mask.

    Covers every mask :func:`_match_terminals` can query (both walk
    lowest-vertex-first), without touching the full 2^v table.
    """
    dp: dict[int, int] = {0: 0}

    def solve(mask: int) -> int:
        cached = dp.get(mask)
        if cached is not None:
            return cached
        low = mask & -mask
        a = low.bit_length()
        rest = mask & ~low
        best = -1
        b_bits = rest
        while b_bits:
            blow = b_bits & -b_bits
            cand = int(dist[a, blow.bit_length()]) + solve(rest & ~blow)
            if best < 0 or cand < best:
                best = cand
            b_bits &= b_bits - 1
        dp[mask] = best
        return best

    solve(full_mask)
    return dp


def build_coset_table_tjoin(code: GraphicalCode) -> CosetTable:
    """Build the full table by solving a minimum T-join per syndrome.

    Scales with 2^(v-1) syndromes plus a 2^v matching DP, instead of
    enumerating 2^n error patterns.
    """
    g = code.graph
    v, m = g.vertex_count, g.edge_count
    p = m - code.k
    count = 1 << p
    adj = _adjacency(g)
    bfs = [None] + [_bfs_tree(adj, u, v) for u in range(1, v + 1)]
    dist = np.zeros((v + 1, v + 1), dtype=np.int64)
    for u in range(1, v + 1):
        dist[u] = bfs[u][0]
    dp = _min_join_sizes(dist, v)
    leaders = np.zeros((count, m), dtype=np.uint8)
    for idx in range(1, count):
        terminals = syndrome_to_terminals(code, index_to_bits(idx, p))
        mask = 0
        for t in terminals:
            mask |= 1 << (t - 1)
        join = np.zeros(m, dtype=np.uint8)
        for a, b in _match_terminals(dist, dp, mask):
            join ^= _path_vector(bfs[a], b, m)
        leaders[idx] = join
    _check_leader_syndromes(code, leaders)
    rho = int(leaders.sum(axis=1).max())
    leaders.setflags(write=False)
    return CosetTable(code=code, leaders=leaders, rho=rho)


def covering_radius_tjoin(g: Graph, max_vertices: int = TJOIN_ENUM_LIMIT) -> int:
    """Covering radius as the largest minimum T-join over even vertex sets.

    Raises:
        ValueError: if the graph has more than ``max_vertices`` vertices
            (the enumeration is exponential in the vertex count).
    """
    v = g.vertex_count
    if v > max_vertices:
        raise ValueError(
            f"{v} vertices exceeds enumeration limit {max_vertices}"
        )
    adj = _adjacency(g)
    dist = np.zeros((v + 1, v + 1), dtype=np.int64)
    for u in range(1, v + 1):
        dist[u] = _bfs_tree(adj, u, v)[0]
    dp = _min_join_sizes(dist, v)
    return int(dp.max())


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
    check, so a cache written for a different codebook is rejected.

    Raises:
        TableCacheError: on bad magic, wrong syndrome count, truncation,
            or a syndrome mismatch.
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
    rho = int(leaders.sum(axis=1).max())
    leaders.setflags(write=False)
    return CosetTable(code=code, leaders=leaders, rho=rho)
