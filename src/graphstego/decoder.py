"""Syndrome -> minimum-flip lookup tables for cycle codes.

Two independent searches compute the minimum coset weight of every
syndrome, in plain Python on int bitsets (a set of syndromes or of
vertices is one int, a bit per member).  Each returns its weight
layers, layer w the set of members of minimum weight w:

* exhaustive coset search (:func:`_coset_layers`), a breadth-first
  search over the 2^p syndromes that uses only the parity check, and
* combinatorial optimisation (:func:`_tjoin_layers`), one minimum
  T-join per even vertex set, from a dynamic program over the sets.

The bridge between them: under the cut-set parity check, the syndrome
of a word marks a subset of tree edges, and the vertices touched an
odd number of times by that subset form an even set T.  The words
producing syndrome s are exactly the edge sets whose odd-degree
vertices are T, so the coset leader is a minimum T-join — found by
minimum-weight perfect matching of the terminals under shortest-path
distance.  The covering radius is the largest leader weight, i.e. the
largest minimum T-join over all even vertex sets T: either search's
last layer.

Tie rule.  Both table builders hand their weights to one fill, which
picks the lexicographically smallest minimum-weight pattern (by
edge-id set), so they return byte-identical tables.  The fill checks
the weights first, so a wrong weight cannot yield a wrong leader.

A table keeps its leaders packed, one row of ceil(n/8) bytes per
syndrome, in the layout of its cache file.  The builders, the fill,
:func:`minimum_t_join` and the 0/1 leader matrix that
:attr:`CosetTable.leaders` unpacks read numpy through the handle
:data:`graphstego.gf2.np`, which imports it on its first attribute
read; the searches, the covering radii, the size limit and the cache
(:func:`save_table`, :func:`load_table`) never do.
"""

from __future__ import annotations

import operator
import os
import struct
from functools import cached_property
from typing import TYPE_CHECKING

from .gf2 import _Record, as_bits, lane_syndromes, syndrome_index
from .graphs import Graph, GraphicalCode, _bfs, _bit_matrix

if TYPE_CHECKING:
    import numpy as np
else:
    from .gf2 import np

#: Most syndrome bits p = n - k that the builders and
#: covering_radius_tjoin accept; each costs about n * 2^p.
MAX_SYNDROME_BITS = 20

_CACHE_MAGIC = b"GCTABLE1"

_POPCOUNT = bytes(bin(b).count("1") for b in range(256))


class TableCacheError(ValueError):
    """Raised when a cached table file is malformed or does not match."""


class TableSizeError(ValueError):
    """Raised for codes with more than MAX_SYNDROME_BITS syndrome bits."""


def _check_size(p: int) -> None:
    if p > MAX_SYNDROME_BITS:
        raise TableSizeError(
            f"{p} syndrome bits exceed the table limit of {MAX_SYNDROME_BITS}"
        )


class CosetTable(_Record):
    """Complete syndrome -> coset-leader table for one code.

    ``rows`` holds the 2^p leaders packed, row i the leader whose
    syndrome reads i (bit 0 of the syndrome most significant): ceil(n/8)
    bytes a row, bit 0 of a row's byte 0 for edge 1, bits past edge n
    clear.  That is the body of a :func:`save_table` file.  ``rho`` is
    the covering radius.
    """

    code: GraphicalCode
    rows: bytes
    rho: int

    @cached_property
    def leaders(self) -> np.ndarray:
        """The leaders as a read-only (2^p, n) uint8 0/1 matrix, built on first use."""
        return _bit_matrix(self.rows, self.code.n_len)

    def leader(self, syndrome) -> np.ndarray:
        """Leader for a syndrome given as bits or as a table index."""
        p = self.code.n_len - self.code.k
        try:  # a Python or numpy integer is an index; a list, string or array is bits
            idx = operator.index(syndrome)
        except TypeError:
            idx = None
        if idx is None:
            s = as_bits(syndrome)
            if s.size != p:
                raise ValueError(f"syndrome must have {p} bits, got {s.size}")
            idx = syndrome_index(s)
        elif not 0 <= idx < len(self.leaders):
            raise ValueError(f"syndrome index {idx} out of range")
        return self.leaders[idx].copy()


def _row_weights(rows: bytes, n: int) -> bytes:
    """The weight of each packed row of n edges, one byte per row.

    Byte k of every row is one strided slice of ``rows``, and a
    popcount table turns it into a lane of one count per row.  The
    lanes are summed as ints: a row has at most 216 bits (n <= 210 in a
    simple graph with p <= 20), so no count carries into the next.
    """
    size = (n + 7) // 8
    total = sum(int.from_bytes(rows[k::size].translate(_POPCOUNT), "little") for k in range(size))
    return total.to_bytes(len(rows) // size, "little")


def _column_words(rows, n: int) -> list[int]:
    """Each check column as a word: the syndrome of its bit alone, a search step.

    ``rows`` are the check's rows as int bitsets, bit j for column j;
    row i is bit p-1-i of a word, so a word reads its column as
    :func:`~graphstego.gf2.syndrome_index` does.
    """
    words = [0] * n
    for i, row in enumerate(reversed(rows)):
        for j in range(n):
            if row >> j & 1:
                words[j] |= 1 << i
    return words


def _clear_masks(bits: int) -> list[int]:
    """``masks[j]`` marks, in a set of the 2^bits indices, those whose bit j is clear."""
    masks = []
    for j in range(bits):
        mask, width = (1 << (1 << j)) - 1, 2 << j  # one period: 2^j set, 2^j clear
        while width < 1 << bits:
            mask |= mask << width
            width <<= 1
        masks.append(mask)
    return masks


def _coset_layers(code: GraphicalCode) -> list[int]:
    """Syndromes by minimum coset weight: layer w is a set of syndrome indices.

    A breadth-first search in syndrome space that uses only the parity
    check.  XOR-ing a set by a column word is one swap per set bit j of
    the word: the members with bit j clear move up 2^j places and those
    with it set move down.  Layer w is the union of layer w-1 XORed by
    every column, less every syndrome already reached; the search stops
    at the first empty layer.
    """
    p = code.n_len - code.k
    masks = _clear_masks(p)
    columns = [word for word in _column_words(code.check_rows, code.n_len) if word]

    def swap(members: int, j: int) -> int:
        mask, shift = masks[j], 1 << j
        return (members & mask) << shift | (members >> shift) & mask

    layers, reached = [1], 1
    while True:
        # a column starts from the frontier already swapped on its lowest bit
        single = [swap(layers[-1], j) for j in range(p)]
        layer = 0
        for word in columns:
            j = (word & -word).bit_length() - 1
            moved = single[j]
            word >>= j + 1
            while word:
                j += 1
                if word & 1:
                    moved = swap(moved, j)
                word >>= 1
            layer |= moved
        layer &= ~reached
        if not layer:
            return layers
        reached |= layer
        layers.append(layer)


def _tjoin_layers(dist: list[list[int]]) -> list[int]:
    """Even subsets of t terminals by minimum perfect matching cost.

    ``dist`` is the t x t shortest-path matrix of the terminals; bit i
    of a subset stands for terminal i.  A minimum matching of T pairs
    its highest terminal a with some b and matches the rest minimally,
    so layer w is the union, over pairs b < a, of the sets of layer
    w - dist[a][b] below a that lack b, with a and b added, less every
    set already reached.  The sets below a are the first 2^a indices,
    so this work shrinks with a.  The layers go on until every one of
    the 2^(t-1) even subsets is reached, which a connected graph
    ensures.  A layer may be empty when the matching costs skip a
    weight, as when no two terminals are adjacent; when every vertex is
    a terminal, dropping one edge from a minimum T-join leaves one for
    a set of the layer below, so no layer is empty.
    """
    t = len(dist)
    masks = _clear_masks(t)
    partners = [{} for _ in range(t)]  # partners[a][d]: the b < a at distance d
    for a in range(t):
        for b in range(a):
            partners[a].setdefault(dist[a][b], []).append(b)
    layers, reached = [1], 1
    while reached.bit_count() < 1 << t >> 1:
        w, layer = len(layers), 0
        for a in range(1, t):
            below, paired = (1 << (1 << a)) - 1, 0
            for d, bs in partners[a].items():
                if d <= w:
                    sets = layers[w - d] & below
                    for b in bs:
                        paired |= (sets & masks[b]) << (1 << b)
            layer |= paired << (1 << a)
        layer &= ~reached
        reached |= layer
        layers.append(layer)
    return layers


def _all_pairs(g: Graph) -> list[list[int]]:
    """Hop counts between every two vertices, one BFS per vertex."""
    return [_bfs(g, source)[0] for source in range(1, g.vertex_count + 1)]


def _weights(layers: list[int], bits: int) -> bytes:
    """Layers over the 2^bits indices as one weight byte per index, 0 where no layer reaches.

    Bit t of the weights is one lane of a byte per index, 1 where the
    index's layer has bit t set, and the lanes are summed as ints.
    """
    count, total = 1 << bits, 0
    for t in range((len(layers) - 1).bit_length()):
        plane = sum(layer for w, layer in enumerate(layers) if w >> t & 1)  # disjoint sets
        digits = format(plane, f"0{count}b").encode("ascii")[::-1]  # index 0 first
        total += int.from_bytes(digits.translate(bytes.maketrans(b"01", b"\0\1")), "little") << t
    return total.to_bytes(count, "little")


def _table_from_weights(code: GraphicalCode, dist) -> CosetTable:
    """Coset leaders whose weights are ``dist``, one byte a syndrome, one weight layer at a time.

    Each leader is the lexicographically smallest (by edge-id set)
    minimum-weight pattern of its coset: its least edge j is the
    smallest with ``dist[s ^ col[j]] == dist[s] - 1``, and the rest is
    the leader of ``s ^ col[j]``, filled one layer earlier.

    Raises AssertionError unless ``dist[0] == 0`` and every other
    syndrome at weight w has a neighbour ``s ^ col[j]`` at w-1 and none
    below.  That proves ``dist`` holds the minimum coset weights, so
    every leader lies in its coset and has minimum weight.
    """
    n = code.n_len
    dist = np.frombuffer(dist, dtype=np.int8)  # as :func:`_weights` gives them
    columns = np.array(_column_words(code.check_rows, n), dtype=np.uint32)
    if dist[0] != 0 or (dist[1:] < 1).any():
        raise AssertionError("coset weights inconsistent with parity check")
    rho = int(dist.max())
    leaders = np.zeros((len(dist), n), dtype=np.uint8)
    for w in range(1, rho + 1):
        layer = np.flatnonzero(dist == w).astype(np.uint32)
        first = np.zeros(layer.size, dtype=np.intp)
        low = np.full(layer.size, w, dtype=dist.dtype)
        for j in range(n - 1, -1, -1):
            near = dist[layer ^ columns[j]]
            first[near == w - 1] = j
            np.minimum(low, near, out=low)
        if (low != w - 1).any():
            raise AssertionError("coset weights inconsistent with parity check")
        leaders[layer] = leaders[layer ^ columns[first]]
        leaders[layer, first] = 1
    leaders.setflags(write=False)
    rows = np.packbits(leaders, axis=1, bitorder="little").tobytes()
    table = CosetTable(code=code, rows=rows, rho=rho)
    table.__dict__["leaders"] = leaders  # the filled matrix is the property's first value
    return table


def build_coset_table_bruteforce(code: GraphicalCode) -> CosetTable:
    """Exhaustive coset search: a breadth-first search over the 2^p syndromes.

    Uses only the parity check.  The leaders are filled from the
    search's coset weights by :func:`_table_from_weights`.

    Raises:
        TableSizeError: if p exceeds :data:`MAX_SYNDROME_BITS`.
    """
    p = code.n_len - code.k
    _check_size(p)
    return _table_from_weights(code, _weights(_coset_layers(code), p))


def covering_radius_bruteforce(source: CosetTable | GraphicalCode) -> int:
    """Largest leader weight of a complete table, or of a code's table.

    Given a code, no table is built: the radius is the last weight
    layer of the syndrome-space BFS that
    :func:`build_coset_table_bruteforce` starts with, a few 2^p-bit
    sets of work space instead of n * 2^p bytes.

    Raises:
        TableSizeError: for a code whose p exceeds :data:`MAX_SYNDROME_BITS`.
    """
    if isinstance(source, CosetTable):  # read from the rows, not from rho
        return max(_row_weights(source.rows, source.code.n_len))
    _check_size(source.n_len - source.k)
    return len(_coset_layers(source)) - 1


def syndrome_to_terminals(code: GraphicalCode, syndrome) -> frozenset[int]:
    """Vertices met an odd number of times by the syndrome's tree edges.

    Syndrome bit i selects the i-th tree edge in the code's row order;
    the returned set is always even-sized.
    """
    s = as_bits(syndrome)
    p = code.n_len - code.k
    if s.size != p:
        raise ValueError(f"syndrome must have {p} bits, got {s.size}")
    mask = 0
    for bit, eid in zip(s, code.tree.tree_edges):
        if bit:
            mask ^= _ends(code.graph, eid)
    return frozenset(v + 1 for v in range(mask.bit_length()) if mask >> v & 1)


def _ends(g: Graph, eid: int) -> int:
    """Vertex mask of edge ``eid``'s two endpoints (bit v-1 = vertex v)."""
    _, a, b = g.edges[eid - 1]
    return (1 << (a - 1)) ^ (1 << (b - 1))


def minimum_t_join(g: Graph, terminals) -> np.ndarray:
    """Minimum-cardinality edge set with odd degree exactly at ``terminals``.

    Pairs the terminals by minimum-weight perfect matching under
    shortest-path distance (:func:`_tjoin_layers`) and XORs the matched
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
    searches = [_bfs(g, a) for a in t_set]
    dist = [[hops[b - 1] for b in t_set] for hops, _ in searches]
    dp = _weights(_tjoin_layers(dist), len(t_set))
    join = 0
    mask = (1 << len(t_set)) - 1
    while mask:
        # the lowest terminal a and the smallest partner b attaining dp[mask]
        a = (mask & -mask).bit_length() - 1
        rest = mask ^ (1 << a)
        b = a + 1
        while not (rest >> b & 1 and dist[a][b] + dp[rest ^ (1 << b)] == dp[mask]):
            b += 1
        join ^= searches[a][1][t_set[b] - 1]
        mask = rest ^ (1 << b)
    return np.array([join >> e & 1 for e in range(g.edge_count)], dtype=np.uint8)


def build_coset_table_tjoin(code: GraphicalCode) -> CosetTable:
    """Build the full table from minimum T-joins of every even vertex set.

    Syndrome s maps to its terminal mask (the XOR of its tree edges'
    endpoint masks), one to one onto the even vertex subsets.  One
    :func:`_tjoin_layers` over all vertices gives each mask's minimum
    T-join size, the coset weight of s, and :func:`_table_from_weights`
    fills the leaders from those weights.  Costs a 2^v = 2^(p+1)
    subset DP instead of enumerating 2^n error patterns.

    Raises:
        TableSizeError: if p exceeds :data:`MAX_SYNDROME_BITS`.
    """
    g = code.graph
    _check_size(code.n_len - code.k)
    terminal_mask = np.zeros(1, dtype=np.int32)  # v = p + 1 <= 21 bits
    for eid in reversed(code.tree.tree_edges):  # last tree edge = index bit 0
        terminal_mask = np.concatenate([terminal_mask, terminal_mask ^ _ends(g, eid)])
    weights = np.frombuffer(_weights(_tjoin_layers(_all_pairs(g)), g.vertex_count), np.int8)
    return _table_from_weights(code, weights[terminal_mask])


def covering_radius_tjoin(g: Graph) -> int:
    """Covering radius as the largest minimum T-join over even vertex sets.

    Raises:
        TableSizeError: if p = v - 1 exceeds :data:`MAX_SYNDROME_BITS`
            (the enumeration is exponential in the vertex count).
    """
    _check_size(g.vertex_count - 1)
    return len(_tjoin_layers(_all_pairs(g))) - 1


def save_table(table: CosetTable, path) -> None:
    """Write a table cache: ``GCTABLE1`` magic, big-endian u32 syndrome
    count, then the table's ``rows``, one leader per syndrome as
    ceil(n/8) packed bytes (bit 0 of byte 0 = edge 1)."""
    count = 1 << (table.code.n_len - table.code.k)
    assert len(table.rows) == count * ((table.code.n_len + 7) // 8)
    with open(path, "wb") as fh:
        fh.write(_CACHE_MAGIC)
        fh.write(struct.pack(">I", count))
        fh.write(table.rows)


def load_table(path, code: GraphicalCode) -> CosetTable:
    """Read a table cache and verify it belongs to ``code``.

    Every leader's syndrome is recomputed against the live parity
    check, so a cache written for a different codebook is rejected, and
    every leader's weight must equal its coset's minimum weight (from
    the same syndrome-space BFS the exhaustive builder runs, one byte a
    syndrome by :func:`_weights`).  Both checks read byte k of every
    row at once, as one strided slice that a 256-entry table
    translates into a lane of one byte per row: byte q
    of what byte k adds to the row's syndrome index
    (:func:`~graphstego.gf2.lane_syndromes`, which the file codec's
    small-frame extract shares), or its bit count.  The lanes are
    XORed, or summed, as ints.

    Raises:
        TableSizeError: if the code's p exceeds :data:`MAX_SYNDROME_BITS`.
        TableCacheError: on bad magic, wrong syndrome count, truncation,
            a bit set past edge n, a syndrome mismatch, or a leader
            that is not minimal.
    """
    n = code.n_len
    p = n - code.k
    _check_size(p)
    size = (n + 7) // 8
    with open(path, "rb") as fh:
        header = fh.read(len(_CACHE_MAGIC) + 4)
        if header[: len(_CACHE_MAGIC)] != _CACHE_MAGIC:
            raise TableCacheError("not a table cache (bad magic)")
        if len(header) < len(_CACHE_MAGIC) + 4:
            raise TableCacheError("truncated table cache header")
        (count,) = struct.unpack(">I", header[len(_CACHE_MAGIC) :])
        if count != (1 << p):
            raise TableCacheError(
                f"cache holds {count} syndromes, code needs {1 << p}"
            )
        rows = fh.read(count * size + 1)  # one byte more shows an over-long body
        if len(rows) != count * size:
            body = max(len(rows), os.fstat(fh.fileno()).st_size - len(header))
            raise TableCacheError(f"cache body is {body} bytes, expected {count * size}")
    if n % 8 and rows[size - 1 :: size].translate(None, bytes(range(1 << n % 8))):
        raise TableCacheError(f"cached table sets a bit past edge {n}")
    words = _column_words(code.check_rows, n)  # words[j]: the syndrome index of edge j alone
    # index[q]: byte q of every row's syndrome index, one lane; byte k of a row holds edges 8k..
    index = lane_syndromes(((rows[k::size], words[8 * k : 8 * k + 8]) for k in range(size)),
                           (p + 7) // 8)
    for q, got in enumerate(index):
        run = 1 << 8 * q  # byte q of the indices 0..count-1: each value for run rows in turn
        block = b"".join(bytes([v]) * run for v in range(min(256, count // run)))
        if got != int.from_bytes(block * (count // len(block)), "little"):
            raise TableCacheError("cached table does not match this code")
    layers = _coset_layers(code)
    if _row_weights(rows, n) != _weights(layers, p):
        raise TableCacheError("cached table holds a leader of more than minimum weight")
    return CosetTable(code=code, rows=rows, rho=len(layers) - 1)
