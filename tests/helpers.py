"""Frozen reference values and independent oracles shared by the tests.

The matrices and coset-table contents below were transcribed from the
K5 reference construction (path tree 1-2-3-4-5, cut-set rows in tree
order e1, e5, e10, e7) and are asserted bit for bit.  The oracle
functions re-derive quantities by full enumeration, independently of
the library's own algorithms.
"""

from __future__ import annotations

import re
import struct

import numpy as np

from graphstego.gf2 import as_bits, syndrome_index
from graphstego.graphs import Graph, build_graph

# Generator of the K5 reference code: one row per chord (ascending:
# e2, e3, e4, e6, e8, e9), chord plus its tree path.
K5_GENERATOR_ROWS = [
    "1100100001",
    "1010101001",
    "1001100000",
    "0000110001",
    "0000001101",
    "0000101011",
]

# Parity check: one cut-set row per tree edge, rows in tree order
# e1, e5, e10, e7.
K5_PARITY_ROWS = [
    "1111000000",
    "0111110010",
    "0110010111",
    "0010001110",
]

# Complete coset table of the K5 reference code, by syndrome.
# Ten syndromes have a unique single-edge leader:
K5_SINGLE_EDGE_LEADERS = {
    "1000": 1,
    "1110": 2,
    "1111": 3,
    "1100": 4,
    "0100": 5,
    "0110": 6,
    "0001": 7,
    "0011": 8,
    "0111": 9,
    "0010": 10,
}

# The remaining five nonzero syndromes need two flips; each coset has
# exactly three minimum-weight members (edge-id pairs), derived by
# XOR-ing parity-check columns:
K5_DOUBLE_EDGE_COSETS = {
    "0101": {(5, 7), (6, 8), (9, 10)},
    "1001": {(1, 7), (3, 6), (2, 9)},
    "1010": {(1, 10), (2, 5), (4, 6)},
    "1011": {(1, 8), (4, 9), (3, 5)},
    "1101": {(4, 7), (3, 10), (2, 8)},
}

# The classically tabulated examples list only two alternatives per
# tied syndrome (trailed by an ellipsis); spot-check those exact pairs.
K5_DOUBLE_EDGE_EXAMPLES = {
    "0101": {(5, 7), (6, 8)},
    "1001": {(1, 7), (3, 6)},
    "1010": {(1, 10), (2, 5)},
    "1011": {(1, 8), (4, 9)},
    "1101": {(4, 7), (3, 10)},
}

# One worked block: carrier, two messages, expected outputs.
K5_CARRIER = "1101111011"
K5_EXAMPLE_KEEP = ("1100", "1101111011", 0)  # message already carried
K5_EXAMPLE_FLIP = ("1010", "1101101011", 1)  # syndrome 0110 -> flip edge 6


def bit_matrix(rows) -> np.ndarray:
    """Bit strings or 0/1 rows (a 2-D array too) as a 2-D uint8 matrix."""
    m = np.array([as_bits(r) for r in rows], dtype=np.uint8)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D bit matrix, got shape {m.shape}")
    return m


def mat_vec_mul(matrix, x) -> np.ndarray:
    """Multiply a bit matrix by a bit vector over GF(2), one row at a time.

    Row i of the result is the parity of ``matrix[i] & x``: the oracle
    for the library's column-syndrome engine.
    """
    m = bit_matrix(matrix)
    x = as_bits(x)
    if m.shape[1] != x.size:
        raise ValueError(f"dimension mismatch: matrix is {m.shape}, vector has {x.size}")
    # sum in int64 so long rows cannot wrap uint8
    return ((m & x).sum(axis=1, dtype=np.int64) & 1).astype(np.uint8)


def all_words(n: int) -> np.ndarray:
    """All 2^n bit vectors of length n, one per row."""
    span = np.arange(1 << n, dtype=np.int64)
    shifts = np.arange(n - 1, -1, -1, dtype=np.int64)
    return ((span[:, None] >> shifts) & 1).astype(np.uint8)


def min_weights_by_syndrome(code) -> np.ndarray:
    """Minimum coset weight per syndrome index, by full-space enumeration.

    Independent oracle for coset-table minimality; only sensible for
    n_len <= ~16.
    """
    n = code.n_len
    p = n - code.k
    words = all_words(n)
    syn = (words.astype(np.int64) @ code.parity_check.T.astype(np.int64)) & 1
    place = 1 << np.arange(p - 1, -1, -1, dtype=np.int64)
    idx = syn @ place
    weights = words.sum(axis=1, dtype=np.int64)
    best = np.full(1 << p, n + 1, dtype=np.int64)
    np.minimum.at(best, idx, weights)
    return best


def coset_members(code, syndrome_bits, weight: int) -> set[tuple[int, ...]]:
    """All edge-id sets of the given weight whose syndrome matches."""
    n = code.n_len
    p = n - code.k
    words = all_words(n)
    keep = words.sum(axis=1) == weight
    words = words[keep]
    syn = (words.astype(np.int64) @ code.parity_check.T.astype(np.int64)) & 1
    want = syndrome_index(syndrome_bits)
    place = 1 << np.arange(p - 1, -1, -1, dtype=np.int64)
    hit = words[(syn @ place) == want]
    return {tuple(int(j) + 1 for j in np.nonzero(row)[0]) for row in hit}


def boundary_of(graph: Graph, edge_bits) -> frozenset[int]:
    """Vertices with odd degree in the sub-multiset of selected edges."""
    degree: dict[int, int] = {}
    for bit, (_, u, v) in zip(edge_bits, graph.edges):
        if bit:
            degree[u] = degree.get(u, 0) + 1
            degree[v] = degree.get(v, 0) + 1
    return frozenset(v for v, d in degree.items() if d % 2 == 1)


def brute_min_tjoin_size(graph: Graph, terminals: frozenset[int]) -> int:
    """Smallest edge set with boundary == terminals, by 2^m enumeration."""
    m = graph.edge_count
    best = m + 1
    for word in all_words(m):
        w = int(word.sum())
        if w < best and boundary_of(graph, word) == terminals:
            best = w
    return best


def random_connected_graph(rng: np.random.Generator, max_extra: int = 6) -> Graph:
    """Random connected simple graph with a cycle, <= 12 edges.

    A random spanning tree first (each new vertex hangs off an earlier
    one), then 1..max_extra distinct extra edges.
    """
    v = int(rng.integers(3, 8))
    order = rng.permutation(v) + 1
    edges = []
    present = set()
    for i in range(1, v):
        a = int(order[int(rng.integers(0, i))])
        b = int(order[i])
        edges.append((a, b))
        present.add(frozenset((a, b)))
    missing = [
        (a, b)
        for a in range(1, v + 1)
        for b in range(a + 1, v + 1)
        if frozenset((a, b)) not in present
    ]
    extra = int(rng.integers(1, max_extra + 1))
    extra = min(extra, len(missing), 12 - len(edges))
    extra = max(extra, 1)
    picks = rng.choice(len(missing), size=extra, replace=False)
    edges.extend(missing[int(i)] for i in picks)
    return build_graph(v, edges)


def wheel_graph() -> Graph:
    """W5: a 5-cycle (vertices 2..6) plus a hub (vertex 1) joined to all."""
    rim = [(2, 3), (3, 4), (4, 5), (5, 6), (6, 2)]
    spokes = [(1, r) for r in range(2, 7)]
    return build_graph(6, spokes + rim)


def ring_graph(vertices: int) -> Graph:
    """The cycle on ``vertices`` vertices: its cycle code has n = vertices, p = vertices - 1."""
    return build_graph(vertices, [(i, i % vertices + 1) for i in range(1, vertices + 1)])


def random_graph(rng: np.random.Generator, vertices: int, edges: int) -> Graph:
    """Random connected simple graph with exactly ``edges`` edges.

    A random spanning tree on ``vertices`` vertices, then distinct
    extra edges drawn uniformly; its cycle code has p = vertices - 1.
    """
    order = rng.permutation(vertices) + 1
    chosen = [
        (int(order[int(rng.integers(0, i))]), int(order[i])) for i in range(1, vertices)
    ]
    present = {frozenset(e) for e in chosen}
    missing = [
        (a, b)
        for a in range(1, vertices + 1)
        for b in range(a + 1, vertices + 1)
        if frozenset((a, b)) not in present
    ]
    picks = rng.choice(len(missing), size=edges - len(chosen), replace=False)
    chosen.extend(missing[int(i)] for i in sorted(picks))
    return build_graph(vertices, chosen)


def bmp_bytes(width: int, height: int, rows: np.ndarray) -> bytes:
    """A 24-bit BMP with canonical headers around raw (height, stride) rows.

    ``rows`` holds each stored row with its padding bytes, so a test can
    put nonzero values there.
    """
    stride = (3 * width + 3) // 4 * 4
    assert rows.shape == (height, stride) and rows.dtype == np.uint8
    body = rows.tobytes()
    return (
        struct.pack("<2sIHHI", b"BM", 54 + len(body), 0, 0, 54)
        + struct.pack("<IiiHHIIiiII", 40, width, height, 1, 24, 0, len(body), 2835, 2835, 0, 0)
        + body
    )


def random_bmp_bytes(width: int, height: int, seed: int) -> bytes:
    """Uniform-random BMP, padding bytes random too."""
    stride = (3 * width + 3) // 4 * 4
    rows = np.random.default_rng(seed).integers(0, 256, (height, stride), dtype=np.uint8)
    return bmp_bytes(width, height, rows)


def random_pgm_bytes(width: int, height: int, seed: int) -> bytes:
    pixels = np.random.default_rng(seed).integers(0, 256, width * height, dtype=np.uint8)
    return b"P5\n%d %d\n255\n" % (width, height) + pixels.tobytes()


def gp83_edges() -> list[tuple[int, int]]:
    """Moebius-Kantor graph GP(8,3): outer 8-cycle, spokes, inner {8/3}."""
    edges = []
    for i in range(8):
        edges += [(i + 1, (i + 1) % 8 + 1), (i + 1, i + 9), (i + 9, (i + 3) % 8 + 9)]
    return edges


def embed_file_oracle(cover: bytes, payload: bytes, table) -> bytes:
    """The stego file that embedding ``payload`` in the image file ``cover`` must give.

    Shares no reader or writer with the library: the pixels are sliced
    from ``cover`` by the offset and row stride its header gives (read
    here by a regex or ``struct``), the framed payload is embedded a
    block at a time, H(t) by :func:`mat_vec_mul` and each leader
    unpacked from ``table.rows``, and the file is written by
    :func:`bmp_bytes` or a canonical PGM header.
    """
    if cover[:2] == b"BM":
        (offset,) = struct.unpack_from("<I", cover, 10)
        width, height = struct.unpack_from("<ii", cover, 18)
        stride = (3 * width + 3) // 4 * 4
        rows = np.frombuffer(cover, np.uint8, height * stride, offset).reshape(height, stride)
        pixels = rows[:, : 3 * width].copy()
    else:
        head = re.match(rb"P5\s+(?:#.*\n)*(\d+)\s+(\d+)\s+255\s", cover)
        width, height = int(head[1]), int(head[2])
        pixels = np.frombuffer(cover, np.uint8, width * height, head.end()).copy()
    code = table.code
    n, p, size = code.n_len, code.n_len - code.k, (code.n_len + 7) // 8
    frame = np.unpackbits(np.frombuffer(struct.pack(">I", 8 * len(payload)) + payload, np.uint8))
    frame = np.concatenate([frame, np.zeros(-frame.size % p, np.uint8)])
    flat = pixels.reshape(-1)
    for b in range(frame.size // p):
        block = flat[b * n : (b + 1) * n]
        syndrome = mat_vec_mul(code.parity_check, block & 1) ^ frame[b * p : (b + 1) * p]
        index = syndrome_index(syndrome)
        row = np.frombuffer(table.rows, np.uint8, size, index * size)
        block ^= np.unpackbits(row, count=n, bitorder="little")
    if cover[:2] == b"BM":
        padded = np.zeros((height, stride), np.uint8)
        padded[:, : 3 * width] = pixels
        return bmp_bytes(width, height, padded)
    return b"P5\n%d %d\n255\n" % (width, height) + pixels.tobytes()
