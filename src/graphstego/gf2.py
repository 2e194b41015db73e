"""Dense GF(2) bit-vector and bit-matrix arithmetic.

Bit vectors are 1-D numpy arrays of dtype uint8 with values in {0, 1};
bit matrices are the 2-D counterpart.  Index 0 holds the leftmost
printed symbol, so the string ``"1101"`` and ``[1, 1, 0, 1]`` denote
the same vector.  When a bit vector is read as a table index, bit 0 is
the most significant bit: ``"1100"`` indexes slot 12.

All operations are pure and never mutate their arguments.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence

import numpy as np


def _require_binary(arr: np.ndarray, what: str) -> None:
    """Raise ValueError unless every entry of ``arr`` is 0 or 1."""
    if not arr.size:
        return
    if arr.dtype == np.uint8:
        ok = arr.max() <= 1
    else:
        ok = np.isin(arr, (0, 1)).all()
    if not ok:
        raise ValueError(f"{what} entries must be 0 or 1")


def as_bits(values: Iterable[int] | str) -> np.ndarray:
    """Coerce a 0/1 sequence or a string like ``"0110"`` to a bit vector.

    Args:
        values: iterable of 0/1 ints, a numpy array, or a string of the
            characters ``0`` and ``1``.

    Returns:
        1-D uint8 array.

    Raises:
        ValueError: if any element is not 0 or 1, or the input is not 1-D.
    """
    if isinstance(values, str):
        try:
            values = [int(c) for c in values]
        except ValueError:
            raise ValueError(f"not a bit string: {values!r}") from None
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-D bit vector, got shape {arr.shape}")
    _require_binary(arr, "bit vector")
    return arr.astype(np.uint8)


def _bits_view(values) -> np.ndarray:
    """:func:`as_bits` for input that is only read: a 1-D uint8 array is checked, not copied."""
    if isinstance(values, np.ndarray) and values.dtype == np.uint8 and values.ndim == 1:
        _require_binary(values, "bit vector")
        return values
    return as_bits(values)


def as_bit_matrix(rows) -> np.ndarray:
    """Coerce nested 0/1 rows (or bit strings) to a 2-D uint8 matrix."""
    if isinstance(rows, np.ndarray) and rows.ndim == 2:
        arr = rows
    else:
        arr = np.asarray([as_bits(r) for r in rows])
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-D bit matrix, got shape {arr.shape}")
    _require_binary(arr, "bit matrix")
    return arr.astype(np.uint8)


def gf2_rank(matrix) -> int:
    """Rank of a bit matrix over GF(2), by Gaussian elimination."""
    work = as_bit_matrix(matrix).copy()
    rows, cols = work.shape
    rank = 0
    for col in range(cols):
        pivots = np.nonzero(work[rank:, col])[0]
        if pivots.size == 0:
            continue
        pivot = rank + int(pivots[0])
        if pivot != rank:
            work[[rank, pivot]] = work[[pivot, rank]]
        below = np.nonzero(work[rank + 1 :, col])[0] + rank + 1
        work[below] ^= work[rank]
        rank += 1
        if rank == rows:
            break
    return rank


def syndrome_index(bits) -> int:
    """Read a bit vector as an integer, bit 0 most significant.

    ``"1100"`` -> 12, so printed syndromes index tables in the order a
    human would write them down.
    """
    return column_syndromes(as_bits(bits)[:, None])[0]


def column_syndromes(matrix) -> list[int]:
    """Each column of a bit matrix read as an integer, row 0 most significant.

    Column j of a parity check is the syndrome of the word with only
    bit j set, so any word's syndrome is the XOR of the column
    syndromes of its set bits (see :func:`block_syndromes`).
    """
    m = as_bit_matrix(matrix)
    pad = -m.shape[0] % 8
    return [int.from_bytes(col.tobytes(), "big") >> pad for col in np.packbits(m, axis=0).T]


def block_syndromes(blocks: np.ndarray, columns: Sequence[int], width: int) -> np.ndarray:
    """Syndrome of each row of a block matrix: the XOR of its set columns.

    The rows are packed as one flat bit stream, so row i starts at bit
    i*n.  Bit offsets repeat every 8/gcd(n, 8) rows: for each row phase,
    each byte-wide digit of a row is a strided slice of the packed
    stream shifted by a constant, looked up in a 256-entry table of
    XORs of the eight columns it covers.  Table columns past n are
    zero, so bits of the next row that a digit takes in drop out.
    ``blocks`` is trusted: callers validate at their public entry
    points.

    Args:
        blocks: (N, len(columns)) uint8 array with entries in {0, 1}.
        columns: one integer per block position, as from
            :func:`column_syndromes`.
        width: syndrome length in bits.

    Returns:
        For ``width <= 64``, an (N,) array of the narrowest unsigned
        dtype holding ``width`` bits; above that, (N, ceil(width/64))
        uint64 words, most significant word first.  Either way a
        syndrome reads as :func:`syndrome_index` reads its bits.
    """
    n = len(columns)
    words = max(1, -(-width // 64))
    tail = () if width <= 64 else (words,)
    dtype = np.min_scalar_type((1 << min(width, 64)) - 1)
    shifts = range(64 * (words - 1), -1, -64)
    col_words = np.zeros((-(-n // 8) * 8, words), dtype=dtype)
    for j, c in enumerate(columns):
        col_words[j] = [(c >> s) & 0xFFFF_FFFF_FFFF_FFFF for s in shifts]
    col_words = col_words.reshape((-1,) + tail)
    tables = []  # tables[d][v]: XOR of the columns byte v selects in digit d, MSB first
    for b in range(0, len(col_words), 8):
        table = np.zeros((1,) + tail, dtype=dtype)
        for col in col_words[b : b + 8][::-1]:
            table = np.concatenate([table, table ^ col])
        tables.append(table)
    period = 8 // math.gcd(n, 8)
    step = n * period // 8  # packed bytes per period of rows
    # one zero byte past the end: the last row's last digit may read it
    packed = np.append(np.packbits(blocks.reshape(-1)), np.uint8(0))
    count = len(blocks)
    out = np.zeros((count,) + tail, dtype=dtype)
    for r in range(period):
        rows = len(range(r, count, period))
        base, sh = divmod(r * n, 8)
        for d, table in enumerate(tables):
            digit = packed[base + d :: step][:rows]
            if sh:
                digit = (digit << sh) | (packed[base + d + 1 :: step][:rows] >> (8 - sh))
            out[r::period] ^= np.take(table, digit, axis=0)
    return out


def syndrome_bits(syndromes: np.ndarray, width: int) -> np.ndarray:
    """Inverse of :func:`block_syndromes`' packing: one row of ``width`` bits per syndrome."""
    big = syndromes.astype(syndromes.dtype.newbyteorder(">"))
    row_bits = 8 * big.itemsize * math.prod(big.shape[1:])
    bits = np.unpackbits(big.view(np.uint8).reshape(-1)).reshape(len(big), row_bits)
    return bits[:, row_bits - width :]
