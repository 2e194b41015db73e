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


def bits_to_str(bits: np.ndarray) -> str:
    """Render a bit vector as a compact string, e.g. ``"0110"``."""
    return "".join("1" if b else "0" for b in as_bits(bits))


def vec_add(a, b) -> np.ndarray:
    """XOR two bit vectors of equal length."""
    a = as_bits(a)
    b = as_bits(b)
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.size} vs {b.size}")
    return a ^ b


def mat_vec_mul(matrix, x) -> np.ndarray:
    """Multiply a bit matrix by a bit vector over GF(2).

    Row i of the result is the parity of ``matrix[i] & x``.
    """
    m = as_bit_matrix(matrix)
    x = as_bits(x)
    if m.shape[1] != x.size:
        raise ValueError(f"dimension mismatch: matrix is {m.shape}, vector has {x.size}")
    # sum in int64 so long rows cannot wrap uint8
    return ((m & x).sum(axis=1, dtype=np.int64) & 1).astype(np.uint8)


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


def weight(bits) -> int:
    """Hamming weight (number of 1 bits)."""
    return int(as_bits(bits).sum())


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

    Each row is packed into bytes, and each byte is looked up in a
    256-entry table of XORs of the eight columns it covers.  ``blocks``
    is trusted: callers validate at their public entry points.

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
    words = max(1, -(-width // 64))
    tail = () if width <= 64 else (words,)
    dtype = np.min_scalar_type((1 << min(width, 64)) - 1)
    shifts = range(64 * (words - 1), -1, -64)
    col_words = np.zeros((-(-len(columns) // 8) * 8, words), dtype=dtype)
    for j, c in enumerate(columns):
        col_words[j] = [(c >> s) & 0xFFFF_FFFF_FFFF_FFFF for s in shifts]
    col_words = col_words.reshape((-1,) + tail)
    # pad rows to whole bytes so one flat packbits does every row
    padded = np.zeros((blocks.shape[0], len(col_words)), dtype=np.uint8)
    padded[:, : len(columns)] = blocks
    packed = np.packbits(padded.reshape(-1)).reshape(len(padded), len(col_words) // 8)
    out = np.zeros((len(padded),) + tail, dtype=dtype)
    for b in range(packed.shape[1]):
        # table[v] = XOR of the columns selected by byte value v (MSB first)
        table = np.zeros((1,) + tail, dtype=dtype)
        for col in col_words[8 * b : 8 * b + 8][::-1]:
            table = np.concatenate([table, table ^ col])
        out ^= np.take(table, packed[:, b], axis=0)
    return out


def syndrome_bits(syndromes: np.ndarray, width: int) -> np.ndarray:
    """Inverse of :func:`block_syndromes`' packing: one row of ``width`` bits per syndrome."""
    big = syndromes.astype(syndromes.dtype.newbyteorder(">"))
    row_bits = 8 * big.itemsize * math.prod(big.shape[1:])
    bits = np.unpackbits(big.view(np.uint8).reshape(-1)).reshape(len(big), row_bits)
    return bits[:, row_bits - width :]


def index_to_bits(index: int, width: int) -> np.ndarray:
    """Inverse of :func:`syndrome_index`: integer -> bit vector of ``width``."""
    if width < 0:
        raise ValueError("width must be non-negative")
    if not 0 <= index < (1 << width):
        raise ValueError(f"index {index} out of range for width {width}")
    return np.array([(index >> (width - 1 - i)) & 1 for i in range(width)], dtype=np.uint8)
