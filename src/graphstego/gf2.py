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
from collections.abc import Iterable

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
    work = as_bit_matrix(matrix)  # a fresh array: eliminated in place
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
    syndromes of its set bits: the coset-table builders' search steps.
    ``matrix`` is trusted: a uint8 array of 0/1 entries, validated by the caller.
    """
    pad = -matrix.shape[0] % 8
    return [int.from_bytes(col.tobytes(), "big") >> pad for col in np.packbits(matrix, axis=0).T]


def block_syndromes(blocks: np.ndarray, check: np.ndarray) -> np.ndarray:
    """Syndrome of each row of a block matrix under the parity check ``check``.

    A row word is the packed syndrome stream of ``check`` padded on top
    with zero rows to 8, 16, 32 or 64 bits, read big-endian.  ``blocks``
    and ``check`` are trusted: callers validate at their public entry
    points.

    Args:
        blocks: (N, n) uint8 array with entries in {0, 1}.
        check: (width, n) parity-check bit matrix.

    Returns:
        An (N,) array of the narrowest unsigned dtype holding ``width``
        bits, which must not exceed 64 (ValueError; wider syndromes come
        only from :func:`stream_syndromes`); a syndrome reads as
        :func:`syndrome_index` reads.
    """
    width, n = check.shape
    if width > 64:
        raise ValueError(f"a row syndrome holds at most 64 bits, got {width}: use stream_syndromes")
    size = np.min_scalar_type((1 << width) - 1).itemsize
    words = np.zeros((8 * size, n), dtype=np.uint8)
    words[8 * size - width :] = check
    out = stream_syndromes(np.packbits(blocks.reshape(-1)), len(blocks), syndrome_tables(words))
    return out.view(f">u{size}").astype(f"u{size}")


class SyndromeTables:
    """Byte lookup tables of one code's packed syndromes over a group of rows.

    A group is ``rows`` consecutive rows of a packed stream, ``in_bytes``
    whole bytes.  Output slot s of a group is the XOR of ``table[v]``
    over the ``(b, table)`` pairs of ``lookups[s]``, where v is the
    group's input byte b.  (A plain class: a dataclass would add about
    a millisecond to every ``import graphstego``.)
    """

    def __init__(self, rows: int, in_bytes: int, width: int, dtype: np.dtype,
                 lookups: tuple[tuple[tuple[int, np.ndarray], ...], ...]):
        self.rows = rows
        self.in_bytes = in_bytes
        self.width = width
        self.dtype = dtype
        self.lookups = lookups


def syndrome_tables(check: np.ndarray) -> SyndromeTables:
    """Tables for :func:`stream_syndromes`, built once per parity check.

    ``check`` is a (width, n) bit matrix, trusted.  The output is the
    syndromes' own packed stream, ``width`` bits per row with no gaps,
    for any width, and a slot is a word of up to 8 of its bytes, stored
    in stream order.  A row's syndrome that spans k output bytes would
    cost each of its input bytes k lookups into one-byte slots, but
    only one or two into a word.

    A group is the fewest rows whose input and output both fill whole
    bytes: lcm(8/gcd(n, 8), 8/gcd(width, 8)) <= 8 rows.
    """
    width, n = check.shape
    rows = max(8 // math.gcd(n, 8), 8 // math.gcd(width, 8))  # both are powers of two
    out_bytes = rows * width // 8
    dtype = np.dtype(f"u{min(8, 1 << (out_bytes - 1).bit_length())}")
    span = -(-out_bytes // dtype.itemsize) * dtype.itemsize * 8
    # effect[x]: the output bits of a group that input bit x flips
    effect = np.zeros((rows, n, span), dtype=np.uint8)
    for r in range(rows):
        effect[r, :, r * width : (r + 1) * width] = check.T
    contrib = np.packbits(effect.reshape(rows * n, span), axis=1).view(dtype)
    contrib = contrib.reshape(rows * n // 8, 8, -1)  # input byte, bit (MSB first), slot
    reached = contrib.any(axis=1)  # (byte, slot)
    inputs, slots = np.nonzero(reached)  # one lookup per (input byte, slot) pair
    pair_bits = contrib[inputs, :, slots]  # (lookup, bit)
    table = np.zeros((256, len(inputs)), dtype=dtype)  # (byte value, lookup)
    for bit in range(8):  # the values whose top set bit is ``bit``, from those below it
        np.bitwise_xor(table[: 1 << bit], pair_bits[:, 7 - bit], out=table[1 << bit : 2 << bit])
    lookups = [[] for _ in range(reached.shape[1])]
    for b, s, t in zip(inputs.tolist(), slots.tolist(), np.ascontiguousarray(table.swapaxes(0, 1))):
        lookups[s].append((b, t))
    return SyndromeTables(
        rows=rows,
        in_bytes=rows * n // 8,
        width=width,
        dtype=dtype,
        lookups=tuple(map(tuple, lookups)),
    )


def stream_syndromes(packed: np.ndarray, count: int, tables: SyndromeTables) -> np.ndarray:
    """Syndromes of ``count`` rows read from a packed bit stream.

    ``packed`` holds the rows MSB first with no per-row padding, so row
    i starts at bit i*n; bits past its end read as zero.  The stream is
    read as whole groups of rows (:func:`syndrome_tables`), each byte
    looked up as it is: no shifts.  Only a last partial group, or one
    that runs past the end of ``packed``, is copied into a zero-filled
    group first.

    Returns:
        The ``ceil(count * width / 8)`` bytes of the syndromes' packed
        stream, uint8, the unused bits of the last byte zero.
    """
    P, B = tables.rows, tables.in_bytes
    groups = -(-count // P)
    full = min(count // P, len(packed) // B)
    out = np.empty((groups, len(tables.lookups)), dtype=tables.dtype)
    if full:
        _lookup(packed[: full * B].reshape(full, B), tables, out[:full])
    if groups > full:
        rest = np.zeros((groups - full) * B, dtype=np.uint8)
        src = packed[full * B : groups * B]
        rest[: len(src)] = src
        _lookup(rest.reshape(-1, B), tables, out[full:])
    bits = count * tables.width
    out = out.view(np.uint8)[:, : P * tables.width // 8].reshape(-1)[: -(-bits // 8)]
    if bits % 8:
        out[-1] &= 0xFF << (8 - bits % 8) & 0xFF  # bits of rows past ``count``
    return out


def _lookup(data: np.ndarray, tables: SyndromeTables, out: np.ndarray) -> None:
    """Fill ``out[g, s]`` for the (G, in_bytes) groups ``data``: one table per input byte."""
    for s, pairs in enumerate(tables.lookups):
        if not pairs:
            out[:, s] = 0
            continue
        (b, table), *rest = pairs
        acc = np.take(table, data[:, b], axis=0)
        for b, table in rest:
            acc ^= np.take(table, data[:, b], axis=0)
        out[:, s] = acc

