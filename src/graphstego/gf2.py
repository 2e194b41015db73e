"""GF(2) bit vectors and the packed syndrome engine.

Bit vectors are 1-D numpy arrays of dtype uint8 with values in {0, 1}.
Index 0 holds the leftmost printed symbol, so the string ``"1101"`` and
``[1, 1, 0, 1]`` denote the same vector.  When a bit vector is read as
a table index, bit 0 is the most significant bit: ``"1100"`` indexes
slot 12.  A parity check enters only as the trusted (p, n) bit matrix
that :func:`syndrome_tables` turns into byte lookup tables; there is no
other bit-matrix arithmetic here.

All operations are pure and never mutate their arguments.

:class:`_Record` is the base of the package's frozen records, and
:data:`np` the package's one handle on numpy, here because every
module that defines a record or reads an array imports this one.  The
handle imports numpy on its first attribute read, so loading a module
of the package loads no numpy; :func:`lane_syndromes`, the
plain-Python syndrome reader of the table cache and of small extracts,
never reads it.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from functools import cache
from typing import TYPE_CHECKING


class _Numpy:
    """numpy, imported on the first attribute read.

    Each attribute read is stored on the handle, so every later read of
    it is a plain instance attribute.
    """

    def __getattr__(self, name: str):
        import numpy

        value = getattr(numpy, name)
        self.__dict__[name] = value
        return value


if TYPE_CHECKING:
    import numpy as np
else:
    np = _Numpy()


class _Record:
    """A frozen record, built by keyword from the fields its class annotates.

    Assigning or deleting an attribute raises AttributeError, while
    ``functools.cached_property`` still caches, as it writes the
    instance ``__dict__`` itself.  A record compares by identity; a
    :class:`_ValueRecord` compares and hashes as its fields' tuple.
    (Plain classes: ``dataclasses``, the ``inspect`` it imports and the
    code it generates made ``import graphstego.cli`` about 11 ms slower.)
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__)

    def __init__(self, **fields):
        if fields.keys() != set(self._fields):
            raise TypeError(f"{type(self).__name__} takes the fields {', '.join(self._fields)}")
        self.__dict__.update(fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a frozen {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a frozen {type(self).__name__}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"


class _ValueRecord(_Record):
    """A :class:`_Record` equal to another of its class with equal fields."""

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())


def _require_binary(arr: np.ndarray) -> None:
    """Raise ValueError unless every entry of ``arr`` is 0 or 1."""
    if not arr.size:
        return
    if arr.dtype == np.uint8:
        ok = arr.max() <= 1
    else:
        ok = np.isin(arr, (0, 1)).all()
    if not ok:
        raise ValueError("bit vector entries must be 0 or 1")


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
    _require_binary(arr)
    return arr.astype(np.uint8)


def _bits_view(values) -> np.ndarray:
    """:func:`as_bits` for input that is only read: a 1-D uint8 array is checked, not copied."""
    if isinstance(values, np.ndarray) and values.dtype == np.uint8 and values.ndim == 1:
        _require_binary(values)
        return values
    return as_bits(values)


def syndrome_index(bits) -> int:
    """Read a bit vector as an integer, bit 0 most significant.

    ``"1100"`` -> 12, so printed syndromes index tables in the order a
    human would write them down.  Plain Python, one bit at a time: an
    oracle that shares no code with :func:`stream_syndromes`.
    """
    index = 0
    for bit in as_bits(bits).tolist():
        index = index << 1 | bit
    return index


class SyndromeTables(_Record):
    """Byte lookup tables of one code's packed syndromes over a group of rows.

    A group is ``rows`` consecutive rows of a packed stream, ``in_bytes``
    whole bytes.  Output slot s of a group is the XOR of ``table[v]``
    over the ``(b, table)`` pairs of ``lookups[s]``, where v is the
    group's input byte b.
    """

    rows: int
    in_bytes: int
    width: int
    dtype: np.dtype
    lookups: tuple[tuple[tuple[int, np.ndarray], ...], ...]


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


def syndrome_words(packed: np.ndarray, count: int, width: int) -> np.ndarray:
    """The first ``count`` ``width``-bit groups of a packed stream, each read as a word.

    ``packed`` holds the groups back to back, MSB first, as
    :func:`stream_syndromes` returns them.  A word reads its group as
    :func:`syndrome_index` does, in the narrowest unsigned dtype; a
    ``width`` above 64 raises ValueError.  It is the stream's syndrome
    under a right-aligned identity check, whose tables are built once
    per width.
    """
    if width > 64:
        raise ValueError(f"a word holds at most 64 bits, got {width}")
    tables = _identity_tables(width)
    size = tables.width // 8
    return stream_syndromes(packed, count, tables).view(f">u{size}").astype(f"u{size}")


@cache
def _identity_tables(width: int) -> SyndromeTables:
    """Tables of the identity check on ``width`` bits, padded on top to a whole word."""
    bits = 8 * np.min_scalar_type((1 << width) - 1).itemsize
    return syndrome_tables(np.eye(bits, width, width - bits, dtype=np.uint8))


def lane_syndromes(lanes, width: int) -> list[int]:
    """Per-row XORs of column words, read a byte lane at a time in plain Python.

    ``lanes`` yields ``(lane, words)`` pairs.  A lane holds one byte per
    row, and bit b of a row's byte stands for the column whose word is
    ``words[b]``; bits past the last word add nothing.  A 256-entry
    ``bytes.translate`` table turns the lane into byte q of what it adds
    to each row's XOR, and the translated lanes are XORed as ints.  A
    lane is translated once per distinct nonzero table.  This reads a
    packed table row (eight columns a byte) and a pixel block (one
    column a byte, its LSB) alike, and never loads numpy.

    Returns:
        ``width`` ints: int q holds byte q of every row's XOR, one byte
        per row, little-endian, so row r is byte r.
    """
    out = [0] * width
    for lane, words in lanes:
        sums, reach = [0], 0  # sums[v]: the XOR of the words of v's set bits
        for word in words:
            sums += [s ^ word for s in sums]
            reach |= word
        read = {}
        for q in range(width):
            if reach >> 8 * q & 255:
                # repeated over the bits past the last word
                table = bytes(s >> 8 * q & 255 for s in sums) * (256 // len(sums))
                if table not in read:
                    read[table] = int.from_bytes(lane.translate(table), "little")
                out[q] ^= read[table]
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
