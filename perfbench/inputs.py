"""Seeded input generator: covers, payloads and codebooks as files.

Kept apart from the code under test: covers are written by this module's
own PGM/BMP writers, and the program only ever sees the files.  The two
graph codebooks are rendered with ``graphstego.format_codebook``; K5 is
the bundled reference codebook.  The same seed gives the same bytes.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HEADER_BITS = 32
PAYLOAD_SHARE = 0.95


@dataclass(frozen=True)
class CodeSpec:
    """A codebook source and the code parameters it must yield."""

    name: str
    n: int
    p: int
    rho: int


# rho is fixed here and checked against both table builders by selftest.py.
CODES = {
    "k5": CodeSpec("k5", n=10, p=4, rho=2),
    "gp83": CodeSpec("gp83", n=24, p=15, rho=8),
    "c16": CodeSpec("c16", n=32, p=15, rho=8),
}


@dataclass(frozen=True)
class Inputs:
    codebook: Path
    cover: Path
    payload: Path
    pixels: np.ndarray  # cover pixels in file order, padding stripped
    payload_bytes: bytes


def codebook_text(name: str) -> str:
    """K5 reference, Moebius-Kantor GP(8,3) or circulant C16(1,3)."""
    import graphstego

    if name == "k5":
        return graphstego.bundled_codebook_text("k5")
    if name == "gp83":
        # outer 8-cycle 1..8, spokes i -- 8+i, inner star polygon {8/3} on 9..16
        edges = []
        for i in range(8):
            edges += [(i + 1, (i + 1) % 8 + 1), (i + 1, i + 9), (i + 9, (i + 3) % 8 + 9)]
        return graphstego.format_codebook(graphstego.build_graph(16, edges))
    if name == "c16":
        edges = []
        for i in range(16):
            edges += [(i + 1, (i + 1) % 16 + 1), (i + 1, (i + 3) % 16 + 1)]
        return graphstego.format_codebook(graphstego.build_graph(16, edges))
    raise ValueError(f"unknown code {name!r}")


def payload_size(cover_bits: int, spec: CodeSpec) -> int:
    """Bytes filling PAYLOAD_SHARE of the cover's framed capacity."""
    framed_capacity = (cover_bits // spec.n) * spec.p - HEADER_BITS
    return int(PAYLOAD_SHARE * framed_capacity) // 8


def _pgm_bytes(width: int, height: int, pixels: np.ndarray) -> bytes:
    return b"P5\n%d %d\n255\n" % (width, height) + pixels.tobytes()


def _bmp_bytes(width: int, height: int, pixels: np.ndarray) -> bytes:
    stride = (3 * width + 3) // 4 * 4
    rows = np.zeros((height, stride), dtype=np.uint8)
    rows[:, : 3 * width] = pixels.reshape(height, 3 * width)
    body = rows.tobytes()
    header = struct.pack("<2sIHHI", b"BM", 54 + len(body), 0, 0, 54) + struct.pack(
        "<IiiHHIIiiII", 40, width, height, 1, 24, 0, len(body), 2835, 2835, 0, 0
    )
    return header + body


def make_inputs(directory: Path, seed: int, fmt: str, width: int, height: int, spec: CodeSpec) -> Inputs:
    """Write one seeded uniform-random cover, payload and codebook."""
    rng = np.random.default_rng(seed)
    channels = 3 if fmt == "bmp" else 1
    pixels = rng.integers(0, 256, size=width * height * channels, dtype=np.uint8)
    payload = rng.integers(0, 256, size=payload_size(pixels.size, spec), dtype=np.uint8).tobytes()
    directory.mkdir(parents=True, exist_ok=True)
    cover = directory / f"cover.{fmt}"
    writer = _bmp_bytes if fmt == "bmp" else _pgm_bytes
    cover.write_bytes(writer(width, height, pixels))
    payload_path = directory / "payload.bin"
    payload_path.write_bytes(payload)
    codebook = directory / f"{spec.name}.graphcode"
    codebook.write_text(codebook_text(spec.name), "utf-8")
    return Inputs(codebook, cover, payload_path, pixels, payload)
