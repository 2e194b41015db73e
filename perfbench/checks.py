"""Correctness checks on each op's output files, independent of graphstego.

Images are parsed by this module's own reader.  An op fails when it
exits nonzero, when the recovered payload differs from the input, when
a pixel changed in more than its LSB, when a block took more than rho
flips, or when the program's porcelain report disagrees with the
recount made here.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from inputs import HEADER_BITS, CodeSpec


@dataclass
class Verdict:
    """Outcome of one op's checks; ``stats`` holds recounted figures."""

    reasons: list[str] = field(default_factory=list)
    stats: dict[str, float] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.reasons


def read_pixels(path: Path) -> np.ndarray:
    """Pixels of a P5 PGM or 24-bit BMP in file order, padding stripped."""
    data = Path(path).read_bytes()
    if data[:2] == b"P5":
        fields = data.split(maxsplit=4)
        width, height = int(fields[1]), int(fields[2])
        return np.frombuffer(data[len(data) - width * height :], dtype=np.uint8)
    if data[:2] == b"BM":
        offset = struct.unpack("<I", data[10:14])[0]
        width, height = struct.unpack("<ii", data[18:26])
        stride = (3 * width + 3) // 4 * 4
        rows = np.frombuffer(data[offset : offset + stride * height], dtype=np.uint8)
        return rows.reshape(height, stride)[:, : 3 * width].reshape(-1)
    raise ValueError(f"{path}: not a PGM or BMP file")


def porcelain(text: str) -> dict[str, str]:
    """``key=value`` lines of a ``--porcelain`` report."""
    return dict(ln.split("=", 1) for ln in text.splitlines() if "=" in ln)


def check_exit(verdict: Verdict, status: int) -> None:
    if status != 0:
        verdict.reasons.append(f"exit status {status}")


def check_analyze(status: int, stdout: str, spec: CodeSpec) -> Verdict:
    verdict = Verdict()
    check_exit(verdict, status)
    report = porcelain(stdout)
    for key, want in (("n", spec.n), ("p", spec.p), ("rho", spec.rho)):
        if report.get(key) != str(want):
            verdict.reasons.append(f"analyze {key}={report.get(key)}, expected {want}")
    return verdict


def check_embed(status: int, stdout: str, cover: np.ndarray, stego_path: Path,
                payload_len: int, spec: CodeSpec) -> Verdict:
    """Recount flips per block and PSNR from the cover and stego pixels."""
    verdict = Verdict()
    check_exit(verdict, status)
    if not verdict.ok:
        return verdict
    try:
        stego = read_pixels(stego_path)
    except (OSError, ValueError, struct.error) as exc:
        verdict.reasons.append(f"unreadable stego file: {exc}")
        return verdict
    if stego.size != cover.size:
        verdict.reasons.append(f"stego has {stego.size} pixels, cover {cover.size}")
        return verdict
    diff = cover ^ stego
    if (diff & 0xFE).any():
        verdict.reasons.append("a pixel changed in more than its LSB")
    flips = diff & 1
    blocks = -(-(HEADER_BITS + 8 * payload_len) // spec.p)
    used = blocks * spec.n
    if flips[used:].any():
        verdict.reasons.append("an LSB changed past the last used block")
    worst = int(flips[:used].reshape(blocks, spec.n).sum(axis=1, dtype=np.int64).max())
    if worst > spec.rho:
        verdict.reasons.append(f"a block took {worst} flips, rho is {spec.rho}")
    total = int(np.count_nonzero(flips))
    psnr = 10.0 * math.log10(255.0 * 255.0 * cover.size / total) if total else math.inf
    report = porcelain(stdout)
    if report.get("total_flips") != str(total):
        verdict.reasons.append(f"reported total_flips={report.get('total_flips')}, recount {total}")
    try:
        psnr_ok = abs(float(report.get("psnr_db", "nan")) - psnr) <= 0.005 + 1e-9
    except ValueError:
        psnr_ok = False
    if not psnr_ok:
        verdict.reasons.append(f"reported psnr_db={report.get('psnr_db')}, recount {psnr:.4f}")
    verdict.stats = {"psnr_db": psnr, "bits_per_flip": spec.p * blocks / total if total else math.inf}
    return verdict


def check_extract(status: int, out_path: Path, payload: bytes) -> Verdict:
    verdict = Verdict()
    check_exit(verdict, status)
    if verdict.ok:
        try:
            recovered = Path(out_path).read_bytes()
        except OSError as exc:
            verdict.reasons.append(f"no payload file: {exc}")
            return verdict
        if recovered != payload:
            verdict.reasons.append("extracted payload differs from the input")
    return verdict
