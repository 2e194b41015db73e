# Hiding a message in an image's least-significant bits
#
# The LSB plane of an 8-bit image is visually irrelevant noise, so we
# can treat it as a bit stream: cut it into n-bit blocks, and nudge
# each block (at most rho flips) until its parity-check syndrome spells
# the p message bits we want.  The receiver just recomputes syndromes —
# no table, no original image.
#
# Run me as:  python demos/03_hide_bits_in_an_image.py

import tempfile
from pathlib import Path

import numpy as np

from graphstego import (
    build_coset_table_bruteforce,
    bundled_codebook_text,
    bytes_to_bits,
    bits_to_bytes,
    code_from_codebook,
    embed_image,
    extract_image,
    load_image,
    peak_signal_noise,
    save_image,
)

workdir = Path(tempfile.mkdtemp(prefix="graphstego_demo_"))
print(f"writing demo files under {workdir}")

# --- make a cover image --------------------------------------------------
# A synthetic 128x128 grayscale PGM with smooth gradients plus noise,
# so it looks like a plausible photo histogram rather than a constant.

rng = np.random.default_rng(2024)
y, x = np.mgrid[0:128, 0:128]
base = 96 + 48 * np.sin(x / 17.0) + 32 * np.cos(y / 23.0)
pixels = np.clip(base + rng.normal(0, 12, base.shape), 0, 255).astype(np.uint8)
cover_path = workdir / "cover.pgm"
cover_path.write_bytes(b"P5\n128 128\n255\n" + pixels.tobytes())

cover = load_image(cover_path)
print(f"cover: {cover.width}x{cover.height}, capacity {cover.capacity} bits")

# --- embed ---------------------------------------------------------------

code = code_from_codebook(bundled_codebook_text("k5"))
table = build_coset_table_bruteforce(code)

secret = b"Meet at the old bridge, Thursday 23:40. Bring the ledger."
# embed_image XORs each block's leader straight into a copy of the
# pixels: flipping a bit of the LSB plane is flipping a pixel's LSB.
stego, report = embed_image(cover, bytes_to_bits(secret), table)
stego_path = workdir / "stego.pgm"
save_image(stego, stego_path)

print(f"hid {len(secret)} bytes in {report.blocks_used} blocks of {code.n_len} bits")
print(f"total flips: {report.total_flips} "
      f"(worst block {report.max_flips_per_block}, bound rho={table.rho})")
print(f"embedding rate:  {report.embedding_rate:.2f} bits per cover bit")
print(f"efficiency: {report.theoretical_efficiency:.2f} guaranteed, "
      f"{report.empirical_efficiency:.2f} achieved on this cover")
psnr = peak_signal_noise(cover, stego)
print(f"PSNR: {psnr:.2f} dB" if psnr else "PSNR: infinite (no pixel changed)")

# --- extract -------------------------------------------------------------
# The receiving side needs only the stego image and the codebook.

received = load_image(stego_path)
bits = extract_image(received, code)
message = bits_to_bytes(bits)
print(f"recovered {len(message)} bytes: {message.decode()!r}")
assert message == secret

# Flips only ever touch the LSB, so no pixel moved by more than one
# gray level:

delta = np.abs(cover.pixels.astype(int) - stego.pixels.astype(int))
print(f"largest pixel change: {delta.max()} gray level(s), "
      f"{int((delta > 0).sum())} of {cover.capacity} pixels touched")
