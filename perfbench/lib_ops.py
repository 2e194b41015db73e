"""Library-path front end for codes above the CLI's exhaustive-table limit.

Follows the README: build the coset table once with the T-join builder
and cache it with ``save_table``; each later op reads it back with
``load_table``.  Output mirrors the CLI's ``--porcelain`` lines so the
same checks apply.  Run as a script, one op per process::

    python lib_ops.py setup   CODEBOOK CACHE
    python lib_ops.py analyze CODEBOOK CACHE
    python lib_ops.py embed   CODEBOOK CACHE COVER PAYLOAD OUT
    python lib_ops.py extract CODEBOOK STEGO OUT

Exit codes follow the CLI: 0 success, 3 format error, 4 capacity,
5 oracle disagreement.
"""

from __future__ import annotations

import sys
from pathlib import Path

from graphstego import (
    CapacityError,
    bits_to_bytes,
    build_coset_table_tjoin,
    bytes_to_bits,
    code_from_codebook,
    covering_radius_bruteforce,
    covering_radius_tjoin,
    embed_stream,
    extract_stream,
    load_image,
    load_table,
    lsb_extract,
    lsb_inject,
    peak_signal_noise,
    save_image,
    save_table,
)


def setup(codebook, cache) -> int:
    code = code_from_codebook(Path(codebook).read_text("utf-8"))
    save_table(build_coset_table_tjoin(code), cache)
    return 0


def analyze(codebook, cache) -> int:
    code = code_from_codebook(Path(codebook).read_text("utf-8"))
    rho = covering_radius_bruteforce(load_table(cache, code))
    if rho != covering_radius_tjoin(code.graph):
        print("error: covering-radius oracles disagree", file=sys.stderr)
        return 5
    print(f"n={code.n_len}\np={code.n_len - code.k}\nrho={rho}")
    return 0


def embed(codebook, cache, cover_path, payload_path, out) -> int:
    code = code_from_codebook(Path(codebook).read_text("utf-8"))
    table = load_table(cache, code)
    cover = load_image(cover_path)
    payload = Path(payload_path).read_bytes()
    stego_bits, report = embed_stream(lsb_extract(cover), bytes_to_bits(payload), table)
    stego = lsb_inject(cover, stego_bits)
    save_image(stego, out)
    psnr = peak_signal_noise(cover, stego)
    print(f"blocks_used={report.blocks_used}\ntotal_flips={report.total_flips}")
    print("psnr_db=" + ("inf" if psnr is None else f"{psnr:.2f}"))
    return 0


def extract(codebook, stego_path, out) -> int:
    code = code_from_codebook(Path(codebook).read_text("utf-8"))
    bits = extract_stream(lsb_extract(load_image(stego_path)), code)
    Path(out).write_bytes(bits_to_bytes(bits))
    return 0


OPS = {"setup": setup, "analyze": analyze, "embed": embed, "extract": extract}


def main(argv: list[str]) -> int:
    try:
        return OPS[argv[0]](*argv[1:])
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
