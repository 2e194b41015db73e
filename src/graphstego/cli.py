"""Command-line front end.

Subcommands: codebook (write a graph description), analyze (code
parameters and metrics), embed / extract (LSB steganography on
PGM/BMP covers), table (recompute the published protocol-comparison
figures).  Exit codes: 0 success, 2 usage, 3 format/parse error,
4 capacity exceeded, 5 invariant violation, 6 code too large for a
coset table (more than MAX_SYNDROME_BITS syndrome bits).

No module imports numpy when it loads: each reads it through the
handle ``gf2.np``, which imports it on its first attribute read, so
``embed`` loads it, ``codebook``, ``analyze`` and ``table`` never do,
and ``extract`` does only for a frame of more than
``PLAIN_FRAME_PIXELS`` (2^22) pixels, which it decodes through the
numpy chunk loop; a smaller one is read in plain Python.  The process
entry, :func:`run`, freezes the heap once the command is done, so the
collection at interpreter exit skips every object still alive, numpy's
import-time ones included; :func:`main` leaves the GC alone for
callers that run it in process.
"""

from __future__ import annotations

import argparse
import gc
import io
import math
import re
import sys
from pathlib import Path

from . import codebook
from .codebook import (
    CodebookError,
    _data_text,
    _decimal,
    code_from_codebook,
    format_codebook,
)
from .codec import (
    HEADER_BITS,
    CapacityError,
    FrameError,
    _check_seekable,
    embed_file,
    extract_file,
)
from .decoder import (
    TableSizeError,
    _check_size,
    build_coset_table_bruteforce,
    covering_radius_bruteforce,
    covering_radius_tjoin,
)
from .graphs import GraphError, build_graph, code_report, complete_graph
from .images import ImageFormatError, RasterFile, _psnr_db

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_FORMAT = 3
EXIT_CAPACITY = 4
EXIT_INVARIANT = 5
EXIT_TABLE_SIZE = 6

MAX_TEXT_BYTES = 1 << 20  # the largest codebook, edge list or rows file read


class _UsageError(ValueError):
    pass


# First match wins; every other ValueError is a usage error.
_EXIT_CODES = (
    (_UsageError, EXIT_USAGE),
    (CapacityError, EXIT_CAPACITY),
    (TableSizeError, EXIT_TABLE_SIZE),
    ((CodebookError, GraphError, ImageFormatError, FrameError), EXIT_FORMAT),
    (OSError, EXIT_FORMAT),
    (ValueError, EXIT_USAGE),
)


def _read_capped(path: str | Path, limit: int, refusal: ValueError) -> bytes:
    """The bytes of ``path``, read to at most ``limit`` + 1: ``refusal`` is raised if it holds more.

    It is read 64 KiB at a time, so no buffer of the limit's size is
    allocated ahead of the bytes that fill it.
    """
    chunks, left = [], limit + 1
    with open(path, "rb") as fh:
        while left and (chunk := fh.read(min(left, 1 << 16))):
            chunks.append(chunk)
            left -= len(chunk)
    if not left:
        raise refusal
    return b"".join(chunks)


def _read_text(path: str | Path) -> str:
    """A text input, UTF-8; CodebookError if it is over :data:`MAX_TEXT_BYTES`."""
    refusal = CodebookError(f"{path} is over the {MAX_TEXT_BYTES}-byte limit on text inputs")
    return _read_capped(path, MAX_TEXT_BYTES, refusal).decode("utf-8")


def _parse_graph_spec(spec: str):
    """``K<n>`` or ``file:<path>`` (edge-list text) -> (graph, label)."""
    m = re.fullmatch(r"[Kk](\d+)", spec)
    if m:
        q = int(m.group(1))
        if q < 3:
            raise _UsageError(f"K{q} has no cycles; need n >= 3")
        _check_size(q - 1)  # p = v - 1: refuse an oversize graph before building it
        return complete_graph(q), f"K{q}"
    if spec.startswith("file:"):
        path = Path(spec[5:])
        text = _read_text(path)
        pairs = []
        top = 0
        for lineno, ln in enumerate(text.splitlines(), start=1):
            ln = ln.split("#", 1)[0].strip()
            if not ln:
                continue
            try:
                u, v = map(_decimal, ln.split())
            except ValueError:
                raise CodebookError(f"{path}:{lineno}: expected 'u v', got {ln!r}") from None
            pairs.append((u, v))
            top = max(top, u, v)
        if not pairs:
            raise CodebookError(f"{path}: edge list is empty")
        _check_size(top - 1)
        return build_graph(top, pairs), path.name
    raise _UsageError(f"graph spec must be K<n> or file:<path>, got {spec!r}")


def _cmd_codebook(args) -> int:
    graph, label = _parse_graph_spec(args.spec)
    tree_ids = None
    if args.tree:
        try:
            tree_ids = [int(f) for f in args.tree.split(",")]
        except ValueError:
            raise _UsageError(f"--tree wants comma-separated edge ids, got {args.tree!r}") from None
    text = format_codebook(graph, tree_ids)
    code = code_from_codebook(text)  # reject trees / bad tree ids before writing
    Path(args.out).write_text(text, "utf-8")
    print(
        f"wrote {args.out}: {label}, n={code.n_len} k={code.k} d={code.d}"
    )
    return EXIT_OK


def _metric_lines(code, rho: int, porcelain: bool) -> list[str]:
    rep = code_report(code, rho)
    if porcelain:
        return [
            f"n={rep.n_len}",
            f"k={rep.k}",
            f"d={rep.d}",
            f"girth={rep.girth}",
            f"p={rep.p}",
            f"rho={rep.rho}",
            f"embedding_rate={rep.embedding_rate:.4f}",
            f"embedding_efficiency={rep.embedding_efficiency:.4f}",
        ]
    return [
        f"n={rep.n_len} k={rep.k} d={rep.d} girth={rep.girth} p={rep.p} "
        f"rho={rep.rho} ER={rep.embedding_rate:.2f} EF={rep.embedding_efficiency:.2f}"
    ]


def _sized_code(path: str):
    """The codebook's code; TableSizeError before any build if its p = v - 1 is too large."""
    graph, tree_ids = codebook.parse_codebook(_read_text(path))
    _check_size(graph.vertex_count - 1)
    return codebook.build_code(graph, tree_ids)


def _cmd_analyze(args) -> int:
    code = _sized_code(args.codebook)
    rho = covering_radius_bruteforce(code)
    rho_join = covering_radius_tjoin(code.graph)
    if rho != rho_join:
        print(
            f"error: covering-radius oracles disagree ({rho} vs {rho_join})",
            file=sys.stderr,
        )
        return EXIT_INVARIANT
    for line in _metric_lines(code, rho, args.porcelain):
        print(line)
    return EXIT_OK


def _cmd_embed(args) -> int:
    code = _sized_code(args.codebook)
    _check_seekable(args.out)  # refuse a pipe, device or directory before any work
    with RasterFile(args.cover) as cover:
        pixels = cover.layout.capacity
        # the most payload bytes whose frame fits; read before any table work
        room = max((pixels // code.n_len * (code.n_len - code.k) - HEADER_BITS) // 8, 0)
        refusal = CapacityError(f"payload exceeds the {room} bytes this cover can carry")
        payload = _read_capped(args.payload, room, refusal)
        report = embed_file(cover, payload, build_coset_table_bruteforce(code), args.out)
    psnr = _psnr_db(report.total_flips, pixels)
    psnr_txt = "inf" if psnr is None else f"{psnr:.2f}"
    if args.porcelain:
        print(f"blocks_used={report.blocks_used}")
        print(f"total_flips={report.total_flips}")
        print(f"max_flips_per_block={report.max_flips_per_block}")
        print(f"embedding_rate={report.embedding_rate:.4f}")
        print(f"theoretical_efficiency={report.theoretical_efficiency:.4f}")
        print(f"empirical_efficiency={report.empirical_efficiency:.4f}")
        print(f"psnr_db={psnr_txt}")
    else:
        print(
            f"blocks={report.blocks_used} flips={report.total_flips} "
            f"max_flips={report.max_flips_per_block} ER={report.embedding_rate:.2f} "
            f"EF={report.theoretical_efficiency:.2f} "
            f"empirical_EF={report.empirical_efficiency:.2f} PSNR={psnr_txt}dB"
        )
    return EXIT_OK


def _cmd_extract(args) -> int:
    code = _sized_code(args.codebook)  # no table can write a frame of a larger code
    data = extract_file(args.stego, code)
    Path(args.out).write_bytes(data)
    print(f"extracted {len(data)} bytes to {args.out}")
    return EXIT_OK


def _fraction(field: str) -> float:
    """ASCII decimal digits with at most one point: ``float`` also reads ``0.7_3`` and ``nan``."""
    whole, _, frac = field.partition(".")
    _decimal(whole + frac)
    return float(field)


def _parse_range(text: str, parse):
    parts = text.split("-")
    if len(parts) not in (1, 2):
        raise CodebookError(f"bad range {text!r}")
    try:
        return [parse(x) for x in parts]
    except ValueError:
        raise CodebookError(f"bad range {text!r}") from None


def _cmd_table(args) -> int:
    if args.rows:
        text = _read_text(args.rows)
    else:
        text = _data_text("reference_protocols.tsv")
    out_rows = [
        [
            "n", "d", "family", "K", "rho",
            "er_published", "er_computed", "ef_published", "ef_computed", "status",
        ]
    ]
    mismatches = 0
    for lineno, ln in enumerate(text.splitlines(), start=1):
        ln = ln.strip()
        if not ln or ln.startswith("#") or ln.startswith("n\t"):
            continue
        fields = ln.split("\t")
        if len(fields) != 7:
            raise CodebookError(f"rows line {lineno}: expected 7 tab-separated fields")
        n_txt, d_txt, family, k_txt, rho_txt, er_txt, ef_txt = fields
        try:
            n_len, hidden, er_pub = _decimal(n_txt), _decimal(k_txt), _fraction(er_txt)
        except ValueError:
            raise CodebookError(f"rows line {lineno}: bad n, K or ER") from None
        rhos = _parse_range(rho_txt, _decimal)
        efs = _parse_range(ef_txt, _fraction)
        if len(rhos) != len(efs):
            raise CodebookError(f"rows line {lineno}: rho and ef ranges differ in length")
        if not all(map(math.isfinite, [er_pub, *efs])):
            raise CodebookError(f"rows line {lineno}: ER and EF must be finite numbers")
        if n_len < 1 or min(rhos) < 1:
            raise CodebookError(f"rows line {lineno}: n and rho must be positive")
        er_calc = hidden / n_len
        ef_calc = [hidden / r for r in rhos]
        ok = abs(er_calc - er_pub) <= 0.01 + 1e-9 and all(
            abs(c - p) <= 0.01 + 1e-9 for c, p in zip(ef_calc, efs)
        )
        if not ok:
            mismatches += 1
        out_rows.append(
            [
                n_txt, d_txt, family, k_txt, rho_txt,
                er_txt, f"{er_calc:.2f}",
                ef_txt, "-".join(f"{x:.2f}" for x in ef_calc),
                "ok" if ok else "MISMATCH",
            ]
        )
    if len(out_rows) == 1:
        raise CodebookError("rows file lists no rows")
    import csv  # only this command writes CSV

    buf = io.StringIO()
    csv.writer(buf).writerows(out_rows)
    if args.csv:
        Path(args.csv).write_text(buf.getvalue(), "utf-8")
    else:
        sys.stdout.write(buf.getvalue())
    if mismatches:
        print(f"{mismatches} row(s) disagree with their published figures", file=sys.stderr)
        return EXIT_INVARIANT
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphstego",
        description="Syndrome-coding steganography with cycle codes of graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("codebook", help="write a codebook for a graph")
    p.add_argument("--spec", required=True, help="K<n> or file:<path> (edge-list text)")
    p.add_argument("--out", required=True, help="codebook file to write")
    p.add_argument("--tree", help="comma-separated edge ids pinning the spanning tree")
    p.set_defaults(func=_cmd_codebook)

    p = sub.add_parser("analyze", help="code parameters and protocol metrics")
    p.add_argument("--codebook", required=True)
    p.add_argument("--porcelain", action="store_true", help="line-oriented key=value output")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("embed", help="hide a payload file in an image's LSB plane")
    p.add_argument("--codebook", required=True)
    p.add_argument("--cover", required=True, help="PGM or BMP cover image")
    p.add_argument("--payload", required=True, help="payload file (raw bytes)")
    p.add_argument("--out", required=True, help="stego image to write")
    p.add_argument("--porcelain", action="store_true", help="line-oriented key=value output")
    p.set_defaults(func=_cmd_embed)

    p = sub.add_parser("extract", help="recover a payload from a stego image")
    p.add_argument("--codebook", required=True)
    p.add_argument("--stego", required=True)
    p.add_argument("--out", required=True, help="payload file to write")
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser("table", help="recompute the protocol-comparison figures")
    p.add_argument("--rows", help="TSV rows file (default: bundled reference data)")
    p.add_argument("--csv", help="write CSV here instead of stdout")
    p.set_defaults(func=_cmd_table)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kinds, code in _EXIT_CODES if isinstance(exc, kinds))


def run() -> int:
    """Process entry of ``python -m graphstego.cli`` and the ``graphstego`` script."""
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
